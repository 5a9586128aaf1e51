// Figure 13: throughput-latency trade-off as batch size b sweeps 1..1024
// (100 ms checkpoints, w = 16b).
//
// Expected shape: throughput rises with b until saturation; beyond the sweet
// spot extra batching only adds latency.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "harness/stats.h"

namespace dpr {
namespace {

void Run(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "fig13_tradeoff");
  flags.RejectUnknown();
  json.RecordConfig(config);
  const std::vector<uint32_t> batches =
      config.quick ? std::vector<uint32_t>{1, 8, 64, 512}
                   : std::vector<uint32_t>{1, 2, 4, 8, 16, 32, 64, 128, 256,
                                           512, 1024};
  printf("\n=== Figure 13: throughput-latency trade-off ===\n");
  ResultTable table({"b", "w", "Mops", "mean-latency-us", "p99-latency-us"});
  for (uint32_t b : batches) {
    ClusterOptions options;
    options.num_workers = 2;
    options.backend = StorageBackend::kLocal;
    options.checkpoint_interval_us = 100000;
    DFasterCluster cluster(options);
    Status s = cluster.Start();
    DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    DriverOptions driver;
    driver.num_client_threads = config.client_threads;
    driver.duration_ms = config.duration_ms;
    driver.workload.num_keys = config.num_keys;
    driver.workload.zipf_theta = 0.99;
    driver.batch_size = b;
    driver.window = 16 * b;
    driver.latency_sample_rate = 0.01;
    const DriverResult result = RunYcsbDriver(&cluster, driver);
    json.AddDriverResult("batch", b, result);
    table.AddRow({std::to_string(b), std::to_string(16 * b),
                  ResultTable::Fmt(result.Mops()),
                  ResultTable::Fmt(result.op_latency_us.Mean(), 1),
                  std::to_string(result.op_latency_us.Percentile(99))});
  }
  table.Print();
  json.Finish();
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_fig13_tradeoff (quick=%d)\n", flags.GetBool("quick", true));
  dpr::Run(flags);
  return 0;
}
