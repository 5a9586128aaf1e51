// Figure 15: co-location throughput — clients run on the worker nodes and a
// fraction p of their requests target the local shard through shared memory.
//
// Expected shape: throughput rises steeply with the local fraction (local
// ops skip the network entirely), and the advantage is largest at small
// batch sizes, where remote ops cannot amortize messaging costs.
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
  BenchJsonOutput json(flags, "fig15_colocation");
  flags.RejectUnknown();
  json.RecordConfig(config);
  const std::vector<double> local_fractions =
      config.quick ? std::vector<double>{0.0, 0.5, 0.9, 1.0}
                   : std::vector<double>{0.0, 0.25, 0.5, 0.75, 0.9, 0.99,
                                         1.0};
  const std::vector<uint32_t> batches =
      config.quick ? std::vector<uint32_t>{1, 16, 64}
                   : std::vector<uint32_t>{1, 8, 16, 64, 256, 1024};
  printf("\n=== Figure 15: co-location throughput ===\n");
  ResultTable table({"local-%", "b", "Mops"});
  for (double p : local_fractions) {
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
      driver.local_fraction = p;
      const DriverResult result = RunYcsbDriver(&cluster, driver);
      json.AddDriverResult("b" + std::to_string(b), p, result);
      table.AddRow({ResultTable::Fmt(p * 100, 0), std::to_string(b),
                    ResultTable::Fmt(result.Mops())});
    }
  }
  table.Print();
  json.Finish();
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_fig15_colocation (quick=%d)\n", flags.GetBool("quick", true));
  dpr::Run(flags);
  return 0;
}
