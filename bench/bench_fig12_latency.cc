// Figure 12: operation-completion and commit latency distributions for
// D-FASTER at batch sizes b=1024 and b=64 (0.1%-style sampling).
//
// Expected shape: commit latency ~ one checkpoint interval plus checkpoint
// persist time; operation latency is a few ms dominated by client batching;
// b=64 gives sub-millisecond op latency at reduced throughput.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "harness/stats.h"

namespace dpr {
namespace {

void PrintHistogram(const char* label, const Histogram& h) {
  printf("  %-28s %s\n", label, h.Summary().c_str());
}

void Run(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "fig12_latency");
  flags.RejectUnknown();
  json.RecordConfig(config);
  for (uint32_t batch : {1024u, 64u}) {
    ClusterOptions options;
    options.num_workers = 2;
    options.backend = StorageBackend::kLocal;
    options.checkpoint_interval_us = 100000;
    DFasterCluster cluster(options);
    Status s = cluster.Start();
    DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    DriverOptions driver;
    driver.num_client_threads = config.client_threads;
    driver.duration_ms = config.duration_ms * 2;
    driver.workload.num_keys = config.num_keys;
    driver.workload.zipf_theta = 0.99;
    driver.batch_size = batch;
    driver.window = 16 * batch;  // paper: w = 16b
    driver.latency_sample_rate = 0.005;
    const DriverResult result = RunYcsbDriver(&cluster, driver);
    json.AddDriverResult("batch", batch, result);
    printf("\n=== Figure 12: latency distribution, b=%u (%.2f Mops) ===\n",
           batch, result.Mops());
    PrintHistogram("operation latency:", result.op_latency_us);
    PrintHistogram("commit latency:", result.commit_latency_us);
  }
  json.Finish();
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_fig12_latency (quick=%d)\n", flags.GetBool("quick", true));
  dpr::Run(flags);
  return 0;
}
