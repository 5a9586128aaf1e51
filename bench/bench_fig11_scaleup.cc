// Figure 11: scaling up D-FASTER — throughput vs client threads for
// {no checkpoints, uncoordinated checkpoints (no DPR), DPR}.
//
// Expected shape: all three scale with threads; checkpointing costs some
// throughput; DPR adds minimal overhead over uncoordinated checkpoints.
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
  BenchJsonOutput json(flags, "fig11_scaleup");
  flags.RejectUnknown();
  json.RecordConfig(config);
  const std::vector<uint32_t> thread_counts =
      config.quick ? std::vector<uint32_t>{1, 2, 4}
                   : std::vector<uint32_t>{2, 4, 8, 16};
  const std::vector<std::pair<std::string, RecoverabilityMode>> modes = {
      {"no-chkpt", RecoverabilityMode::kNone},
      {"no-dpr", RecoverabilityMode::kEventual},
      {"dpr", RecoverabilityMode::kDpr},
  };
  for (double theta : {0.0, 0.99}) {
    printf("\n=== Figure 11%s: scale-up, YCSB-A 50:50, %s ===\n",
           theta == 0.0 ? "a" : "b",
           theta == 0.0 ? "uniform" : "Zipfian(0.99)");
    ResultTable table({"client-threads", "config", "Mops"});
    for (uint32_t threads : thread_counts) {
      for (const auto& [name, mode] : modes) {
        ClusterOptions options;
        options.num_workers = 2;
        options.mode = mode;
        options.backend = StorageBackend::kNull;
        DFasterCluster cluster(options);
        Status s = cluster.Start();
        DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
        DriverOptions driver;
        driver.num_client_threads = threads;
        driver.duration_ms = config.duration_ms;
        driver.workload.num_keys = config.num_keys;
        driver.workload.zipf_theta = theta;
        driver.track_commits = mode == RecoverabilityMode::kDpr;
        const DriverResult result = RunYcsbDriver(&cluster, driver);
        json.AddDriverResult((theta == 0.0 ? "uniform." : "zipf.") + name,
                             threads, result);
        table.AddRow({std::to_string(threads), name,
                      ResultTable::Fmt(result.Mops())});
      }
    }
    table.Print();
  }
  json.Finish();
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_fig11_scaleup (quick=%d)\n", flags.GetBool("quick", true));
  dpr::Run(flags);
  return 0;
}
