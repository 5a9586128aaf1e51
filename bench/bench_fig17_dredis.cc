// Figure 17: D-Redis vs Redis vs Redis+proxy throughput while scaling the
// shard count, in a saturated (w=8192, b=1024) and an unsaturated
// (w=1024, b=16) configuration.
//
// Expected shape: D-Redis matches Redis's throughput and scalability when
// saturated (DPR does not reduce peak throughput); when unsaturated it
// tracks the pass-through proxy (the extra hop, not DPR, costs latency).
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
  BenchJsonOutput json(flags, "fig17_dredis");
  flags.RejectUnknown();
  json.RecordConfig(config);
  const std::vector<uint32_t> shard_counts =
      config.quick ? std::vector<uint32_t>{1, 2, 4}
                   : std::vector<uint32_t>{2, 4, 6, 8};
  const std::vector<std::pair<std::string, RedisDeployment>> deployments = {
      {"redis", RedisDeployment::kDirect},
      {"redis+proxy", RedisDeployment::kPassThrough},
      {"d-redis", RedisDeployment::kDpr},
  };
  struct Mode {
    std::string name;
    uint32_t window;
    uint32_t batch;
  };
  const std::vector<Mode> modes = {{"saturated", 8192, 1024},
                                   {"unsaturated", 1024, 16}};
  for (const Mode& mode : modes) {
    printf("\n=== Figure 17%s: %s (w=%u, b=%u) ===\n",
           mode.name == "saturated" ? "a" : "b", mode.name.c_str(),
           mode.window, mode.batch);
    ResultTable table({"shards", "deployment", "Mops"});
    for (uint32_t shards : shard_counts) {
      for (const auto& [name, deployment] : deployments) {
        RedisClusterOptions options;
        options.num_shards = shards;
        options.deployment = deployment;
        // Paper §7.5: the 5-minute runs take ONE checkpoint; scale that to
        // one commit per measurement run.
        options.checkpoint_interval_us = config.duration_ms * 1000;
        DRedisCluster cluster(options);
        Status s = cluster.Start();
        DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
        DriverOptions driver;
        driver.num_client_threads = config.client_threads;
        driver.duration_ms = config.duration_ms;
        driver.workload.num_keys = config.num_keys;
        driver.batch_size = mode.batch;
        driver.window = mode.window;
        const RedisDriverResult result = RunRedisDriver(&cluster, driver);
        json.AddRedisResult(mode.name + "." + name, shards, result);
        table.AddRow({std::to_string(shards), name,
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
  printf("bench_fig17_dredis (quick=%d)\n", flags.GetBool("quick", true));
  dpr::Run(flags);
  return 0;
}
