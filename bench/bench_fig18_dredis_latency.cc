// Figure 18: latency distribution of Redis, D-Redis, and Redis+proxy in the
// unsaturated configuration.
//
// Expected shape: D-Redis latency tracks the pass-through proxy, both ~30%
// above plain Redis — the extra hop, not the DPR algorithm, dominates.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"

namespace dpr {
namespace {

void Run(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "fig18_dredis_latency");
  flags.RejectUnknown();
  json.RecordConfig(config);
  const std::vector<std::pair<std::string, RedisDeployment>> deployments = {
      {"redis", RedisDeployment::kDirect},
      {"d-redis", RedisDeployment::kDpr},
      {"redis+proxy", RedisDeployment::kPassThrough},
  };
  printf("\n=== Figure 18: D-Redis latency distributions (unsaturated) "
         "===\n");
  for (const auto& [name, deployment] : deployments) {
    RedisClusterOptions options;
    options.num_shards = 2;
    options.deployment = deployment;
    // One commit per run, as in the paper's D-Redis evaluation (§7.5).
    options.checkpoint_interval_us = config.duration_ms * 1000;
    DRedisCluster cluster(options);
    Status s = cluster.Start();
    DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    DriverOptions driver;
    driver.num_client_threads = config.client_threads;
    driver.duration_ms = config.duration_ms * 2;
    driver.workload.num_keys = config.num_keys;
    driver.batch_size = 16;
    driver.window = 256;
    driver.latency_sample_rate = 0.01;
    const RedisDriverResult result = RunRedisDriver(&cluster, driver);
    json.AddRedisResult(name, 2, result);
    printf("  %-12s %.2f Mops | %s\n", name.c_str(), result.Mops(),
           result.op_latency_us.Summary().c_str());
  }
  json.Finish();
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_fig18_dredis_latency (quick=%d)\n",
         flags.GetBool("quick", true));
  dpr::Run(flags);
  return 0;
}
