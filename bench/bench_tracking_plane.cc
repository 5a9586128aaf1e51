// Tracking-plane observability: runs YCSB-A over a DPR cluster with the
// finder in-process and again deployed behind the batching RPC client
// (ClusterOptions::remote_finder), printing the TrackingPlaneStats counters
// for each. Under load the remote deployment should show
// reports-per-batch > 1 (reports coalesce instead of one RPC per
// checkpoint) and the dependency tracker should show mostly lock-free
// records for single-shard sessions.
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "harness/stats.h"

namespace dpr {
namespace {

void Run(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "tracking_plane");
  flags.RejectUnknown();
  json.RecordConfig(config);
  for (bool remote : {false, true}) {
    ClusterOptions options;
    options.num_workers = 2;
    options.mode = RecoverabilityMode::kDpr;
    options.backend = StorageBackend::kNull;
    options.checkpoint_interval_us = 10000;  // frequent reports
    options.remote_finder = remote;
    DFasterCluster cluster(options);
    Status s = cluster.Start();
    DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());

    DriverOptions driver;
    driver.num_client_threads = config.client_threads;
    driver.duration_ms = config.duration_ms;
    driver.workload.num_keys = config.num_keys;
    driver.workload.read_fraction = config.read_fraction;
    driver.workload.rmw_fraction = config.rmw_fraction;
    const DriverResult result = RunYcsbDriver(&cluster, driver);
    json.AddDriverResult(remote ? "remote" : "local", remote ? 1 : 0, result);
    printf("\n[%s finder] %.3f Mops completed, %.3f Mops committed\n",
           remote ? "remote" : "local", result.Mops(),
           result.CommittedMops());
    result.tracking.Print(remote ? "remote" : "local");
    // Recovery goes through the same plane the workers report to (with
    // remote_finder, BeginRecovery/EndRecovery travel over the RPC client).
    s = cluster.InjectFailure({0});
    printf("  recovery    : inject worker-0 failure -> %s, world-line=%llu\n",
           s.ok() ? "recovered" : s.ToString().c_str(),
           static_cast<unsigned long long>(cluster.finder()->CurrentWorldLine()));
    cluster.Stop();
  }
  json.Finish();
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_tracking_plane (--duration_ms/--client_threads control load)\n");
  dpr::Run(flags);
  return 0;
}
