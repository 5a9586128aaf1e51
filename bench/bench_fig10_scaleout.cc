// Figure 10: scaling out D-FASTER — throughput vs cluster size for the
// four storage configurations (no checkpoints, null, local SSD, cloud SSD),
// under uniform and Zipfian(0.99) YCSB-A 50:50.
//
// Expected shape (paper §7.2): throughput scales with workers; checkpointed
// configurations pay a ~20-40% tax vs no-checkpoints; slower storage costs a
// little more; Zipfian is faster than uniform (hot keys go in-place).
// --live_rescale instead runs the elastic-cluster experiment (DESIGN.md
// §4i): a fixed workload over 2 workers while a third joins mid-run and a
// third of the partitions live-migrate onto it. The timeline shows the
// dual-ownership dip and the post-rescale recovery; the JSON artifact
// carries the cluster.migration.* counters for the run.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "harness/stats.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

struct BackendConfig {
  std::string name;
  RecoverabilityMode mode;
  StorageBackend backend;
};

void Run(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "fig10_scaleout");
  flags.RejectUnknown();
  json.RecordConfig(config);
  std::vector<uint32_t> worker_counts =
      config.quick ? std::vector<uint32_t>{2, 4}
                   : std::vector<uint32_t>{2, 4, 6, 8};
  const std::vector<BackendConfig> backends = {
      {"no-chkpt", RecoverabilityMode::kNone, StorageBackend::kNull},
      {"null", RecoverabilityMode::kDpr, StorageBackend::kNull},
      {"local-ssd", RecoverabilityMode::kDpr, StorageBackend::kLocal},
      {"cloud-ssd", RecoverabilityMode::kDpr, StorageBackend::kCloud},
  };
  for (double theta : {0.0, 0.99}) {
    printf("\n=== Figure 10%s: scale-out, YCSB-A 50:50, %s ===\n",
           theta == 0.0 ? "a" : "b",
           theta == 0.0 ? "uniform" : "Zipfian(0.99)");
    ResultTable table({"workers", "config", "Mops", "committed-Mops"});
    for (uint32_t workers : worker_counts) {
      for (const auto& backend : backends) {
        ClusterOptions options;
        options.num_workers = workers;
        options.mode = backend.mode;
        options.backend = backend.backend;
        options.checkpoint_interval_us = 100000;  // paper: 100 ms
        DFasterCluster cluster(options);
        Status s = cluster.Start();
        DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());

        DriverOptions driver;
        driver.num_client_threads = config.client_threads;
        driver.duration_ms = config.duration_ms;
        driver.workload.num_keys = config.num_keys;
        driver.workload.read_fraction = config.read_fraction;
        driver.workload.rmw_fraction = config.rmw_fraction;
        driver.workload.zipf_theta = theta;
        driver.track_commits = backend.mode == RecoverabilityMode::kDpr;
        const DriverResult result = RunYcsbDriver(&cluster, driver);
        json.AddDriverResult(
            (theta == 0.0 ? "uniform." : "zipf.") + backend.name, workers,
            result);
        table.AddRow({std::to_string(workers), backend.name,
                      ResultTable::Fmt(result.Mops()),
                      backend.mode == RecoverabilityMode::kDpr
                          ? ResultTable::Fmt(result.CommittedMops())
                          : "n/a"});
      }
    }
    table.Print();
  }
  json.Finish();
}

/// --live_rescale: throughput timeline while the cluster grows under load.
void RunLiveRescale(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "fig10_scaleout");
  flags.RejectUnknown();
  json.RecordConfig(config);

  ClusterOptions options;
  options.num_workers = 2;
  options.mode = RecoverabilityMode::kDpr;
  options.backend = StorageBackend::kLocal;
  options.checkpoint_interval_us = 100000;
  DFasterCluster cluster(options);
  Status s = cluster.Start();
  DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());

  DriverOptions driver;
  driver.num_client_threads = config.client_threads;
  // The timeline needs room on both sides of the rescale.
  driver.duration_ms = std::max<uint64_t>(config.duration_ms, 3000);
  driver.workload.num_keys = config.num_keys;
  driver.workload.read_fraction = config.read_fraction;
  driver.workload.rmw_fraction = config.rmw_fraction;

  printf("\n=== Figure 10c: live rescale 2 -> 3 workers under load ===\n");
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  const double t_join = driver.duration_ms / 1000.0 * 0.35;
  // The rescale runs on its own thread so the timeline keeps sampling
  // through every dual-ownership window — the dip is the measurement.
  std::thread rescale;
  std::vector<std::pair<double, std::function<void()>>> events;
  events.emplace_back(t_join, [&cluster, &rescale] {
    rescale = std::thread([&cluster] {
      WorkerId joiner = kInvalidWorker;
      Status as = cluster.AddWorker(&joiner);
      DPR_CHECK_MSG(as.ok(), "%s", as.ToString().c_str());
      // Rebalance a third of the key space onto the joiner, one live move
      // at a time — clients keep writing through every dual-ownership
      // window and chase each flip via kNotOwner re-routes.
      uint32_t moved = 0;
      for (uint32_t vp = 0; vp < YcsbWorkload::kNumPartitions; vp += 3) {
        Status ms = cluster.MigratePartition(vp, joiner);
        DPR_CHECK_MSG(ms.ok(), "migrate vp %u: %s", vp,
                      ms.ToString().c_str());
        ++moved;
      }
      Status act = cluster.ActivateWorker(joiner);
      DPR_CHECK_MSG(act.ok(), "%s", act.ToString().c_str());
      printf("[live_rescale] worker %u joined; %u partitions migrated\n",
             joiner, moved);
    });
  });
  const auto samples = RunTimelineDriver(&cluster, driver, 100, events);
  if (rescale.joinable()) rescale.join();

  ResultTable table({"t(s)", "Mops", "committed-Mops"});
  for (const auto& sample : samples) {
    table.AddRow({ResultTable::Fmt(sample.t_seconds),
                  ResultTable::Fmt(sample.completed_mops),
                  ResultTable::Fmt(sample.committed_mops)});
  }
  table.Print();

  MetricsSnapshot delta = MetricsRegistry::Default().Snapshot();
  delta.SubtractCounters(before);
  printf("migration counters:\n");
  for (const auto& [name, value] : delta.counters) {
    if (name.rfind("cluster.migration.", 0) == 0) {
      printf("  %-40s %llu\n", name.c_str(),
             static_cast<unsigned long long>(value));
    }
  }
  json.AddTimeline(samples, "live_rescale");
  json.Finish();
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_fig10_scaleout (quick=%d; --quick=false for full sweep; "
         "--reads/--rmw change the mix; --live_rescale for the elastic "
         "grow-under-load timeline)\n",
         flags.GetBool("quick", true) ? 1 : 0);
  if (flags.GetBool("live_rescale", false)) {
    dpr::RunLiveRescale(flags);
  } else {
    dpr::Run(flags);
  }
  return 0;
}
