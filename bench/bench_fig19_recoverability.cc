// Figure 19: throughput impact of recoverability guarantees — {none,
// eventual, DPR, synchronous} across three systems: a Cassandra-like
// commit-log store, D-Redis, and D-FASTER. N/A combinations mirror the
// paper (Cassandra supports only eventual/sync; D-FASTER has no sync mode).
//
// Expected shape: within every system, DPR ~= eventual >> synchronous;
// "none" is the ceiling. Absolute numbers differ per system by design.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "baseline/commitlog_store.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/clock.h"
#include "harness/stats.h"

namespace dpr {
namespace {

// ---------------------------------------------------- Cassandra-like driver

double RunCommitLogStore(CommitLogSync sync, const BenchConfig& config) {
  // One store per "shard", clients call in directly (the recoverability
  // knob, not the network, is under test).
  std::vector<std::unique_ptr<CommitLogStore>> shards;
  for (int i = 0; i < 2; ++i) {
    CommitLogStoreOptions options;
    options.sync = sync;
    shards.push_back(std::make_unique<CommitLogStore>(std::move(options)));
  }
  std::atomic<bool> stop{false};
  std::vector<std::atomic<uint64_t>> completed(config.client_threads);
  std::vector<std::thread> threads;
  const Stopwatch timer;
  for (uint32_t t = 0; t < config.client_threads; ++t) {
    threads.emplace_back([&, t] {
      YcsbOptions wl;
      wl.num_keys = config.num_keys;
      wl.seed = 7 + t;
      YcsbWorkload workload(wl);
      std::string value;
      while (!stop.load(std::memory_order_relaxed)) {
        const YcsbOp op = workload.Next();
        char key[8];
        memcpy(key, &op.key, 8);
        CommitLogStore* shard =
            shards[YcsbWorkload::ShardOf(op.key, 2)].get();
        if (op.type == YcsbOp::Type::kRead) {
          (void)shard->Get(Slice(key, 8), &value);
        } else {
          char val[8];
          memcpy(val, &op.value, 8);
          (void)shard->Put(Slice(key, 8), Slice(val, 8));
        }
        completed[t].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  SleepMicros(config.duration_ms * 1000);
  stop.store(true);
  for (auto& t : threads) t.join();
  uint64_t total = 0;
  for (auto& c : completed) total += c.load();
  return total / timer.ElapsedSeconds() / 1e6;
}

// ------------------------------------------------------------ D-Redis modes

double RunDRedisMode(const std::string& mode, const BenchConfig& config) {
  RedisClusterOptions options;
  options.num_shards = 2;
  options.checkpoint_interval_us = 100000;
  if (mode == "dpr") {
    options.deployment = RedisDeployment::kDpr;
  } else {
    // Non-DPR modes run behind the pass-through proxy so that only the
    // recoverability level differs from the D-Redis configuration.
    options.deployment = RedisDeployment::kPassThrough;
    options.aof_sync = (mode == "sync");
  }
  DRedisCluster cluster(options);
  Status s = cluster.Start();
  DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());

  // "eventual": periodic background BGSAVE on the unmodified stores,
  // mirroring Redis's default RDB persistence.
  std::atomic<bool> stop_saver{false};
  std::thread saver;
  if (mode == "eventual") {
    saver = std::thread([&] {
      uint64_t token = 1;
      while (!stop_saver.load(std::memory_order_relaxed)) {
        SleepMicros(100000);
        for (int i = 0; i < 2; ++i) {
          RespCommand cmd;
          cmd.op = RespOp::kBgSave;
          cmd.value.assign(reinterpret_cast<const char*>(&token), 8);
          cluster.store(i)->Execute(cmd);
        }
        ++token;
      }
    });
  }

  DriverOptions driver;
  driver.num_client_threads = config.client_threads;
  driver.duration_ms = config.duration_ms;
  driver.workload.num_keys = config.num_keys;
  driver.batch_size = 64;
  driver.window = 1024;
  const RedisDriverResult result = RunRedisDriver(&cluster, driver);
  stop_saver.store(true);
  if (saver.joinable()) saver.join();
  return result.Mops();
}

// ----------------------------------------------------------- D-FASTER modes

double RunDFasterMode(RecoverabilityMode mode, const BenchConfig& config) {
  ClusterOptions options;
  options.num_workers = 2;
  options.mode = mode;
  options.backend = StorageBackend::kLocal;
  options.checkpoint_interval_us = 100000;
  DFasterCluster cluster(options);
  Status s = cluster.Start();
  DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  DriverOptions driver;
  driver.num_client_threads = config.client_threads;
  driver.duration_ms = config.duration_ms;
  driver.workload.num_keys = config.num_keys;
  driver.track_commits = mode == RecoverabilityMode::kDpr;
  const DriverResult result = RunYcsbDriver(&cluster, driver);
  return result.Mops();
}

void Run(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "fig19_recoverability");
  flags.RejectUnknown();
  json.RecordConfig(config);
  printf("\n=== Figure 19: throughput vs recoverability guarantee ===\n");
  ResultTable table({"system", "none", "eventual", "dpr", "sync"});

  // Guarantee levels index the x axis: none=0, eventual=1, dpr=2, sync=3.
  const auto point = [&json](const std::string& system, double x,
                             const char* mode, double mops) {
    if (json.enabled()) json.artifact().AddPoint(system, x, mops, mode);
    return ResultTable::Fmt(mops);
  };

  table.AddRow({"cassandra-like", "n/a",
                point("cassandra-like", 1, "eventual",
                      RunCommitLogStore(CommitLogSync::kPeriodic, config)),
                "n/a",
                point("cassandra-like", 3, "sync",
                      RunCommitLogStore(CommitLogSync::kGroup, config))});

  table.AddRow(
      {"d-redis",
       point("d-redis", 0, "none", RunDRedisMode("none", config)),
       point("d-redis", 1, "eventual", RunDRedisMode("eventual", config)),
       point("d-redis", 2, "dpr", RunDRedisMode("dpr", config)),
       point("d-redis", 3, "sync", RunDRedisMode("sync", config))});

  table.AddRow(
      {"d-faster",
       point("d-faster", 0, "none",
             RunDFasterMode(RecoverabilityMode::kNone, config)),
       point("d-faster", 1, "eventual",
             RunDFasterMode(RecoverabilityMode::kEventual, config)),
       point("d-faster", 2, "dpr",
             RunDFasterMode(RecoverabilityMode::kDpr, config)),
       "n/a"});
  table.Print();
  json.Finish();
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_fig19_recoverability (quick=%d)\n",
         flags.GetBool("quick", true));
  dpr::Run(flags);
  return 0;
}
