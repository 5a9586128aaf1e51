// Chaos soak: many seeded fault schedules, each much longer than the
// tier-1 quick runs, with the full checker suite on. Not a throughput
// benchmark — the metric is "seeds survived"; any violation prints the
// seed needed to replay it (./build/tests/chaos_test stays green on the
// quick range, this binary sweeps deeper).
//
//   ./build/bench/bench_chaos                     # quick: 50 seeds x 1000 steps
//   ./build/bench/bench_chaos --quick=false       # soak: 500 seeds x 3000 steps
//   ./build/bench/bench_chaos --seed=1337 --seeds=1 --steps=5000  # one deep run
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/clock.h"
#include "harness/chaos.h"
#include "harness/stats.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

/// On a violation the registry snapshot goes to disk next to the replay
/// seed: CHAOS_METRICS_<seed>.json captures what the tracking plane looked
/// like when the invariant broke (staged depths, cut age, retry counts).
void DumpMetricsForSeed(uint64_t seed) {
  const std::string path =
      "CHAOS_METRICS_" + std::to_string(seed) + ".json";
  const std::string json = MetricsRegistry::Default().Snapshot().ToJson();
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "could not write %s\n", path.c_str());
    return;
  }
  fwrite(json.data(), 1, json.size(), f);
  fputc('\n', f);
  fclose(f);
  fprintf(stderr, "metrics snapshot for seed %llu: %s\n",
          static_cast<unsigned long long>(seed), path.c_str());
}

int Run(const Flags& flags) {
  const bool quick = flags.GetBool("quick", true);
  BenchJsonOutput json(flags, "chaos");
  const uint64_t first_seed =
      static_cast<uint64_t>(flags.GetInt("seed", 1000));
  const uint64_t num_seeds = static_cast<uint64_t>(
      flags.GetInt("seeds", quick ? 50 : 500));
  const uint32_t steps = static_cast<uint32_t>(
      flags.GetInt("steps", quick ? 1000 : 3000));
  flags.RejectUnknown();

  printf("\n=== Chaos soak: %llu seeds x %u steps ===\n",
         static_cast<unsigned long long>(num_seeds), steps);
  ResultTable table({"seeds", "ops", "commits", "recoveries", "violations",
                     "sec"});
  const Stopwatch timer;
  uint64_t ops = 0;
  uint64_t commits = 0;
  uint64_t recoveries = 0;
  uint64_t violations = 0;
  for (uint64_t seed = first_seed; seed < first_seed + num_seeds; ++seed) {
    ChaosOptions options;
    options.seed = seed;
    options.steps = steps;
    ChaosReport report;
    const Status s = RunChaos(options, &report);
    ops += report.ops;
    commits += report.commits;
    recoveries += report.recoveries;
    if (json.enabled()) {
      json.artifact().AddPoint("ops", seed, static_cast<double>(report.ops));
      json.artifact().AddPoint("commits", seed,
                               static_cast<double>(report.commits));
      json.artifact().AddPoint("recoveries", seed,
                               static_cast<double>(report.recoveries));
    }
    if (!s.ok() || !report.violation.empty()) {
      ++violations;
      fprintf(stderr, "VIOLATION: %s\n", report.violation.c_str());
      DumpMetricsForSeed(seed);
      if (json.enabled()) {
        json.artifact().AddPoint("violations", seed, 1, report.violation);
      }
    }
  }
  table.AddRow({std::to_string(num_seeds), std::to_string(ops),
                std::to_string(commits), std::to_string(recoveries),
                std::to_string(violations),
                ResultTable::Fmt(timer.ElapsedMicros() / 1e6, 1)});
  table.Print();
  if (json.enabled()) {
    json.artifact().SetConfig("first_seed", first_seed);
    json.artifact().SetConfig("seeds", num_seeds);
    json.artifact().SetConfig("steps", static_cast<uint64_t>(steps));
    json.artifact().AddCounter("chaos.violations", violations);
  }
  json.Finish();
  if (violations > 0) {
    printf("FAILED: %llu violating seed(s); replay with "
           "--seed=<printed seed> --seeds=1\n",
           static_cast<unsigned long long>(violations));
    return 1;
  }
  printf("all %llu schedules survived the checkers\n",
         static_cast<unsigned long long>(num_seeds));
  return 0;
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_chaos (quick=%d)\n", flags.GetBool("quick", true));
  return dpr::Run(flags);
}
