// Ablation (paper §3.3-3.4): exact vs approximate vs hybrid DPR finders.
// Measures, per algorithm and cluster size: (a) protocol cost — wall time of
// a report+cut round and metadata bytes durably written; (b) precision —
// how far the computed cut trails the persisted frontier when workers
// progress at uneven paces (the approximate algorithm's false dependencies).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/logging.h"
#include "dpr/finder.h"
#include "harness/stats.h"

namespace dpr {
namespace {

std::unique_ptr<DprFinder> Make(const std::string& kind,
                                MetadataStore* metadata) {
  FinderOptions options;
  options.metadata = metadata;
  if (kind == "exact") {
    options.kind = FinderKind::kExact;
  } else if (kind == "approx") {
    options.kind = FinderKind::kApprox;
  } else {
    options.kind = FinderKind::kHybrid;
  }
  return MakeDprFinder(options);
}

void Run(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "ablation_finder");
  flags.RejectUnknown();
  json.RecordConfig(config);
  const std::vector<uint32_t> cluster_sizes =
      config.quick ? std::vector<uint32_t>{8, 32}
                   : std::vector<uint32_t>{8, 32, 128, 512};
  const int rounds = config.quick ? 200 : 2000;

  printf("\n=== Ablation: DPR finder algorithms ===\n");
  ResultTable table({"workers", "finder", "us/round", "metadata-KB",
                     "cut-lag(max)", "cut-lag(uneven)"});
  for (uint32_t workers : cluster_sizes) {
    for (const std::string kind : {"exact", "approx", "hybrid"}) {
      MetadataStore metadata(std::make_unique<MemoryDevice>());
      DPR_CHECK(metadata.Recover().ok());
      auto finder = Make(kind, &metadata);
      for (uint32_t w = 0; w < workers; ++w) {
        DPR_CHECK(finder->AddWorker(w, 0).ok());
      }
      // (a) protocol cost: every worker reports a version with a chain
      // dependency, then one cut round runs.
      const Stopwatch timer;
      Version version = 1;
      for (int r = 0; r < rounds; ++r) {
        for (uint32_t w = 0; w < workers; ++w) {
          DependencySet deps;
          if (version > 1) deps[(w + 1) % workers] = version - 1;
          DPR_CHECK(finder
                        ->ReportPersistedVersion(
                            finder->CurrentWorldLine(),
                            WorkerVersion{w, version}, deps)
                        .ok());
        }
        DPR_CHECK(finder->ComputeCut().ok());
        ++version;
      }
      const double us_per_round =
          static_cast<double>(timer.ElapsedMicros()) / rounds;
      const double metadata_kb = metadata.WalBytes() / 1024.0;
      // Everyone reported `version-1`; a precise finder commits it all.
      DprCut cut;
      finder->GetCut(nullptr, &cut);
      Version min_cut = ~0ULL;
      for (const auto& [w, v] : cut) min_cut = std::min(min_cut, v);
      const uint64_t lag_even = (version - 1) - min_cut;

      // (b) precision under uneven progress: worker 0 stops reporting while
      // the others advance 10 more versions (no cross dependencies).
      for (Version extra = version; extra < version + 10; ++extra) {
        for (uint32_t w = 1; w < workers; ++w) {
          DPR_CHECK(finder
                        ->ReportPersistedVersion(finder->CurrentWorldLine(),
                                                 WorkerVersion{w, extra}, {})
                        .ok());
        }
      }
      DPR_CHECK(finder->ComputeCut().ok());
      finder->GetCut(nullptr, &cut);
      // Lag of worker 1 (a fast worker) behind its own persisted frontier:
      // exact commits it immediately; approximate pins it at worker 0's pace
      // (the false dependency of §3.4).
      const uint64_t lag_uneven = (version + 9) - CutVersion(cut, 1);
      if (json.enabled()) {
        json.artifact().AddPoint(kind + ".us_per_round", workers,
                                 us_per_round);
        json.artifact().AddPoint(kind + ".metadata_kb", workers, metadata_kb);
        json.artifact().AddPoint(kind + ".cut_lag_uneven", workers,
                                 static_cast<double>(lag_uneven));
      }
      table.AddRow({std::to_string(workers), kind,
                    ResultTable::Fmt(us_per_round, 1),
                    ResultTable::Fmt(metadata_kb, 0),
                    std::to_string(lag_even), std::to_string(lag_uneven)});
    }
  }
  table.Print();
  json.Finish();
  printf("(cut-lag in versions; uneven-lag shows the approximate finder's "
         "false dependency on the slowest worker)\n");
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_ablation_finder (quick=%d)\n", flags.GetBool("quick", true));
  dpr::Run(flags);
  return 0;
}
