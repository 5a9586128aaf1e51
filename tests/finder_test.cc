#include "dpr/finder.h"

#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <tuple>

#include "common/clock.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

/// Memory device whose fsyncs can be held back: while held, each submitted
/// fsync parks until Release(), modelling a metadata WAL stuck in a slow
/// fsync. Passes everything straight through otherwise.
class FsyncGateDevice : public Device {
 public:
  void SubmitWrite(uint64_t offset, const void* data, size_t n,
                   IoCallback done) override {
    base_.SubmitWrite(offset, data, n, std::move(done));
  }
  void SubmitRead(uint64_t offset, void* buf, size_t n,
                  IoCallback done) override {
    base_.SubmitRead(offset, buf, n, std::move(done));
  }
  void SubmitFsync(IoCallback done) override {
    {
      MutexLock guard(mu_);
      if (holding_) {
        held_.push_back(std::move(done));
        cv_.NotifyAll();
        return;
      }
    }
    base_.SubmitFsync(std::move(done));
  }
  uint64_t Size() const override { return base_.Size(); }
  void SimulateCrash() override { base_.SimulateCrash(); }
  void Truncate(uint64_t new_size) override { base_.Truncate(new_size); }

  void Hold() {
    MutexLock guard(mu_);
    holding_ = true;
  }

  /// Waits (bounded) until an fsync is parked.
  bool WaitForHeld(std::chrono::milliseconds timeout) {
    MutexLock guard(mu_);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (held_.empty()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      cv_.WaitFor(mu_, deadline - now);
    }
    return true;
  }

  /// Stops holding and completes every parked fsync.
  void Release() {
    std::deque<IoCallback> held;
    {
      MutexLock guard(mu_);
      holding_ = false;
      held.swap(held_);
    }
    for (auto& done : held) base_.SubmitFsync(std::move(done));
  }

 private:
  MemoryDevice base_;
  Mutex mu_{LockRank::kStorage, "test.fsync_gate"};
  CondVar cv_;
  bool holding_ GUARDED_BY(mu_) = false;
  std::deque<IoCallback> held_ GUARDED_BY(mu_);
};

/// Polls SafeVersion until it reaches `want` or `timeout` passes.
bool WaitForSafeVersion(const DprFinder& finder, WorkerId worker,
                        Version want, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (finder.SafeVersion(worker) < want) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    SleepMicros(1000);
  }
  return true;
}

class FinderTest : public ::testing::TestWithParam<FinderKind> {
 protected:
  void SetUp() override {
    auto device = std::make_unique<FsyncGateDevice>();
    gate_ = device.get();
    metadata_ = std::make_unique<MetadataStore>(std::move(device));
    ASSERT_TRUE(metadata_->Recover().ok());
    finder_ = MakeDprFinder({.kind = GetParam(), .metadata = metadata_.get()});
  }

  Status Report(WorkerId w, Version v, DependencySet deps = {}) {
    return finder_->ReportPersistedVersion(finder_->CurrentWorldLine(),
                                           WorkerVersion{w, v}, deps);
  }

  DprCut Cut() {
    EXPECT_TRUE(finder_->ComputeCut().ok());
    DprCut cut;
    finder_->GetCut(nullptr, &cut);
    return cut;
  }

  FsyncGateDevice* gate_ = nullptr;  // owned by metadata_
  std::unique_ptr<MetadataStore> metadata_;
  std::unique_ptr<DprFinder> finder_;
};

TEST_P(FinderTest, EmptyClusterHasNoCut) {
  EXPECT_TRUE(Cut().empty());
}

TEST_P(FinderTest, SingleWorkerAdvances) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  EXPECT_EQ(CutVersion(Cut(), 0), 0u);
  ASSERT_TRUE(Report(0, 1).ok());
  EXPECT_EQ(CutVersion(Cut(), 0), 1u);
  ASSERT_TRUE(Report(0, 2).ok());
  EXPECT_EQ(CutVersion(Cut(), 0), 2u);
}

TEST_P(FinderTest, IndependentWorkersBoundedByApproximation) {
  // With no cross-worker dependencies, the exact algorithm lets each worker
  // commit at its own pace; the approximate algorithm holds everyone at
  // Vmin. Either way the cut must be valid and monotone.
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  ASSERT_TRUE(Report(0, 1).ok());
  ASSERT_TRUE(Report(0, 2).ok());
  ASSERT_TRUE(Report(0, 3).ok());
  ASSERT_TRUE(Report(1, 1).ok());
  const DprCut cut = Cut();
  if (GetParam() == FinderKind::kApprox) {
    EXPECT_EQ(CutVersion(cut, 0), 1u);
  } else {
    EXPECT_EQ(CutVersion(cut, 0), 3u);  // exact: no deps on worker 1
  }
  EXPECT_EQ(CutVersion(cut, 1), 1u);
}

TEST_P(FinderTest, DependencyBlocksUntilSupplierPersists) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  // Worker 0's version 1 depends on worker 1's version 1 (a session touched
  // worker 1 then worker 0), but worker 1 has not persisted v1 yet.
  ASSERT_TRUE(Report(0, 1, {{1, 1}}).ok());
  EXPECT_EQ(CutVersion(Cut(), 0), 0u);
  ASSERT_TRUE(Report(1, 1).ok());
  const DprCut cut = Cut();
  EXPECT_EQ(CutVersion(cut, 0), 1u);
  EXPECT_EQ(CutVersion(cut, 1), 1u);
}

TEST_P(FinderTest, TransitiveDependencyChain) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(2, 0).ok());
  // 0-1 depends on 1-1 which depends on 2-1.
  ASSERT_TRUE(Report(0, 1, {{1, 1}}).ok());
  ASSERT_TRUE(Report(1, 1, {{2, 1}}).ok());
  EXPECT_EQ(CutVersion(Cut(), 0), 0u);
  EXPECT_EQ(CutVersion(Cut(), 1), 0u);
  ASSERT_TRUE(Report(2, 1).ok());
  const DprCut cut = Cut();
  EXPECT_EQ(CutVersion(cut, 0), 1u);
  EXPECT_EQ(CutVersion(cut, 1), 1u);
  EXPECT_EQ(CutVersion(cut, 2), 1u);
}

TEST_P(FinderTest, CutNeverRegresses) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  ASSERT_TRUE(Report(0, 1).ok());
  ASSERT_TRUE(Report(1, 1).ok());
  DprCut first = Cut();
  ASSERT_TRUE(Report(0, 2).ok());
  DprCut second = Cut();
  for (const auto& [w, v] : first) {
    EXPECT_GE(CutVersion(second, w), v) << "worker " << w;
  }
}

TEST_P(FinderTest, MonotonicityInvariant) {
  // Property (§3.2): no version depends on a larger version number, so for
  // any reported set the cut computed must include every token whose full
  // dependency closure is persisted. We simulate the version clock: deps
  // always carry version numbers <= the reporting version.
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(2, 0).ok());
  for (Version v = 1; v <= 5; ++v) {
    for (WorkerId w = 0; w < 3; ++w) {
      DependencySet deps;
      if (v > 1) deps[(w + 1) % 3] = v - 1;
      ASSERT_TRUE(Report(w, v, deps).ok());
    }
  }
  const DprCut cut = Cut();
  for (WorkerId w = 0; w < 3; ++w) {
    EXPECT_EQ(CutVersion(cut, w), 5u);
  }
}

TEST_P(FinderTest, StaleWorldLineReportRejected) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  WorldLine wl;
  DprCut cut;
  ASSERT_TRUE(finder_->BeginRecovery(&wl, &cut).ok());
  ASSERT_TRUE(finder_->EndRecovery().ok());
  Status s = finder_->ReportPersistedVersion(wl - 1, WorkerVersion{0, 1}, {});
  EXPECT_TRUE(s.IsAborted());
}

TEST_P(FinderTest, RecoveryFreezesAndDiscardsAboveCut) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  ASSERT_TRUE(Report(0, 1).ok());
  ASSERT_TRUE(Report(1, 1).ok());
  const DprCut committed = Cut();
  // These reports arrive but are not yet in the cut when failure strikes.
  ASSERT_TRUE(Report(0, 2).ok());
  WorldLine new_wl;
  DprCut recovery;
  ASSERT_TRUE(finder_->BeginRecovery(&new_wl, &recovery).ok());
  EXPECT_EQ(recovery, committed);
  EXPECT_EQ(new_wl, kInitialWorldLine + 1);
  // Reports from the old world-line are rejected.
  ASSERT_TRUE(finder_
                  ->ReportPersistedVersion(new_wl - 1, WorkerVersion{0, 3},
                                           {})
                  .IsAborted());
  ASSERT_TRUE(finder_->EndRecovery().ok());
  // Post-recovery reports on the new world-line advance again.
  ASSERT_TRUE(finder_->ReportPersistedVersion(new_wl, WorkerVersion{0, 3},
                                              {}).ok());
  ASSERT_TRUE(finder_->ReportPersistedVersion(new_wl, WorkerVersion{1, 3},
                                              {}).ok());
  const DprCut cut = Cut();
  EXPECT_EQ(CutVersion(cut, 0), 3u);
  EXPECT_EQ(CutVersion(cut, 1), 3u);
}

TEST_P(FinderTest, MaxPersistedVersionTracksVmax) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  ASSERT_TRUE(Report(0, 4).ok());
  EXPECT_EQ(finder_->MaxPersistedVersion(), 4u);
  ASSERT_TRUE(Report(1, 9).ok());
  EXPECT_EQ(finder_->MaxPersistedVersion(), 9u);
}

TEST_P(FinderTest, SurvivesMetadataCrash) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(Report(0, 2).ok());
  DprCut before = Cut();
  metadata_->SimulateCrash();
  // A freshly-constructed finder over the recovered metadata must see the
  // same committed cut (fault tolerance through the durable store).
  std::unique_ptr<DprFinder> reborn =
      MakeDprFinder({.kind = GetParam(), .metadata = metadata_.get()});
  DprCut after;
  reborn->GetCut(nullptr, &after);
  EXPECT_EQ(after, before);
}

TEST_P(FinderTest, SafeVersionDoesNotWaitForCutFsync) {
  // ComputeCut holds the compute lock across the metadata WAL fsync that
  // makes a new cut durable. Workers read SafeVersion from the store's flush
  // thread, so that read must not queue behind the fsync.
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(Report(0, 1).ok());
  gate_->Hold();
  Status compute_status;
  std::thread compute([&] { compute_status = finder_->ComputeCut(); });
  const bool held = gate_->WaitForHeld(std::chrono::seconds(5));
  auto read = std::async(std::launch::async, [&] {
    const uint64_t start_us = NowMicros();
    const Version safe = finder_->SafeVersion(0);
    const Version published = finder_->PublishedSafeVersion(0);
    return std::make_tuple(safe, published, NowMicros() - start_us);
  });
  const bool returned =
      read.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
  gate_->Release();
  compute.join();
  ASSERT_TRUE(held) << "ComputeCut never reached the metadata fsync";
  EXPECT_TRUE(returned) << "SafeVersion blocked behind the cut fsync";
  const auto [safe, published, elapsed_us] = read.get();
  EXPECT_LT(elapsed_us, 50'000u);
  // The cut in flight is not durable yet, so nobody may see it.
  EXPECT_EQ(safe, 0u);
  EXPECT_EQ(published, 0u);
  ASSERT_TRUE(compute_status.ok()) << compute_status.ToString();
  EXPECT_EQ(finder_->SafeVersion(0), 1u);
  EXPECT_EQ(finder_->PublishedSafeVersion(0), 1u);
}

TEST_P(FinderTest, ReportWakesCoordinator) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(Report(0, 1).ok());
  // A 10 s interval: only a wake can advance the cut within the bounds below.
  finder_->StartCoordinator(10'000'000);
  // The first round runs at start and covers v1; the coordinator then sleeps.
  const bool first = WaitForSafeVersion(*finder_, 0, 1,
                                        std::chrono::seconds(1));
  ASSERT_TRUE(Report(0, 2).ok());
  const bool woke = WaitForSafeVersion(*finder_, 0, 2,
                                       std::chrono::seconds(1));
  const uint64_t stop_start_us = NowMicros();
  finder_->StopCoordinator();
  const uint64_t stop_us = NowMicros() - stop_start_us;
  EXPECT_TRUE(first);
  EXPECT_TRUE(woke) << "the report did not wake the coordinator";
  EXPECT_LT(stop_us, 1'000'000u) << "StopCoordinator slept out the interval";
}

INSTANTIATE_TEST_SUITE_P(AllFinders, FinderTest,
                         ::testing::Values(FinderKind::kApprox,
                                           FinderKind::kExact,
                                           FinderKind::kHybrid),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case FinderKind::kApprox:
                               return "Approx";
                             case FinderKind::kExact:
                               return "Exact";
                             case FinderKind::kHybrid:
                               return "Hybrid";
                           }
                           return "Unknown";
                         });

// --- algorithm-specific behaviour ---

TEST(GraphFinderTest, CoordinatorCrashReloadsDurableGraph) {
  MetadataStore metadata(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(metadata.Recover().ok());
  auto finder =
      MakeDprFinder({.kind = FinderKind::kExact, .metadata = &metadata});
  ASSERT_TRUE(finder->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder->AddWorker(1, 0).ok());
  ASSERT_TRUE(finder->ReportPersistedVersion(1, WorkerVersion{0, 1},
                                             {{1, 1}}).ok());
  finder->SimulateCoordinatorCrash();  // reloads from durable graph rows
  ASSERT_TRUE(
      finder->ReportPersistedVersion(1, WorkerVersion{1, 1}, {}).ok());
  ASSERT_TRUE(finder->ComputeCut().ok());
  DprCut cut;
  finder->GetCut(nullptr, &cut);
  EXPECT_EQ(CutVersion(cut, 0), 1u);  // dependency info survived the crash
}

TEST(HybridFinderTest, ApproximateFallbackUnsticksLostSubgraph) {
  MetadataStore metadata(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(metadata.Recover().ok());
  auto finder =
      MakeDprFinder({.kind = FinderKind::kHybrid, .metadata = &metadata});
  ASSERT_TRUE(finder->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder->AddWorker(1, 0).ok());
  ASSERT_TRUE(
      finder->ReportPersistedVersion(1, WorkerVersion{0, 2}, {}).ok());
  finder->SimulateCoordinatorCrash();  // in-memory graph lost, rows survive
  // Exact computation is now blind to worker 0's v1..v2 dependency info and
  // cannot advance it; once worker 1 catches up, Vmin unsticks the cut.
  ASSERT_TRUE(finder->ComputeCut().ok());
  DprCut cut;
  finder->GetCut(nullptr, &cut);
  EXPECT_EQ(CutVersion(cut, 0), 0u);
  ASSERT_TRUE(
      finder->ReportPersistedVersion(1, WorkerVersion{1, 2}, {}).ok());
  ASSERT_TRUE(finder->ComputeCut().ok());
  finder->GetCut(nullptr, &cut);
  EXPECT_EQ(CutVersion(cut, 0), 2u);  // Vmin-based fallback advanced it
  EXPECT_EQ(CutVersion(cut, 1), 2u);
}

TEST(SimpleFinderTest, UncoordinatedCommitsNeverFormCutWithoutClock) {
  // Fig. 3: staggered checkpoints with ever-growing dependencies never form
  // a cut. The approximate finder models this as Vmin staying at the slower
  // worker's version — the cut tracks the laggard, never the leader.
  MetadataStore metadata(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(metadata.Recover().ok());
  auto finder =
      MakeDprFinder({.kind = FinderKind::kApprox, .metadata = &metadata});
  ASSERT_TRUE(finder->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder->AddWorker(1, 0).ok());
  for (Version v = 1; v <= 10; ++v) {
    ASSERT_TRUE(finder->ReportPersistedVersion(1, WorkerVersion{0, v},
                                               {}).ok());
  }
  ASSERT_TRUE(finder->ComputeCut().ok());
  DprCut cut;
  finder->GetCut(nullptr, &cut);
  EXPECT_EQ(CutVersion(cut, 0), 0u);  // pinned by worker 1's silence
  EXPECT_EQ(CutVersion(cut, 1), 0u);
}

TEST(SimpleFinderTest, RecordsReportToCutLatency) {
  // The approximate finder keeps no per-report state, but the report→cut
  // stage must still be measured.
  MetadataStore metadata(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(metadata.Recover().ok());
  auto finder =
      MakeDprFinder({.kind = FinderKind::kApprox, .metadata = &metadata});
  auto samples = [] {
    const MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
    auto it = snap.histograms.find("dpr.finder.report_to_cut_us");
    return it == snap.histograms.end() ? uint64_t{0} : it->second.count();
  };
  const uint64_t before = samples();
  ASSERT_TRUE(finder->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder->ReportPersistedVersion(1, WorkerVersion{0, 1}, {}).ok());
  ASSERT_TRUE(finder->ComputeCut().ok());
  EXPECT_EQ(finder->SafeVersion(0), 1u);
  EXPECT_EQ(samples(), before + 1);
}

}  // namespace
}  // namespace dpr
