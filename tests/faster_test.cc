#include "faster/faster_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"

namespace dpr {
namespace {

std::unique_ptr<FasterStore> NewStore(uint64_t buckets = 1 << 12) {
  FasterOptions options;
  options.index_buckets = buckets;
  options.log_device = std::make_unique<MemoryDevice>();
  options.meta_device = std::make_unique<MemoryDevice>();
  return std::make_unique<FasterStore>(std::move(options));
}

Version Checkpoint(FasterStore* store) {
  Version token = kInvalidVersion;
  std::atomic<bool> durable{false};
  Status s = store->PerformCheckpoint(
      store->CurrentVersion() + 1,
      [&](Version) { durable.store(true); }, &token);
  EXPECT_TRUE(s.ok()) << s.ToString();
  store->WaitForCheckpoints();
  EXPECT_TRUE(durable.load());
  return token;
}

TEST(FasterStoreTest, UpsertReadRoundTrip) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(42, uint64_t{7}).ok());
  uint64_t value = 0;
  ASSERT_TRUE(session->Read(42, &value).ok());
  EXPECT_EQ(value, 7u);
  EXPECT_TRUE(session->Read(43, &value).IsNotFound());
}

TEST(FasterStoreTest, VariableLengthValues) {
  auto store = NewStore();
  auto session = store->NewSession();
  const std::string big(1000, 'x');
  ASSERT_TRUE(session->Upsert(1, big).ok());
  std::string value;
  ASSERT_TRUE(session->Read(1, &value).ok());
  EXPECT_EQ(value, big);
  // Overwrite with a different size (forces RCU).
  ASSERT_TRUE(session->Upsert(1, "short").ok());
  ASSERT_TRUE(session->Read(1, &value).ok());
  EXPECT_EQ(value, "short");
}

TEST(FasterStoreTest, RejectsOversizedValue) {
  auto store = NewStore();
  auto session = store->NewSession();
  const std::string huge(5000, 'x');
  EXPECT_EQ(session->Upsert(1, huge).code(),
            Status::Code::kInvalidArgument);
}

TEST(FasterStoreTest, DeleteHidesKey) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(5, uint64_t{1}).ok());
  ASSERT_TRUE(session->Delete(5).ok());
  uint64_t value;
  EXPECT_TRUE(session->Read(5, &value).IsNotFound());
  // Re-insert after delete.
  ASSERT_TRUE(session->Upsert(5, uint64_t{2}).ok());
  ASSERT_TRUE(session->Read(5, &value).ok());
  EXPECT_EQ(value, 2u);
}

TEST(FasterStoreTest, RmwInsertsAndAdds) {
  auto store = NewStore();
  auto session = store->NewSession();
  uint64_t result = 0;
  ASSERT_TRUE(session->Rmw(9, 5, &result).ok());
  EXPECT_EQ(result, 5u);
  ASSERT_TRUE(session->Rmw(9, 3, &result).ok());
  EXPECT_EQ(result, 8u);
}

TEST(FasterStoreTest, ManyKeysWithBucketCollisions) {
  // 16 buckets + 10k keys: every bucket chain carries many distinct keys.
  auto store = NewStore(/*buckets=*/16);
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_TRUE(session->Upsert(k, k * 3).ok());
  }
  for (uint64_t k = 0; k < 10000; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(session->Read(k, &v).ok());
    ASSERT_EQ(v, k * 3);
  }
}

TEST(FasterStoreTest, InPlaceUpdateInMutableRegion) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{10}).ok());
  const LogAddress tail_before = store->tail_address();
  ASSERT_TRUE(session->Upsert(1, uint64_t{20}).ok());
  // Same 8-byte value in the mutable region: no new record appended.
  EXPECT_EQ(store->tail_address(), tail_before);
  uint64_t v;
  ASSERT_TRUE(session->Read(1, &v).ok());
  EXPECT_EQ(v, 20u);
}

TEST(FasterStoreTest, CheckpointForcesRcuForOldRecords) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{10}).ok());
  Checkpoint(store.get());  // record is now below the read-only boundary
  const LogAddress tail_before = store->tail_address();
  ASSERT_TRUE(session->Upsert(1, uint64_t{20}).ok());
  EXPECT_GT(store->tail_address(), tail_before);  // fold-over forced RCU
  uint64_t v;
  ASSERT_TRUE(session->Read(1, &v).ok());
  EXPECT_EQ(v, 20u);
}

TEST(FasterStoreTest, ConcurrentUpsertsAndReads) {
  auto store = NewStore();
  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = store->NewSession();
      Random rng(t);
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = rng.Uniform(512);
        if (rng.Bernoulli(0.5)) {
          ASSERT_TRUE(session->Upsert(key, key * 2).ok());
        } else {
          uint64_t v;
          Status s = session->Read(key, &v);
          if (s.ok()) {
          ASSERT_EQ(v, key * 2);
        }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(FasterStoreTest, ConcurrentRmwIsLossless) {
  auto store = NewStore();
  constexpr int kThreads = 4;
  constexpr uint64_t kAddsPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto session = store->NewSession();
      for (uint64_t i = 0; i < kAddsPerThread; ++i) {
        ASSERT_TRUE(session->Rmw(7, 1).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  auto session = store->NewSession();
  uint64_t v = 0;
  ASSERT_TRUE(session->Read(7, &v).ok());
  EXPECT_EQ(v, kThreads * kAddsPerThread);
}

TEST(FasterStoreTest, CheckpointTokenAndVersionAdvance) {
  auto store = NewStore();
  EXPECT_EQ(store->CurrentVersion(), 1u);
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{1}).ok());
  const Version token = Checkpoint(store.get());
  EXPECT_EQ(token, 1u);
  EXPECT_EQ(store->CurrentVersion(), 2u);
  EXPECT_EQ(store->LargestDurableToken(), 1u);
}

TEST(FasterStoreTest, CheckpointTargetsArbitraryHigherVersion) {
  auto store = NewStore();
  Version token;
  ASSERT_TRUE(store->PerformCheckpoint(7, nullptr, &token).ok());
  EXPECT_EQ(token, 1u);
  EXPECT_EQ(store->CurrentVersion(), 7u);  // Vmax-style fast-forward
  store->WaitForCheckpoints();
}

TEST(FasterStoreTest, SecondCheckpointWhileFlushingIsBusy) {
  FasterOptions options;
  options.index_buckets = 1 << 10;
  // Slow device so the first flush is still running.
  options.log_device = std::make_unique<LatencyDevice>(
      std::make_unique<MemoryDevice>(), 50000, 0);
  options.meta_device = std::make_unique<MemoryDevice>();
  FasterStore store(std::move(options));
  auto session = store.NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{1}).ok());
  ASSERT_TRUE(store.PerformCheckpoint(2, nullptr, nullptr).ok());
  EXPECT_TRUE(store.PerformCheckpoint(3, nullptr, nullptr).IsBusy());
  store.WaitForCheckpoints();
}

TEST(FasterStoreTest, CrashRecoveryRestoresDurablePrefix) {
  auto store = NewStore();
  {
    auto session = store->NewSession();
    for (uint64_t k = 0; k < 1000; ++k) {
      ASSERT_TRUE(session->Upsert(k, k + 100).ok());
    }
  }
  const Version token = Checkpoint(store.get());
  {
    auto session = store->NewSession();
    for (uint64_t k = 0; k < 1000; ++k) {
      ASSERT_TRUE(session->Upsert(k, k + 999).ok());  // lost updates
    }
  }
  store->SimulateCrash();
  {
    auto session = store->NewSession();
    uint64_t v;
    EXPECT_TRUE(session->Read(1, &v).IsUnavailable());
  }
  Version restored;
  ASSERT_TRUE(store->RestoreCheckpoint(token, &restored).ok());
  EXPECT_EQ(restored, token);
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 1000; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(session->Read(k, &v).ok());
    ASSERT_EQ(v, k + 100) << "key " << k;
  }
  EXPECT_GT(store->CurrentVersion(), token);
}

TEST(FasterStoreTest, InMemoryRollbackDiscardsSuffixVersions) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{100}).ok());
  const Version token = Checkpoint(store.get());  // v1 durable
  ASSERT_TRUE(session->Upsert(1, uint64_t{200}).ok());  // v2, uncommitted
  ASSERT_TRUE(session->Upsert(2, uint64_t{300}).ok());  // v2, uncommitted
  Version restored;
  ASSERT_TRUE(store->RestoreCheckpoint(token, &restored).ok());
  EXPECT_EQ(restored, token);
  uint64_t v = 0;
  ASSERT_TRUE(session->Read(1, &v).ok());
  EXPECT_EQ(v, 100u);  // v2 update rolled back
  EXPECT_TRUE(session->Read(2, &v).IsNotFound());
  // Post-rollback writes land in a fresh version and stick.
  ASSERT_TRUE(session->Upsert(2, uint64_t{400}).ok());
  ASSERT_TRUE(session->Read(2, &v).ok());
  EXPECT_EQ(v, 400u);
}

TEST(FasterStoreTest, RollbackToMidTokenPicksLargestBelow) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{1}).ok());
  Checkpoint(store.get());  // token 1
  ASSERT_TRUE(session->Upsert(1, uint64_t{2}).ok());
  Checkpoint(store.get());  // token 2
  ASSERT_TRUE(session->Upsert(1, uint64_t{3}).ok());
  Checkpoint(store.get());  // token 3
  Version restored;
  // Approximate cuts may name non-token versions; restore rounds down.
  ASSERT_TRUE(store->RestoreCheckpoint(2, &restored).ok());
  EXPECT_EQ(restored, 2u);
  uint64_t v;
  ASSERT_TRUE(session->Read(1, &v).ok());
  EXPECT_EQ(v, 2u);
}

TEST(FasterStoreTest, RollbackThenCrashRecoveryAgrees) {
  // Regression test for durable invalid marks: records rolled back in
  // memory must not resurrect via a later crash recovery.
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{10}).ok());
  const Version t1 = Checkpoint(store.get());
  ASSERT_TRUE(session->Upsert(1, uint64_t{20}).ok());
  Checkpoint(store.get());  // t2 durable, then rolled back
  Version restored;
  ASSERT_TRUE(store->RestoreCheckpoint(t1, &restored).ok());
  ASSERT_EQ(restored, t1);
  ASSERT_TRUE(session->Upsert(2, uint64_t{30}).ok());
  Checkpoint(store.get());  // post-rollback durable state
  session.reset();
  store->SimulateCrash();
  ASSERT_TRUE(store->RestoreCheckpoint(~0ULL, &restored).ok());
  auto fresh = store->NewSession();
  uint64_t v = 0;
  ASSERT_TRUE(fresh->Read(1, &v).ok());
  EXPECT_EQ(v, 10u);  // the value from t2 must NOT come back
  ASSERT_TRUE(fresh->Read(2, &v).ok());
  EXPECT_EQ(v, 30u);
}

TEST(FasterStoreTest, NonBlockingRollbackWithConcurrentReaders) {
  auto store = NewStore();
  {
    auto session = store->NewSession();
    for (uint64_t k = 0; k < 256; ++k) {
      ASSERT_TRUE(session->Upsert(k, uint64_t{1}).ok());
    }
  }
  const Version token = Checkpoint(store.get());
  {
    auto session = store->NewSession();
    for (uint64_t k = 0; k < 256; ++k) {
      ASSERT_TRUE(session->Upsert(k, uint64_t{2}).ok());
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> saw_bad_value{false};
  std::thread reader([&] {
    auto session = store->NewSession();
    Random rng(3);
    while (!stop.load()) {
      uint64_t v = 0;
      Status s = session->Read(rng.Uniform(256), &v);
      // Readers must only ever see v=1 (committed) or v=2 (pre-rollback) —
      // never torn/invalid data — and after rollback completes, only v=1.
      if (s.ok() && v != 1 && v != 2) saw_bad_value.store(true);
      session->Refresh();
    }
  });
  Version restored;
  ASSERT_TRUE(store->RestoreCheckpoint(token, &restored).ok());
  stop.store(true);
  reader.join();
  EXPECT_FALSE(saw_bad_value.load());
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 256; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(session->Read(k, &v).ok());
    ASSERT_EQ(v, 1u);
  }
}

TEST(FasterStoreTest, RestoreToZeroEmptiesStore) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{1}).ok());
  Version restored;
  ASSERT_TRUE(store->RestoreCheckpoint(0, &restored).ok());
  EXPECT_EQ(restored, kInvalidVersion);
  uint64_t v;
  EXPECT_TRUE(session->Read(1, &v).IsNotFound());
}

TEST(FasterStoreTest, PageSpanningAllocations) {
  // Values near the page size force pad records and page transitions.
  FasterOptions options;
  options.index_buckets = 1 << 8;
  options.page_bits = 12;  // 4 KiB pages
  options.log_device = std::make_unique<MemoryDevice>();
  options.meta_device = std::make_unique<MemoryDevice>();
  FasterStore store(std::move(options));
  auto session = store.NewSession();
  const std::string big(1500, 'y');
  for (uint64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(session->Upsert(k, big).ok());
  }
  for (uint64_t k = 0; k < 64; ++k) {
    std::string v;
    ASSERT_TRUE(session->Read(k, &v).ok());
    ASSERT_EQ(v, big);
  }
  // And survive a crash-recovery cycle across page boundaries.
  Version token;
  ASSERT_TRUE(store.PerformCheckpoint(2, nullptr, &token).ok());
  store.WaitForCheckpoints();
  session.reset();
  store.SimulateCrash();
  Version restored;
  ASSERT_TRUE(store.RestoreCheckpoint(token, &restored).ok());
  auto fresh = store.NewSession();
  for (uint64_t k = 0; k < 64; ++k) {
    std::string v;
    ASSERT_TRUE(fresh->Read(k, &v).ok());
    ASSERT_EQ(v, big);
  }
}

// Prefetch hints run ahead of the ops of a batch (DFasterWorker::RunOps)
// and can meet a head the op itself would never follow. None may abort.
void PrefetchAll(FasterStore::Session* session, uint64_t keys) {
  for (uint64_t k = 0; k < keys; ++k) {
    session->PrefetchBucket(k);
    session->PrefetchHead(k);
  }
}

TEST(FasterStorePrefetchTest, EmptyIndex) {
  auto store = NewStore();
  auto session = store->NewSession();
  PrefetchAll(session.get(), 1000);
  uint64_t v = 0;
  EXPECT_TRUE(session->Read(7, &v).IsNotFound());
}

TEST(FasterStorePrefetchTest, CrashedStoreAndClearedLog) {
  // 16 buckets for 1000 keys: every head record hides a chain of others.
  auto store = NewStore(16);
  {
    auto session = store->NewSession();
    for (uint64_t k = 0; k < 1000; ++k) {
      ASSERT_TRUE(session->Upsert(k, k).ok());
    }
    PrefetchAll(session.get(), 1000);
  }
  const Version token = Checkpoint(store.get());
  store->SimulateCrash();  // the log is cleared before the index
  {
    auto session = store->NewSession();
    PrefetchAll(session.get(), 1000);
  }
  Version restored = kInvalidVersion;
  ASSERT_TRUE(store->RestoreCheckpoint(token, &restored).ok());
  auto session = store->NewSession();
  PrefetchAll(session.get(), 1000);
  uint64_t v = 0;
  ASSERT_TRUE(session->Read(999, &v).ok());
  EXPECT_EQ(v, 999u);
}

TEST(FasterStorePrefetchTest, HeadBelowBeginAfterCompaction) {
  // A deleted key's head is its tombstone, which compaction does not copy:
  // once FinishCompaction moves begin past it, the head points below begin
  // into a released page.
  FasterOptions options;
  options.index_buckets = 1 << 8;
  options.page_bits = 12;  // 4 KiB pages: compaction releases many
  options.log_device = std::make_unique<MemoryDevice>();
  options.meta_device = std::make_unique<MemoryDevice>();
  FasterStore store(std::move(options));
  auto session = store.NewSession();
  for (uint64_t round = 0; round < 20; ++round) {
    for (uint64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(session->Upsert(k, k + round).ok());
    }
    Checkpoint(&store);  // the next round copies instead of updating
  }
  for (uint64_t k = 0; k < 50; ++k) ASSERT_TRUE(session->Delete(k).ok());
  const Version safe = Checkpoint(&store);
  Version compaction_token = kInvalidVersion;
  ASSERT_TRUE(store.StartCompaction(safe, &compaction_token).ok());
  ASSERT_TRUE(
      store.FinishCompaction(compaction_token, compaction_token).ok());
  session->Refresh();  // lets the page release run
  EXPECT_GT(store.begin_address(), uint64_t{4} << 12);
  PrefetchAll(session.get(), 200);
  uint64_t v = 0;
  EXPECT_TRUE(session->Read(7, &v).IsNotFound());
  ASSERT_TRUE(session->Read(150, &v).ok());
  EXPECT_EQ(v, 169u);
}

}  // namespace
}  // namespace dpr
