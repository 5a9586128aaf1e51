// Unit tests for the HybridLog allocator, hash index, and record layout —
// the latch-free substrate under FasterStore.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "faster/hash_index.h"
#include "faster/log_allocator.h"
#include "faster/record.h"

namespace dpr {
namespace {

TEST(RecordHeaderTest, SizeIsAlignedAndIncludesValue) {
  EXPECT_EQ(RecordHeader::SizeWith(0), 24u);
  EXPECT_EQ(RecordHeader::SizeWith(1), 32u);
  EXPECT_EQ(RecordHeader::SizeWith(8), 32u);
  EXPECT_EQ(RecordHeader::SizeWith(9), 40u);
}

TEST(RecordHeaderTest, FlagsAreAtomicAndSticky) {
  RecordHeader rec;
  EXPECT_FALSE(rec.invalid());
  rec.SetFlag(RecordHeader::kTombstone);
  rec.SetFlag(RecordHeader::kInvalid);
  EXPECT_TRUE(rec.tombstone());
  EXPECT_TRUE(rec.invalid());
}

TEST(LogAllocatorTest, SequentialAllocationsAreContiguous) {
  LogAllocator log(/*page_bits=*/16);
  const LogAddress a = log.Allocate(32);
  const LogAddress b = log.Allocate(64);
  EXPECT_EQ(a, LogAllocator::kBeginAddress);
  EXPECT_EQ(b, a + 32);
  EXPECT_EQ(log.tail(), b + 64);
}

TEST(LogAllocatorTest, AllocationsAreZeroed) {
  LogAllocator log(/*page_bits=*/12);
  const LogAddress a = log.Allocate(256);
  const char* p = log.Resolve(a);
  for (int i = 0; i < 256; ++i) ASSERT_EQ(p[i], 0);
}

TEST(LogAllocatorTest, RecordsNeverSpanPages) {
  LogAllocator log(/*page_bits=*/12);  // 4 KiB pages
  const uint64_t page = 4096;
  for (int i = 0; i < 200; ++i) {
    const uint64_t size = 24 + 8 * (i % 100);
    const LogAddress a = log.Allocate(size);
    EXPECT_EQ(a >> 12, (a + size - 1) >> 12)
        << "allocation spans a page boundary";
    (void)page;
  }
}

TEST(LogAllocatorTest, ConcurrentAllocationsDisjoint) {
  LogAllocator log(/*page_bits=*/14);
  constexpr int kThreads = 4;
  constexpr int kAllocsPerThread = 5000;
  std::vector<std::vector<std::pair<LogAddress, uint64_t>>> ranges(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(t);
      for (int i = 0; i < kAllocsPerThread; ++i) {
        const uint64_t size = 24 + 8 * rng.Uniform(16);
        ranges[t].push_back({log.Allocate(size), size});
      }
    });
  }
  for (auto& t : threads) t.join();
  // No two allocations overlap.
  std::vector<std::pair<LogAddress, uint64_t>> all;
  for (auto& r : ranges) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  for (size_t i = 1; i < all.size(); ++i) {
    ASSERT_GE(all[i].first, all[i - 1].first + all[i - 1].second)
        << "overlapping allocations";
  }
}

TEST(LogAllocatorTest, RestoreToPositionsTail) {
  LogAllocator log(/*page_bits=*/12);
  log.Allocate(64);
  log.Clear();
  EXPECT_EQ(log.tail(), LogAllocator::kBeginAddress);
  log.RestoreTo(10000);
  EXPECT_EQ(log.tail(), 10000u);
  // Restored region is resolvable.
  EXPECT_NE(log.Resolve(9000), nullptr);
}

TEST(LogAllocatorTest, TryResolveReturnsNullForMissingPages) {
  constexpr uint32_t kPageBits = 12;
  constexpr uint64_t kPage = uint64_t{1} << kPageBits;
  LogAllocator log(kPageBits);
  EXPECT_EQ(log.TryResolve(LogAllocator::kBeginAddress), nullptr);
  const LogAddress first = log.Allocate(64);
  EXPECT_EQ(log.TryResolve(first), log.Resolve(first));
  EXPECT_EQ(log.TryResolve(uint64_t{1} << 40), nullptr);  // beyond the log
  while (log.tail() < 3 * kPage) log.Allocate(512);
  log.ReleasePagesBelow(2 * kPage);
  EXPECT_EQ(log.TryResolve(first), nullptr);
  EXPECT_NE(log.TryResolve(2 * kPage + 64), nullptr);
  log.Clear();
  EXPECT_EQ(log.TryResolve(2 * kPage + 64), nullptr);
}

TEST(HashIndexTest, RoundsBucketsToPowerOfTwo) {
  HashIndex index(1000);
  EXPECT_EQ(index.bucket_count(), 1024u);
  HashIndex tiny(1);
  EXPECT_EQ(tiny.bucket_count(), 16u);
}

TEST(HashIndexTest, HeadsStartNull) {
  HashIndex index(64);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(index.Head(k), kNullAddress);
  }
}

TEST(HashIndexTest, CasInstallsAndDetectsRaces) {
  HashIndex index(64);
  LogAddress expected = kNullAddress;
  EXPECT_TRUE(index.CasHead(7, &expected, 100, 1));
  EXPECT_EQ(index.Head(7), 100u);
  // Stale expected fails and reports the current head.
  expected = kNullAddress;
  EXPECT_FALSE(index.CasHead(7, &expected, 200, 1));
  EXPECT_EQ(expected, 100u);
  EXPECT_TRUE(index.CasHead(7, &expected, 200, 1));
  EXPECT_EQ(index.Head(7), 200u);
}

TEST(HashIndexTest, ConcurrentCasOneWinnerPerRound) {
  HashIndex index(16);
  constexpr int kThreads = 4;
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      LogAddress expected = kNullAddress;
      if (index.CasHead(42, &expected, 1000 + t, 1)) wins.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wins.load(), 1);
}

TEST(HashIndexTest, StampRisesBeforeCasAndNeverFalls) {
  // Writers install heads whose address encodes the record version (some
  // versions below what another writer already offered); a reader loading
  // head-then-stamp must always see stamp >= that head's version, and the
  // stamp must never fall.
  HashIndex index(16);
  constexpr uint64_t kKey = 5;
  const uint64_t bucket = index.BucketFor(kKey);
  constexpr int kWriters = 4;
  constexpr uint32_t kVersions = 20000;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};
  std::thread reader([&] {
    uint32_t last = 0;
    while (!done.load()) {
      const LogAddress head = index.HeadAt(bucket);
      const uint32_t stamp = index.StampAt(bucket);
      if (stamp < head >> 8 || stamp < last) violations.fetch_add(1);
      last = stamp;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (uint32_t v = 1; v <= kVersions; ++v) {
        // Writer t lags behind by t * 1000 versions, so its offers often
        // sit below the bucket's current stamp.
        const uint32_t version = v > t * 1000u ? v - t * 1000u : 1;
        LogAddress expected = index.Head(kKey);
        const LogAddress desired = (uint64_t{version} << 8) | t;
        while (!index.CasHead(kKey, &expected, desired, version)) {
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(index.StampAt(bucket), kVersions);
}

TEST(HashIndexTest, FailedCasStillRaisesStamp) {
  HashIndex index(64);
  LogAddress expected = kNullAddress;
  ASSERT_TRUE(index.CasHead(9, &expected, 100, 3));
  expected = kNullAddress;  // stale: the CAS fails
  EXPECT_FALSE(index.CasHead(9, &expected, 200, 7));
  // Overstating is safe (the image walks the chain); understating is not.
  EXPECT_EQ(index.StampAt(index.BucketFor(9)), 7u);
}

TEST(HashIndexTest, ClearAndSetHeadResetStamps) {
  HashIndex index(64);
  for (uint64_t k = 0; k < 100; ++k) {
    LogAddress expected = index.Head(k);
    ASSERT_TRUE(index.CasHead(k, &expected, 8 * (k + 1), 9));
  }
  index.SetHead(3, 800);
  EXPECT_EQ(index.StampAt(index.BucketFor(3)), 0u);
  EXPECT_EQ(index.Head(3), 800u);
  index.SetHeadAt(index.BucketFor(4), 900);
  EXPECT_EQ(index.StampAt(index.BucketFor(4)), 0u);
  index.Clear();
  for (uint64_t b = 0; b < index.bucket_count(); ++b) {
    EXPECT_EQ(index.StampAt(b), 0u);
    EXPECT_EQ(index.HeadAt(b), kNullAddress);
  }
}

}  // namespace
}  // namespace dpr
