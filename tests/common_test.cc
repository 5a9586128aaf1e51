#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/flags.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/latch.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"

namespace dpr {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kIOError);
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, PredicatesMatchCodes) {
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::NotOwner().IsNotOwner());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
  EXPECT_FALSE(Status::OK().IsNotFound());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto inner = []() { return Status::Corruption("bad"); };
  auto outer = [&]() -> Status {
    DPR_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), Status::Code::kCorruption);
}

TEST(StatusTest, NodiscardRejectsSilentDrop) {
  // Status and StatusOr are [[nodiscard]]; the sanctioned discard spelling
  // is an explicit (void) cast, which is what this test exercises.
  auto make = []() { return Status::IOError("disk"); };
  (void)make();
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_TRUE(ok.status().ok());

  StatusOr<int> err(Status::NotFound("missing"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), Status::Code::kNotFound);
  EXPECT_EQ(err.status().message(), "missing");
}

TEST(StatusOrTest, OkStatusDegradesToNotFound) {
  // A StatusOr built from Status must never claim to hold a value.
  StatusOr<int> weird{Status::OK()};
  EXPECT_FALSE(weird.ok());
  EXPECT_EQ(weird.status().code(), Status::Code::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValues) {
  StatusOr<std::unique_ptr<int>> holder(std::make_unique<int>(7));
  ASSERT_TRUE(holder.ok());
  std::unique_ptr<int> out = std::move(holder).value();
  EXPECT_EQ(*out, 7);
}

TEST(StatusOrTest, WorksWithReturnNotOkMacro) {
  auto fetch = [](bool good) -> StatusOr<int> {
    if (!good) return Status::IOError("nope");
    return 5;
  };
  auto use = [&](bool good) -> Status {
    StatusOr<int> got = fetch(good);
    DPR_RETURN_NOT_OK(got.status());
    EXPECT_EQ(got.value(), 5);
    return Status::OK();
  };
  EXPECT_TRUE(use(true).ok());
  EXPECT_EQ(use(false).code(), Status::Code::kIOError);
}

TEST(SliceTest, CompareAndEquality) {
  EXPECT_EQ(Slice("abc"), Slice("abc"));
  EXPECT_NE(Slice("abc"), Slice("abd"));
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice().empty());
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  PutLengthPrefixed(&buf, "payload");
  Decoder dec(buf);
  uint32_t a;
  uint64_t b;
  Slice c;
  ASSERT_TRUE(dec.GetFixed32(&a));
  ASSERT_TRUE(dec.GetFixed64(&b));
  ASSERT_TRUE(dec.GetLengthPrefixed(&c));
  EXPECT_EQ(a, 0xdeadbeef);
  EXPECT_EQ(b, 0x0123456789abcdefULL);
  EXPECT_EQ(c, Slice("payload"));
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(CodingTest, DecoderRejectsUnderflow) {
  std::string buf;
  PutFixed32(&buf, 7);
  Decoder dec(buf);
  uint64_t v;
  EXPECT_FALSE(dec.GetFixed64(&v));
  Decoder dec2(buf);
  Slice s;
  EXPECT_FALSE(dec2.GetLengthPrefixed(&s));  // claims 7 bytes, has 0
}

TEST(HashTest, Crc32cKnownVector) {
  // CRC32C("123456789") = 0xe3069283 (iSCSI test vector).
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
  EXPECT_EQ(Crc32cSoftware("123456789", 9), 0xe3069283u);
}

TEST(HashTest, Crc32cChainsAcrossCalls) {
  const std::string data = "123456789";
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32c(data.data(), split);
    EXPECT_EQ(Crc32c(data.data() + split, data.size() - split, head),
              0xe3069283u)
        << "split at " << split;
    EXPECT_EQ(Crc32cSoftware(data.data() + split, data.size() - split,
                             Crc32cSoftware(data.data(), split)),
              0xe3069283u);
  }
  EXPECT_EQ(Crc32c(nullptr, 0, 0x1234u), 0x1234u);
}

TEST(HashTest, Crc32cMatchesTableLoopAtEveryAlignment) {
  // Crc32c may run the SSE4.2 path, which steps 8 bytes at a time after
  // aligning the pointer; it must agree with the byte loop everywhere.
  constexpr size_t kMaxLen = 4096;
  constexpr size_t kAlign = 8;
  Random rng(17);
  std::vector<unsigned char> buf(kMaxLen + kAlign);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (size_t offset = 0; offset < kAlign; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const unsigned char* p = buf.data() + offset;
      const uint32_t seed = static_cast<uint32_t>(len * 2654435761u);
      ASSERT_EQ(Crc32c(p, len, seed), Crc32cSoftware(p, len, seed))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(HashTest, Crc32cDetectsCorruption) {
  std::string data = "The quick brown fox";
  const uint32_t crc = Crc32c(data.data(), data.size());
  data[3] ^= 1;
  EXPECT_NE(Crc32c(data.data(), data.size()), crc);
}

TEST(HashTest, HashBytesSpreads) {
  std::map<uint64_t, int> buckets;
  for (uint64_t i = 0; i < 10000; ++i) {
    buckets[HashBytes(&i, 8) % 16]++;
  }
  for (const auto& [b, count] : buckets) {
    EXPECT_GT(count, 400) << "bucket " << b;
    EXPECT_LT(count, 900) << "bucket " << b;
  }
}

TEST(RandomTest, DeterministicFromSeed) {
  Random a(7);
  Random b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(17), 17u);
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

class ZipfianTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfianTest, SamplesInRangeAndSkewed) {
  const double theta = GetParam();
  const uint64_t n = 1000;
  ZipfianGenerator gen(n, theta, 99, /*scramble=*/false);
  std::vector<uint64_t> counts(n, 0);
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) {
    const uint64_t k = gen.Next();
    ASSERT_LT(k, n);
    counts[k]++;
  }
  // Rank-0 frequency should approximate 1/zeta(n, theta); check the shape:
  // rank 0 strictly dominates rank 99, and the head dominates the tail.
  EXPECT_GT(counts[0], counts[99]);
  uint64_t head = 0;
  uint64_t tail = 0;
  for (uint64_t i = 0; i < 10; ++i) head += counts[i];
  for (uint64_t i = n - 10; i < n; ++i) tail += counts[i];
  EXPECT_GT(head, tail * 2);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfianTest,
                         ::testing::Values(0.5, 0.9, 0.99));

TEST(ZipfianTest, ScrambleSpreadsHotKeys) {
  ZipfianGenerator gen(1 << 20, 0.99, 7, /*scramble=*/true);
  // With scrambling, the most frequent key should not be key 0.
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[gen.Next()]++;
  uint64_t hottest = 0;
  int best = 0;
  for (const auto& [k, c] : counts) {
    if (c > best) {
      best = c;
      hottest = k;
    }
  }
  EXPECT_NE(hottest, 0u);
  EXPECT_GT(best, 500);  // still heavily skewed
}

TEST(HistogramTest, PercentilesAndMerge) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.Mean(), 500.5, 0.01);
  // Log-bucketed: allow ~7% relative error at p50.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 500, 40);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 990, 70);

  Histogram other;
  other.Record(5000);
  h.Merge(other);
  EXPECT_EQ(h.count(), 1001u);
  EXPECT_EQ(h.max(), 5000u);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
  EXPECT_EQ(h.min(), 0u);
}

TEST(FlagsTest, ParsesKeyValueAndBools) {
  const char* argv[] = {"prog", "--threads=8", "--name=test", "--verbose",
                        "--ratio=0.25"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("threads", 1), 8);
  EXPECT_EQ(flags.GetString("name", ""), "test");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio", 1.0), 0.25);
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, ParsesEveryBoolSpelling) {
  const char* argv[] = {"prog", "--a=true", "--b=1",  "--c=yes",
                        "--d=false", "--e=0", "--f=no", "--neg=-3"};
  Flags flags(8, const_cast<char**>(argv));
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_FALSE(flags.GetBool("e", true));
  EXPECT_FALSE(flags.GetBool("f", true));
  EXPECT_EQ(flags.GetInt("neg", 0), -3);
}

// A malformed value exits naming the flag instead of running a default.
TEST(FlagsDeathTest, MalformedIntExits) {
  const char* argv[] = {"prog", "--duration_ms=abc", "--threads=4x",
                        "--keys="};
  Flags flags(4, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetInt("duration_ms", 1000),
              ::testing::ExitedWithCode(2), "--duration_ms");
  EXPECT_EXIT(flags.GetInt("threads", 1), ::testing::ExitedWithCode(2),
              "--threads");
  EXPECT_EXIT(flags.GetInt("keys", 1), ::testing::ExitedWithCode(2),
              "--keys");
}

TEST(FlagsDeathTest, MalformedDoubleExits) {
  const char* argv[] = {"prog", "--theta=0.9x", "--ratio=fast"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetDouble("theta", 0.99), ::testing::ExitedWithCode(2),
              "--theta");
  EXPECT_EXIT(flags.GetDouble("ratio", 1.0), ::testing::ExitedWithCode(2),
              "--ratio");
}

TEST(FlagsDeathTest, MalformedBoolExits) {
  const char* argv[] = {"prog", "--quick=maybe"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetBool("quick", true), ::testing::ExitedWithCode(2),
              "--quick");
}

// A flag name the binary never read exits naming it; read ones pass.
TEST(FlagsDeathTest, UnknownFlagExits) {
  const char* argv[] = {"prog", "--duraton_ms=500", "--quick=false"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_FALSE(flags.GetBool("quick", true));
  EXPECT_EQ(flags.GetInt("duration_ms", 1000), 1000);
  EXPECT_EXIT(flags.RejectUnknown(), ::testing::ExitedWithCode(2),
              "unknown flag --duraton_ms");
  EXPECT_EQ(flags.GetInt("duraton_ms", 0), 500);
  flags.RejectUnknown();  // every flag given has now been read
}

TEST(LatchTest, SpinLatchMutualExclusion) {
  SpinLatch latch;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        SpinLatchGuard guard(latch);
        counter++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(LatchTest, SharedLatchAllowsReadersBlocksWriter) {
  SharedSpinLatch latch;
  latch.LockShared();
  latch.LockShared();  // multiple readers fine
  std::atomic<bool> writer_in{false};
  std::thread writer([&] {
    latch.LockExclusive();
    writer_in.store(true);
    latch.UnlockExclusive();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_in.load());
  latch.UnlockShared();
  latch.UnlockShared();
  writer.join();
  EXPECT_TRUE(writer_in.load());
}

}  // namespace
}  // namespace dpr
