#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/sync.h"
#include "dfaster/migration_channel.h"
#include "dfaster/protocol.h"
#include "dfaster/worker.h"
#include "harness/cluster.h"

namespace dpr {
namespace {

TEST(KvProtocolTest, BatchCodecRoundTrip) {
  KvBatchRequest req;
  req.header.session_id = 9;
  req.header.world_line = 2;
  req.header.version = 5;
  req.header.deps = {{0, 3}, {1, 4}};
  req.ops.push_back(KvOp{KvOp::Type::kUpsert, 11, 22});
  req.ops.push_back(KvOp{KvOp::Type::kRead, 33, 0});
  std::string encoded;
  req.EncodeTo(&encoded);
  KvBatchRequest decoded;
  ASSERT_TRUE(decoded.DecodeFrom(encoded));
  EXPECT_EQ(decoded.header.session_id, 9u);
  EXPECT_EQ(decoded.header.deps, req.header.deps);
  ASSERT_EQ(decoded.ops.size(), 2u);
  EXPECT_EQ(decoded.ops[0].key, 11u);

  KvBatchResponse resp;
  resp.header.executed_version = 5;
  resp.results.push_back(KvOpResult{KvResult::kOk, 22});
  std::string out;
  resp.EncodeTo(&out);
  KvBatchResponse decoded_resp;
  ASSERT_TRUE(decoded_resp.DecodeFrom(out));
  EXPECT_EQ(decoded_resp.header.executed_version, 5u);
  ASSERT_EQ(decoded_resp.results.size(), 1u);
  EXPECT_EQ(decoded_resp.results[0].value, 22u);
}

TEST(KvProtocolTest, MalformedInputRejected) {
  KvBatchRequest req;
  EXPECT_FALSE(req.DecodeFrom("short"));
  KvBatchResponse resp;
  EXPECT_FALSE(resp.DecodeFrom(""));
}

ClusterOptions SmallCluster(uint32_t workers = 2) {
  ClusterOptions options;
  options.num_workers = workers;
  options.checkpoint_interval_us = 20000;
  options.finder_interval_us = 5000;
  // Real (memory-backed) durable devices: failure tests recover actual data.
  // (The null backend discards checkpoint bytes by design.)
  options.backend = StorageBackend::kLocal;
  return options;
}

TEST(DFasterClusterTest, BasicReadWriteAcrossShards) {
  DFasterCluster cluster(SmallCluster(3));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(/*batch=*/8, /*window=*/64);
  auto session = client->NewSession(1);
  std::map<uint64_t, uint64_t> expected;
  for (uint64_t k = 0; k < 200; ++k) {
    session->Upsert(k, k * 7);
    expected[k] = k * 7;
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  std::map<uint64_t, uint64_t> observed;
  Mutex mu;
  for (uint64_t k = 0; k < 200; ++k) {
    session->Read(k, [&, k](KvResult r, uint64_t v) {
      MutexLock guard(mu);
      if (r == KvResult::kOk) observed[k] = v;
    });
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(observed, expected);
}

TEST(DFasterClusterTest, WaitForCommitDelivers) {
  DFasterCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(4, 64);
  auto session = client->NewSession(2);
  for (uint64_t k = 0; k < 50; ++k) session->Upsert(k, k);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());
  const auto point = session->dpr().GetCommitPoint();
  EXPECT_GE(point.prefix_end, 50u);
  EXPECT_TRUE(point.excluded.empty());
}

TEST(DFasterClusterTest, CrossShardSessionCreatesDependencies) {
  DFasterCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(/*batch=*/1, /*window=*/8);
  auto session = client->NewSession(3);
  // Alternate shards with batch=1 so every op is its own batch; versions
  // piggyback and the Lamport clock keeps the precedence graph monotone.
  uint64_t key_on_0 = 0;
  while (YcsbWorkload::ShardOf(key_on_0, 2) != 0) key_on_0++;
  uint64_t key_on_1 = 0;
  while (YcsbWorkload::ShardOf(key_on_1, 2) != 1) key_on_1++;
  for (int i = 0; i < 20; ++i) {
    session->Upsert(key_on_0, i);
    session->Upsert(key_on_1, i);
  }
  ASSERT_TRUE(session->WaitForCommit(20000).ok());
}

TEST(DFasterClusterTest, ColocatedClientLocalOps) {
  DFasterCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewColocatedClient(/*local=*/0, 4, 64);
  auto session = client->NewSession(4);
  YcsbWorkload workload({.num_keys = 1000, .seed = 3});
  for (int i = 0; i < 100; ++i) {
    session->Upsert(workload.NextKeyOnShard(0, 2), 42);  // all local
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(session->ops_failed(), 0u);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());
}

TEST(DFasterClusterTest, EventualAndNoneModesServeOps) {
  for (RecoverabilityMode mode :
       {RecoverabilityMode::kNone, RecoverabilityMode::kEventual}) {
    ClusterOptions options = SmallCluster(2);
    options.mode = mode;
    DFasterCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    auto client = cluster.NewClient(4, 32);
    auto session = client->NewSession(5);
    for (uint64_t k = 0; k < 64; ++k) session->Upsert(k, k);
    ASSERT_TRUE(session->WaitForAll().ok());
    EXPECT_EQ(session->ops_failed(), 0u);
  }
}

TEST(DFasterClusterTest, EventualCheckpointsNeverSplitABatch) {
  // Regression: the kEventual ("no DPR") timer used to draw checkpoint
  // boundaries with batches in flight. A boundary could then point into a
  // log page an in-flight append had claimed but not yet created (the flush
  // aborted in LogAllocator::Resolve), and an in-place add could land on a
  // record a concurrent read-copy-update had already copied (a lost RMW).
  // The add was lost the same way when a flush completed mid-batch: one
  // thread still saw it in flight and copied a record another updated in
  // place. Small pages put a page crossing every 128 records and a 1 ms
  // fixed cadence keeps boundaries coming; every acknowledged RMW must
  // survive in the sum.
  DFasterWorkerConfig config;
  config.mode = RecoverabilityMode::kEventual;
  config.faster.page_bits = 12;
  config.faster.index_buckets = 1 << 10;
  config.faster.log_device = std::make_unique<NullDevice>();
  config.dpr.checkpoint_interval_us = 1000;
  config.dpr.ckpt_policy = CkptPolicy::FixedInterval();
  DFasterWorker worker(std::move(config));
  ASSERT_TRUE(worker.Start(nullptr).ok());
  constexpr uint64_t kKeys = 64;
  constexpr int kThreads = 4;
  constexpr int kBatchOps = 64;
  constexpr Version kCheckpoints = 500;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      KvBatchRequest request;
      for (int i = 0; i < kBatchOps; ++i) {
        request.ops.push_back(
            KvOp{KvOp::Type::kRmw, static_cast<uint64_t>(t * 7 + i) % kKeys,
                 1});
      }
      for (int b = 0; !stop.load(); ++b) {
        // Leave the checkpoint timer gaps to take the exclusive latch in.
        if (b % 8 == 0) std::this_thread::yield();
        KvBatchResponse response;
        worker.ExecuteBatch(request, &response);
        for (const KvOpResult& r : response.results) {
          (r.result == KvResult::kOk ? acked : failed).fetch_add(1);
        }
      }
    });
  }
  const Stopwatch timer;
  while (worker.store()->LargestDurableToken() < kCheckpoints &&
         timer.ElapsedMillis() < 20000) {
    SleepMicros(1000);
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  worker.Stop();
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GE(worker.store()->LargestDurableToken(), kCheckpoints)
      << "the timer must keep checkpointing under load";
  auto session = worker.store()->NewSession();
  uint64_t sum = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(session->Read(k, &v).ok()) << "key " << k;
    sum += v;
  }
  EXPECT_EQ(sum, acked.load())
      << "an RMW was lost across a checkpoint boundary";
}

// A migration target that acknowledges every install and keeps its ops.
class RecordingChannel : public MigrationChannel {
 public:
  WorkerId target() const override { return 7; }
  Status Install(const KvBatchRequest& request,
                 KvBatchResponse* response) override {
    installed.insert(installed.end(), request.ops.begin(), request.ops.end());
    response->header.status = DprResponseHeader::BatchStatus::kOk;
    response->results.assign(request.ops.size(), KvOpResult{});
    return Status::OK();
  }
  std::vector<KvOp> installed;  // the test thread runs every Install
};

TEST(DFasterWorkerTest, BatchedApplyMatchesOpByOp) {
  // RunOps overlaps a batch's lookups with prefetches. The batch must still
  // return what applying its ops one at a time returns, in order: reads,
  // upserts, RMWs and deletes, repeated keys, absent keys, and ops on a
  // sealed partition (the locked slow path, which forwards each write).
  auto make_worker = [] {
    DFasterWorkerConfig config;
    config.mode = RecoverabilityMode::kNone;
    config.faster.index_buckets = 16;  // long chains behind each head
    return std::make_unique<DFasterWorker>(std::move(config));
  };
  auto batched = make_worker();
  auto stepwise = make_worker();
  ASSERT_TRUE(batched->Start(nullptr).ok());
  ASSERT_TRUE(stepwise->Start(nullptr).ok());
  constexpr uint64_t kKeys = 48;  // 64 ops over keys 0..63: repeats + misses
  KvBatchRequest preload;
  for (uint64_t k = 0; k < kKeys; ++k) {
    preload.ops.push_back(KvOp{KvOp::Type::kUpsert, k, 1000 + k});
  }
  for (DFasterWorker* w : {batched.get(), stepwise.get()}) {
    KvBatchResponse response;
    w->ExecuteBatch(preload, &response);
    ASSERT_EQ(response.results.size(), preload.ops.size());
  }
  constexpr uint64_t kSealedKey = 5;
  const uint32_t sealed = YcsbWorkload::PartitionOf(kSealedKey);
  auto batched_target = std::make_shared<RecordingChannel>();
  auto stepwise_target = std::make_shared<RecordingChannel>();
  ASSERT_TRUE(batched->SealPartition(sealed, batched_target).ok());
  ASSERT_TRUE(stepwise->SealPartition(sealed, stepwise_target).ok());

  Random rng(1234);
  KvBatchRequest batch;
  for (int i = 0; i < 64; ++i) {
    const auto type = static_cast<KvOp::Type>(1 + i % 4);
    const uint64_t key = i % 5 == 0 ? kSealedKey : rng.Uniform(64);
    batch.ops.push_back(KvOp{type, key, rng.Uniform(100)});
  }
  KvBatchResponse together;
  batched->ExecuteBatch(batch, &together);
  ASSERT_EQ(together.results.size(), batch.ops.size());
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    KvBatchRequest one;
    one.ops.push_back(batch.ops[i]);
    KvBatchResponse single;
    stepwise->ExecuteBatch(one, &single);
    ASSERT_EQ(single.results.size(), 1u);
    EXPECT_EQ(together.results[i].result, single.results[0].result)
        << "op " << i;
    EXPECT_EQ(together.results[i].value, single.results[0].value)
        << "op " << i;
  }
  ASSERT_EQ(batched_target->installed.size(),
            stepwise_target->installed.size());
  EXPECT_FALSE(batched_target->installed.empty());
  for (size_t i = 0; i < batched_target->installed.size(); ++i) {
    const KvOp& a = batched_target->installed[i];
    const KvOp& b = stepwise_target->installed[i];
    EXPECT_EQ(a.type, b.type) << "forward " << i;
    EXPECT_EQ(a.key, b.key) << "forward " << i;
    EXPECT_EQ(a.value, b.value) << "forward " << i;
  }
  batched->UnsealPartition(sealed, /*disown=*/false);
  stepwise->UnsealPartition(sealed, /*disown=*/false);
  auto batched_store = batched->store()->NewSession();
  auto stepwise_store = stepwise->store()->NewSession();
  for (uint64_t k = 0; k < 64; ++k) {
    uint64_t a = 0;
    uint64_t b = 0;
    const Status sa = batched_store->Read(k, &a);
    const Status sb = stepwise_store->Read(k, &b);
    EXPECT_EQ(sa.code(), sb.code()) << "key " << k;
    EXPECT_EQ(a, b) << "key " << k;
  }
  batched_store.reset();
  stepwise_store.reset();
  batched->Stop();
  stepwise->Stop();
}

TEST(DFasterClusterTest, TcpTransportEndToEnd) {
  ClusterOptions options = SmallCluster(2);
  options.transport = TransportKind::kTcp;
  DFasterCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(8, 64);
  auto session = client->NewSession(6);
  for (uint64_t k = 0; k < 100; ++k) session->Upsert(k, k + 1);
  ASSERT_TRUE(session->WaitForAll().ok());
  std::atomic<uint64_t> sum{0};
  for (uint64_t k = 0; k < 100; ++k) {
    session->Read(k, [&](KvResult r, uint64_t v) {
      if (r == KvResult::kOk) sum.fetch_add(v);
    });
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(sum.load(), 100u * 101 / 2);
}

// ------------------------------------------------------------------ failures

TEST(DFasterFailureTest, FailureRollsBackToCutAndSessionsRecover) {
  DFasterCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(/*batch=*/4, /*window=*/32);
  auto session = client->NewSession(7);

  // Phase 1: write and force commit.
  for (uint64_t k = 0; k < 40; ++k) session->Upsert(k, 1);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());

  // Phase 2: more writes, not necessarily committed, then a failure.
  for (uint64_t k = 0; k < 40; ++k) session->Upsert(k, 2);
  ASSERT_TRUE(session->WaitForAll().ok());
  ASSERT_TRUE(cluster.InjectFailure({0}).ok());

  // The session learns of the failure on its next interaction.
  for (int i = 0; i < 100 && !session->needs_failure_handling(); ++i) {
    session->Read(i % 40, nullptr);
    Status s = session->WaitForAll();
    if (!s.ok()) break;
  }
  ASSERT_TRUE(session->needs_failure_handling());
  DprSession::CommitPoint survivors;
  ASSERT_TRUE(session->RecoverFromFailure(&survivors).ok());
  // Everything committed in phase 1 must survive.
  EXPECT_GE(survivors.prefix_end, 40u);

  // Phase 3: the session continues in the new world-line.
  for (uint64_t k = 0; k < 40; ++k) session->Upsert(k, 3);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());
  std::atomic<int> threes{0};
  for (uint64_t k = 0; k < 40; ++k) {
    session->Read(k, [&](KvResult r, uint64_t v) {
      if (r == KvResult::kOk && v == 3) threes.fetch_add(1);
    });
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(threes.load(), 40);
}

TEST(DFasterFailureTest, PrefixConsistencyAfterCrash) {
  // The recovered state must equal a replay of a per-session prefix: with a
  // single session doing sequential upserts of increasing values to one key
  // per shard, the recovered values must form a consistent prefix: if shard
  // 1's value survived at i, every shard's value must be >= the value it
  // had when the session wrote i there earlier... simplified: committed
  // prefix reported to the client must be durable.
  DFasterCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(/*batch=*/1, /*window=*/4);
  auto session = client->NewSession(8);
  uint64_t key_on_0 = 0;
  while (YcsbWorkload::ShardOf(key_on_0, 2) != 0) key_on_0++;
  uint64_t key_on_1 = 0;
  while (YcsbWorkload::ShardOf(key_on_1, 2) != 1) key_on_1++;

  // Interleaved writes: op 2i writes i to shard 0, op 2i+1 writes i to 1.
  for (uint64_t i = 1; i <= 60; ++i) {
    session->Upsert(key_on_0, i);
    session->Upsert(key_on_1, i);
    if (i == 30) {
      ASSERT_TRUE(session->WaitForCommit(20000).ok());
    }
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  const auto before = session->dpr().GetCommitPoint();

  ASSERT_TRUE(cluster.InjectFailure({0, 1}).ok());
  session->Read(key_on_0, nullptr);
  session->Read(key_on_1, nullptr);
  (void)session->WaitForAll();
  ASSERT_TRUE(session->needs_failure_handling());
  DprSession::CommitPoint survivors;
  ASSERT_TRUE(session->RecoverFromFailure(&survivors).ok());
  // Survivors must cover at least what was already reported committed.
  EXPECT_GE(survivors.prefix_end, before.prefix_end);

  // Read back both keys; values must correspond to a prefix of the session:
  // v0 == v1 or v0 == v1 + 1 (shard 0 written first in each round), and the
  // surviving prefix implies at least 30 rounds.
  std::atomic<uint64_t> v0{0};
  std::atomic<uint64_t> v1{0};
  session->Read(key_on_0, [&](KvResult r, uint64_t v) {
    if (r == KvResult::kOk) v0.store(v);
  });
  session->Read(key_on_1, [&](KvResult r, uint64_t v) {
    if (r == KvResult::kOk) v1.store(v);
  });
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_GE(v0.load(), 30u);
  EXPECT_GE(v1.load(), 30u);
  EXPECT_TRUE(v0.load() == v1.load() || v0.load() == v1.load() + 1)
      << "v0=" << v0.load() << " v1=" << v1.load();
}

TEST(DFasterFailureTest, NestedFailuresHandledAsSequences) {
  DFasterCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(4, 32);
  auto session = client->NewSession(9);
  for (uint64_t k = 0; k < 30; ++k) session->Upsert(k, 1);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());
  // Two failures in short succession (paper Fig. 16's nested scenario).
  ASSERT_TRUE(cluster.InjectFailure({0}).ok());
  ASSERT_TRUE(cluster.InjectFailure({1}).ok());
  session->Read(1, nullptr);
  (void)session->WaitForAll();
  ASSERT_TRUE(session->needs_failure_handling());
  DprSession::CommitPoint survivors;
  ASSERT_TRUE(session->RecoverFromFailure(&survivors).ok());
  EXPECT_GE(survivors.prefix_end, 30u);
  EXPECT_EQ(session->dpr().world_line(), kInitialWorldLine + 2);
  // Cluster still serves reads/writes.
  for (uint64_t k = 0; k < 30; ++k) session->Upsert(k, 2);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());
}

}  // namespace
}  // namespace dpr
