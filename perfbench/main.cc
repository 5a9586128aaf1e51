// Repository benchmark driver: runs one named workload against an
// in-process cluster, checks its outputs with an oracle, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the last
// line of stdout in one JSON object.
//
//   dpr_perfbench --workload ycsb-a-zipf-tcp --seed 1 --seconds 10 --trace 0
//
// The store is driven only through its public API: DFasterCluster
// (ClusterControl), DFasterClient::Session, DprSession::GetCommitPoint and
// MetricsRegistry::Snapshot. Every layer is measured from outside, by timing
// calls into that API and by taking deltas of the registry's counters and
// histograms. Exit codes: 0 ok, 1 oracle or durability violation, 2 bad
// arguments or set-up failure, 3 stall (a bounded wait ran out).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/sync.h"
#include "harness/cluster.h"
#include "net/tcp_net.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "storage/async_io.h"
#include "trace.h"
#include "workload/ycsb.h"

namespace dpr::perfbench {
namespace {

// Load shape (fixed for every workload): 2 sessions, one thread each, closed
// loop with batch b and window w per session; 2 shards.
constexpr uint32_t kSessions = 2;
constexpr uint32_t kShards = 2;
constexpr uint32_t kBatch = 64;
constexpr uint32_t kWindow = 1024;

constexpr uint64_t kRing = 1 << 22;         // pregenerated ops per session
constexpr uint64_t kLatStride = 32;         // every 32nd op is timed
constexpr uint64_t kLatCap = 1 << 21;       // timed ops kept per session
constexpr uint64_t kSpanStride = 1024;      // traced: 1 op in 1024 spanned
static_assert(kSpanStride % kLatStride == 0);
constexpr uint64_t kSpanCap = 1 << 16;      // spanned ops kept per session
constexpr uint64_t kWindows = 5;            // fresh deployments per run
constexpr double kWarmupSeconds = 1.0;      // load runs before the window
constexpr uint64_t kWaitMs = 20000;         // bound on every drain/commit wait
constexpr uint64_t kDeadlineSeconds = 170;  // whole-process watchdog
constexpr uint64_t kNoProgressSeconds = 3;   // in-window stall

struct WorkloadSpec {
  const char* name;
  bool tcp;
  uint64_t keys;
  uint64_t index_buckets;  // D-FASTER hash-index buckets
  double read_fraction;
  double rmw_fraction;
  double zipf_theta;
};

const WorkloadSpec kWorkloads[] = {
    {"ycsb-a-zipf-tcp", true, 100000, 1 << 16, 0.5, 0.0, 0.99},
    {"rmw-uniform-durable", false, 1 << 20, 1 << 19, 0.0, 1.0, 0.0},
};

// Every value written encodes its key, so a read can be checked against the
// key it was issued for: value = key << 24 | tag. Preloaded values have tag
// 0, and RMW(+1) counts up from there.
uint64_t EncodeValue(uint64_t key, uint64_t tag) {
  return (key << 24) | (tag & 0xffffff);
}
uint64_t KeyOfValue(uint64_t value) { return value >> 24; }

enum class OpType : uint8_t { kRead, kWrite, kRmw };

// A pregenerated op; a write's value is EncodeValue(key, op index).
struct Op {
  uint32_t key;
  OpType type;
  uint8_t shard;
};

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Nearest-rank percentile over raw samples (sorts in place).
double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v->size()));
  rank = std::clamp<size_t>(rank, 1, v->size());
  std::nth_element(v->begin(), v->begin() + (rank - 1), v->end());
  return (*v)[rank - 1];
}

// ------------------------------------------------------------- run context

struct Run {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  uint64_t seconds = 10;
  bool trace = false;
  std::string out_dir;
  uint64_t start_ns = NowNanos();
  // seq_cst (defaults suffice): set by the main thread, read by a stall dump
  // on any thread; points at string literals only.
  std::atomic<const char*> phase{"init"};
};

Run g_run;

/// Writes <out_dir>/<kind>_<workload>_<seed>.json naming the workload, seed,
/// phase, elapsed time and what happened, with a MetricsRegistry snapshot.
/// Returns the path.
std::string WriteRecord(const char* kind, const std::string& what) {
  const double elapsed = Seconds(NowNanos() - g_run.start_ns);
  const std::string path = g_run.out_dir + "/" + kind + "_" +
                           g_run.spec->name + "_" +
                           std::to_string(g_run.seed) + ".json";
  JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(g_run.spec->name);
  w.Key("seed").UInt(g_run.seed);
  w.Key("phase").String(g_run.phase.load());
  w.Key("what").String(what);
  w.Key("elapsed_s").Double(elapsed);
  w.Key("metrics").String("@");
  w.EndObject();
  // Splice the snapshot's own JSON document in as the "metrics" value.
  std::string doc = w.str();
  doc.replace(doc.find("\"@\""), 3,
              MetricsRegistry::Default().Snapshot().ToJson());
  if (FILE* f = fopen(path.c_str(), "w")) {
    fputs(doc.c_str(), f);
    fclose(f);
  }
  return path;
}

/// Ends the process on a stall, leaving a STALL record behind.
[[noreturn]] void StallAbort(const std::string& what) {
  const std::string path = WriteRecord("STALL", what);
  fprintf(stderr,
          "STALL workload=%s seed=%llu phase=%s elapsed=%.1fs: %s "
          "(metrics snapshot: %s)\n",
          g_run.spec->name, static_cast<unsigned long long>(g_run.seed),
          g_run.phase.load(), Seconds(NowNanos() - g_run.start_ns),
          what.c_str(), path.c_str());
  fflush(stderr);
  _exit(3);
}

void CheckWait(const Status& s, const char* what) {
  if (!s.ok()) StallAbort(std::string(what) + ": " + s.ToString());
}

/// Oracle violations are collected (callbacks run on transport threads) and
/// fail the run at the end.
class Violations {
 public:
  void Add(std::string message) {
    MutexLock lock(mu_);
    if (messages_.size() < 20) messages_.push_back(std::move(message));
    ++count_;
  }
  uint64_t count() const {
    MutexLock lock(mu_);
    return count_;
  }
  /// One "ORACLE VIOLATION: ..." line per kept message.
  std::string Report() const {
    MutexLock lock(mu_);
    std::string out;
    for (const std::string& m : messages_) {
      out += "ORACLE VIOLATION: " + m + "\n";
    }
    if (count_ > messages_.size()) {
      out += "ORACLE VIOLATION: ... " + std::to_string(count_) + " in total\n";
    }
    return out;
  }

 private:
  mutable Mutex mu_;
  std::vector<std::string> messages_ GUARDED_BY(mu_);
  uint64_t count_ GUARDED_BY(mu_) = 0;
};

Violations g_violations;

/// Whole-process deadline: a wait the benchmark cannot bound itself (a
/// blocking issue call stuck behind a full window) still ends the run.
class Watchdog {
 public:
  Watchdog() : thread_([this] { Loop(); }) {}
  ~Watchdog() {
    {
      MutexLock lock(mu_);
      done_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
  }

 private:
  void Loop() {
    MutexLock lock(mu_);
    if (!cv_.WaitFor(mu_, std::chrono::seconds(kDeadlineSeconds),
                     [this]() REQUIRES(mu_) { return done_; })) {
      StallAbort("run exceeded its " + std::to_string(kDeadlineSeconds) +
                 " s deadline");
    }
  }

  Mutex mu_;
  CondVar cv_;
  bool done_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

// ----------------------------------------------------------- deployment

/// Receives op completions; `tag` is whatever the issuer passed in.
class OpSink {
 public:
  virtual void OnDone(uint64_t tag, KvResult result, uint64_t value) = 0;

 protected:
  ~OpSink() = default;
};

/// Completion callback forwarding to `sink` (small enough to be stored
/// inline by std::function: no allocation per op).
DFasterClient::Session::OpCallback Deliver(OpSink* sink, uint64_t tag) {
  return [sink, tag](KvResult r, uint64_t v) { sink->OnDone(tag, r, v); };
}

/// A client with one session; the session is destroyed first.
struct ClientSession {
  std::unique_ptr<DFasterClient> client;
  std::unique_ptr<DFasterClient::Session> session;
};

/// The workload's cluster configuration; everything not set here (finder,
/// checkpoint cadence, server threads) keeps the ClusterOptions default.
ClusterOptions OptionsFor(const WorkloadSpec& spec, const std::string& dir) {
  ClusterOptions o;
  o.num_workers = kShards;
  o.backend = StorageBackend::kIoUring;
  o.storage_dir = dir;
  o.transport = spec.tcp ? TransportKind::kTcp : TransportKind::kInMemory;
  o.index_buckets = spec.index_buckets;
  return o;
}

/// One deployment under test: the cluster and the temp directory its
/// FileDevices write to (deleted on destruction).
class Deployment {
 public:
  Deployment(const WorkloadSpec& spec, const std::string& dir, SpanLog* spans)
      : dir_(dir),
        spans_(spans),
        cluster_(std::make_unique<DFasterCluster>(OptionsFor(spec, dir))) {}
  ~Deployment() {
    cluster_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  DFasterCluster* cluster() { return cluster_.get(); }

  ClientSession NewSession(uint64_t id) {
    ScopedSpan span(spans_, "NewClient");
    ClientSession cs;
    cs.client = cluster_->NewClient(kBatch, kWindow);
    cs.session = cs.client->NewSession(id);
    return cs;
  }

 private:
  std::string dir_;
  SpanLog* spans_;
  std::unique_ptr<DFasterCluster> cluster_;
};

// ------------------------------------------------------- preload / readback

/// Counts completions of a bulk pass and checks each read against its key.
class BulkSink final : public OpSink {
 public:
  explicit BulkSink(bool reads) : reads_(reads) {}

  void OnDone(uint64_t key, KvResult result, uint64_t value) override {
    if (result != KvResult::kOk) return;
    if (reads_) {
      if (KeyOfValue(value) != key) {
        g_violations.Add("readback of key " + std::to_string(key) +
                         " returned a value written for key " +
                         std::to_string(KeyOfValue(value)));
      }
      sum_.fetch_add(value - EncodeValue(key, 0), std::memory_order_relaxed);
    }
    ok_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t ok() const { return ok_.load(); }
  /// Sum over reads of (value - preloaded value).
  uint64_t sum() const { return sum_.load(); }

 private:
  const bool reads_;
  // relaxed: completion tallies, read after WaitForAll.
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Writes every key's preload value; dies unless all are acknowledged.
void Preload(Deployment* dep, uint64_t keys, SpanLog* spans) {
  ScopedSpan span(spans, "Preload");
  ClientSession cs = dep->NewSession(1);
  BulkSink sink(false);
  for (uint64_t k = 0; k < keys; ++k) {
    cs.session->Upsert(k, EncodeValue(k, 0), Deliver(&sink, k));
  }
  CheckWait(cs.session->WaitForAll(kWaitMs * 3), "preload WaitForAll");
  if (sink.ok() != keys) {
    fprintf(stderr, "preload: %llu of %llu writes acknowledged\n",
            static_cast<unsigned long long>(sink.ok()),
            static_cast<unsigned long long>(keys));
    _exit(2);
  }
}

/// Reads every key back through `session`; returns Σ(value − preload).
uint64_t ReadBackSum(DFasterClient::Session* session, uint64_t keys,
                     const char* when, SpanLog* spans) {
  ScopedSpan span(spans, "ReadBack");
  BulkSink sink(true);
  for (uint64_t k = 0; k < keys; ++k) session->Read(k, Deliver(&sink, k));
  CheckWait(session->WaitForAll(kWaitMs * 3), "readback WaitForAll");
  if (sink.ok() != keys) {
    g_violations.Add(std::string(when) + ": " +
                     std::to_string(keys - sink.ok()) + " of " +
                     std::to_string(keys) + " reads did not return a value");
  }
  return sink.sum();
}

// ----------------------------------------------------------------- loaders

/// One session's closed-loop load: issues the pregenerated ops from its own
/// thread, checks every completion, and keeps the raw timings of every
/// kLatStride-th op.
class Loader final : public OpSink {
 public:
  Loader(ClientSession cs, const std::vector<Op>* ops, bool trace)
      : cs_(std::move(cs)),
        session_(cs_.session.get()),
        ops_(*ops),
        trace_(trace),
        issue_ns_(new uint64_t[kLatCap]()),
        lat_ns_(new uint32_t[kLatCap]()) {
    if (trace_) {
      span_issue_.reset(new SpanTimes[kSpanCap]());
      span_done_.reset(new std::atomic<uint64_t>[kSpanCap]());
    }
  }

  Loader(const Loader&) = delete;
  Loader& operator=(const Loader&) = delete;

  /// Thread body: issue until `stop`, then drain and wait for commit.
  void Run(const std::atomic<bool>* stop, SpanLog* spans) {
    // relaxed: a stop flag; the loop only has to see it eventually.
    while (!stop->load(std::memory_order_relaxed)) {
      for (int i = 0; i < 64; ++i) IssueOne();
    }
    {
      ScopedSpan span(spans, "Flush");
      session_->Flush();
    }
    MirrorFlush();
    if (mirror_seq_ != session_->dpr().next_seqno()) {
      g_violations.Add("benchmark's seqno mirror diverged from the session");
    }
    {
      ScopedSpan span(spans, "WaitForAll");
      CheckWait(session_->WaitForAll(kWaitMs), "drain WaitForAll");
    }
    issued_total_ = mirror_seq_;
    {
      ScopedSpan span(spans, "WaitForCommit");
      CheckWait(session_->WaitForCommit(kWaitMs), "drain WaitForCommit");
    }
    const DprSession::CommitPoint point = session_->dpr().GetCommitPoint();
    if (point.prefix_end < issued_total_ || !point.excluded.empty()) {
      g_violations.Add("commit point (prefix " +
                       std::to_string(point.prefix_end) + ", " +
                       std::to_string(point.excluded.size()) +
                       " excluded) does not cover all " +
                       std::to_string(issued_total_) + " issued ops");
    }
  }

  void OnDone(uint64_t idx, KvResult result, uint64_t value) override {
    const Op& op = ops_[idx & (kRing - 1)];
    if (result != KvResult::kOk && result != KvResult::kNotFound) {
      failed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (op.type == OpType::kRead) {
        if (result == KvResult::kNotFound) {
          g_violations.Add("read of preloaded key " + std::to_string(op.key) +
                           " returned NotFound");
        } else if (KeyOfValue(value) != op.key) {
          g_violations.Add("read of key " + std::to_string(op.key) +
                           " returned a value written for key " +
                           std::to_string(KeyOfValue(value)));
        }
      } else {
        writes_ok_.fetch_add(1, std::memory_order_relaxed);
      }
      ok_.fetch_add(1, std::memory_order_relaxed);
    }
    if (idx % kLatStride != 0 || idx / kLatStride >= kLatCap) return;
    const uint64_t now = NowNanos();
    const uint64_t k = idx / kLatStride;
    lat_ns_[k] = static_cast<uint32_t>(
        std::min<uint64_t>(now - issue_ns_[k], UINT32_MAX));
    // kSpanStride is a multiple of kLatStride, so spanned ops are timed.
    if (trace_ && idx % kSpanStride == 0 && idx / kSpanStride < kSpanCap) {
      // relaxed: read only after WaitForAll, whose mutex orders it.
      span_done_[idx / kSpanStride].store(now, std::memory_order_relaxed);
    }
  }

  /// Moves newly dispatched timed ops to `out` as (seqno, issue time).
  void TakeCommitSamples(std::deque<std::pair<uint64_t, uint64_t>>* out) {
    MutexLock lock(commit_mu_);
    for (const auto& s : commit_samples_) out->push_back(s);
    commit_samples_.clear();
  }

  /// Raw op latencies (µs) of timed ops issued in [from_ns, to_ns).
  std::vector<double> OpLatenciesUs(uint64_t from_ns, uint64_t to_ns) const {
    std::vector<double> out;
    const uint64_t n = std::min(issued_ / kLatStride + 1, kLatCap);
    for (uint64_t k = 0; k < n; ++k) {
      if (issue_ns_[k] >= from_ns && issue_ns_[k] < to_ns && lat_ns_[k] > 0) {
        out.push_back(lat_ns_[k] / 1e3);
      }
    }
    return out;
  }

  /// Traced run: an op span from issue to callback, with the issue call as
  /// its child; both carry the op's id.
  void ExportSpans(SpanLog* spans, uint64_t session_id) const {
    const uint64_t n = std::min(issued_ / kSpanStride + 1, kSpanCap);
    for (uint64_t j = 0; j < n; ++j) {
      // relaxed: the loader has drained (see OnDone).
      const uint64_t done = span_done_[j].load(std::memory_order_relaxed);
      const SpanTimes& t = span_issue_[j];
      if (done == 0 || t.start == 0) continue;
      const uint64_t id = (session_id << 40) | (j * kSpanStride);
      spans->Add(Span{"op", id, "", t.start, std::max(done, t.end)});
      spans->Add(Span{"issue", id, "op", t.start, t.end});
    }
  }

  DFasterClient::Session* session() { return session_; }
  uint64_t ok() const { return ok_.load(std::memory_order_relaxed); }
  uint64_t failed() const { return failed_.load(std::memory_order_relaxed); }
  uint64_t writes_ok() const {
    return writes_ok_.load(std::memory_order_relaxed);
  }
  const Histogram& issue_ns() const { return issue_hist_; }

 private:
  struct SpanTimes {
    uint64_t start;
    uint64_t end;
  };

  void IssueOne() {
    const uint64_t idx = issued_++;
    const Op& op = ops_[idx & (kRing - 1)];
    const bool timed = idx % kLatStride == 0 && idx / kLatStride < kLatCap;
    const uint64_t t0 = timed || trace_ ? NowNanos() : 0;
    if (timed) issue_ns_[idx / kLatStride] = t0;
    switch (op.type) {
      case OpType::kRead:
        session_->Read(op.key, Deliver(this, idx));
        break;
      case OpType::kWrite:
        session_->Upsert(op.key, EncodeValue(op.key, idx), Deliver(this, idx));
        break;
      case OpType::kRmw:
        session_->Rmw(op.key, 1, Deliver(this, idx));
        break;
    }
    if (trace_) {
      const uint64_t t1 = NowNanos();
      issue_hist_.Record(t1 - t0);
      if (idx % kSpanStride == 0 && idx / kSpanStride < kSpanCap) {
        span_issue_[idx / kSpanStride] = SpanTimes{t0, t1};
      }
    }
    // Mirror the client's per-shard batching so a timed op's seqno is known
    // when its batch is dispatched (the session numbers ops at dispatch).
    const uint32_t pos = pending_count_[op.shard]++;
    if (timed) pending_timed_[op.shard].push_back({idx / kLatStride, pos});
    if (pending_count_[op.shard] == kBatch) MirrorDispatch(op.shard);
  }

  void MirrorDispatch(uint32_t shard) {
    const uint64_t base = mirror_seq_;
    mirror_seq_ += pending_count_[shard];
    pending_count_[shard] = 0;
    if (pending_timed_[shard].empty()) return;
    MutexLock lock(commit_mu_);
    for (const auto& [k, pos] : pending_timed_[shard]) {
      commit_samples_.emplace_back(base + pos, issue_ns_[k]);
    }
    pending_timed_[shard].clear();
  }

  /// Flush dispatches partial batches in ascending shard order.
  void MirrorFlush() {
    for (uint32_t s = 0; s < kShards; ++s) {
      if (pending_count_[s] > 0) MirrorDispatch(s);
    }
  }

  ClientSession cs_;
  DFasterClient::Session* const session_;
  const std::vector<Op>& ops_;
  const bool trace_;

  // Issuing thread only.
  uint64_t issued_ = 0;
  uint64_t issued_total_ = 0;
  uint64_t mirror_seq_ = 0;
  uint32_t pending_count_[kShards] = {};
  std::vector<std::pair<uint64_t, uint32_t>> pending_timed_[kShards];
  Histogram issue_hist_;  // ns per issue call (traced run)

  // Slot k belongs to op k*kLatStride: written once by the issuer (issue
  // time) and once by the completing thread (latency).
  std::unique_ptr<uint64_t[]> issue_ns_;
  std::unique_ptr<uint32_t[]> lat_ns_;
  std::unique_ptr<SpanTimes[]> span_issue_;
  std::unique_ptr<std::atomic<uint64_t>[]> span_done_;

  Mutex commit_mu_;
  std::vector<std::pair<uint64_t, uint64_t>> commit_samples_
      GUARDED_BY(commit_mu_);

  // relaxed: completion tallies; window deltas tolerate in-flight skew.
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> writes_ok_{0};
};

/// Polls each session's commit point and turns timed ops into op→commit
/// latencies: from the issue call until the commit point covers the op.
class CommitPoller {
 public:
  CommitPoller(std::vector<Loader*> loaders, SpanLog* spans)
      : loaders_(std::move(loaders)),
        pending_(loaders_.size()),
        deferred_(loaders_.size()),
        spans_(spans) {}

  void Start() {
    thread_ = std::thread([this] {
      // relaxed: a stop flag; Stop() joins before reading results.
      while (!stop_.load(std::memory_order_relaxed)) {
        PollAll();
        SleepMicros(1000);
      }
    });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    PollAll();
  }

  void SetWindow(uint64_t from_ns, uint64_t to_ns) {
    from_ns_.store(from_ns);
    to_ns_.store(to_ns);
  }

  /// Timed ops whose commit was never observed (should be none).
  uint64_t uncovered() const {
    uint64_t n = 0;
    for (size_t i = 0; i < pending_.size(); ++i) {
      n += pending_[i].size() + deferred_[i].size();
    }
    return n;
  }
  /// (issue time, op→commit latency in ms) of timed ops in the window.
  const std::vector<std::pair<uint64_t, double>>& samples() const {
    return samples_;
  }

 private:
  void PollAll() {
    for (size_t i = 0; i < loaders_.size(); ++i) Poll(i);
  }

  void Poll(size_t i) {
    DprSession::CommitPoint point;
    {
      ScopedSpan span(spans_, "GetCommitPoint");
      point = loaders_[i]->session()->dpr().GetCommitPoint();
    }
    const uint64_t now = NowNanos();
    loaders_[i]->TakeCommitSamples(&pending_[i]);
    const std::unordered_set<uint64_t> excluded(point.excluded.begin(),
                                                point.excluded.end());
    auto covered = [&](uint64_t seqno) {
      return seqno < point.prefix_end && excluded.count(seqno) == 0;
    };
    auto& deferred = deferred_[i];
    for (auto it = deferred.begin(); it != deferred.end();) {
      if (covered(it->first)) {
        Record(now, it->second);
        it = deferred.erase(it);
      } else {
        ++it;
      }
    }
    auto& pending = pending_[i];
    while (!pending.empty() && pending.front().first < point.prefix_end) {
      if (covered(pending.front().first)) {
        Record(now, pending.front().second);
      } else {
        deferred.push_back(pending.front());
      }
      pending.pop_front();
    }
  }

  void Record(uint64_t now, uint64_t issued_ns) {
    if (issued_ns >= from_ns_.load() && issued_ns < to_ns_.load()) {
      samples_.push_back({issued_ns, (now - issued_ns) / 1e6});
    }
  }

  std::vector<Loader*> loaders_;
  std::vector<std::deque<std::pair<uint64_t, uint64_t>>> pending_;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> deferred_;
  SpanLog* spans_;
  std::vector<std::pair<uint64_t, double>> samples_;
  // seq_cst (defaults suffice): the window bounds are set by the main thread
  // and read by the poller. Each is set within a millisecond of the instant
  // it names, far sooner than any op issued after that instant can commit.
  std::atomic<uint64_t> from_ns_{UINT64_MAX};
  std::atomic<uint64_t> to_ns_{UINT64_MAX};
  // relaxed on load (see Start), seq_cst store: a stop flag.
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ------------------------------------------------------------ one window

struct WindowResult {
  double seconds = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t writes_ok = 0;
  double cpu_s = 0;
  std::vector<double> op_lat_us;
  std::vector<double> commit_lat_ms;
  std::vector<double> timeline_mops;       // per-second throughput
  std::vector<double> timeline_commit_ms;  // per-second commit p50
  Histogram issue_ns;                      // traced run only
  MetricsSnapshot before;
  MetricsSnapshot after;
  double setup_start_s = 0;
  double setup_preload_s = 0;
  double recovery_s = 0;  // rmw workload: InjectFailure duration
};

using SessionOps = std::vector<std::vector<Op>>;  // one op ring per session

std::vector<Op> GenerateOps(const WorkloadSpec& spec, uint64_t seed,
                            uint32_t session) {
  YcsbOptions o;
  o.num_keys = spec.keys;
  o.read_fraction = spec.read_fraction;
  o.rmw_fraction = spec.rmw_fraction;
  o.zipf_theta = spec.zipf_theta;
  o.seed = seed * 1000003 + session * 7919 + 1;
  YcsbWorkload workload(o);
  std::vector<Op> ops(kRing);
  for (uint64_t i = 0; i < kRing; ++i) {
    const YcsbOp y = workload.Next();
    Op& op = ops[i];
    op.key = static_cast<uint32_t>(y.key);
    op.type = y.type == YcsbOp::Type::kRead    ? OpType::kRead
              : y.type == YcsbOp::Type::kRmw ? OpType::kRmw
                                             : OpType::kWrite;
    op.shard = static_cast<uint8_t>(YcsbWorkload::ShardOf(y.key, kShards));
  }
  return ops;
}

struct SetupResult {
  std::unique_ptr<Deployment> dep;
  double start_s = 0;
  double preload_s = 0;
};

SetupResult Setup(const WorkloadSpec& spec, SpanLog* spans) {
  static int n = 0;
  const std::string dir = g_run.out_dir + "/tmp-" +
                          std::to_string(getpid()) + "-" +
                          std::to_string(n++);
  std::filesystem::create_directories(dir);
  SetupResult r;
  r.dep = std::make_unique<Deployment>(spec, dir, spans);
  const uint64_t t0 = NowNanos();
  {
    ScopedSpan span(spans, "Start");
    Status s = r.dep->cluster()->Start();
    if (!s.ok()) {
      fprintf(stderr, "cluster Start failed: %s\n", s.ToString().c_str());
      _exit(2);
    }
  }
  const uint64_t t1 = NowNanos();
  Preload(r.dep.get(), spec.keys, spans);
  r.start_s = Seconds(t1 - t0);
  r.preload_s = Seconds(NowNanos() - t1);
  return r;
}

/// After a window on rmw-uniform-durable: Σ(value − preload) over all keys
/// must equal the acknowledged RMWs.
void CheckRmwSum(Deployment* dep, const WorkloadSpec& spec, uint64_t acked,
                 SpanLog* spans) {
  g_run.phase = "rmw-sum";
  ClientSession cs = dep->NewSession(100);
  const uint64_t sum =
      ReadBackSum(cs.session.get(), spec.keys, "pre-failure", spans);
  if (sum != acked) {
    g_violations.Add("RMW sum " + std::to_string(sum) + " != " +
                     std::to_string(acked) + " acknowledged RMWs");
  }
  CheckWait(cs.session->WaitForCommit(kWaitMs), "readback WaitForCommit");
}

/// Then, once per run: every worker crashes and the cluster recovers; as
/// everything was committed before the failure, the sum must still match.
void CheckRmwDurability(Deployment* dep, const WorkloadSpec& spec,
                        uint64_t acked, SpanLog* spans, WindowResult* r) {
  g_run.phase = "durability";
  const uint64_t t0 = NowNanos();
  {
    ScopedSpan span(spans, "InjectFailure");
    Status s = dep->cluster()->InjectFailure({0, 1});
    if (!s.ok()) {
      g_violations.Add("InjectFailure({0,1}) failed: " + s.ToString());
      return;
    }
  }
  r->recovery_s = Seconds(NowNanos() - t0);
  ClientSession cs = dep->NewSession(101);
  DFasterClient::Session* session = cs.session.get();
  // The first interaction reveals the new world-line to the fresh session.
  for (uint64_t k = 0; k < kShards; ++k) session->Read(k);
  CheckWait(session->WaitForAll(kWaitMs), "post-failure WaitForAll");
  if (session->needs_failure_handling()) {
    ScopedSpan span(spans, "RecoverFromFailure");
    const Stopwatch timer;
    Status s;
    // The recovery cut is published asynchronously; wait (bounded) for it.
    while (!(s = session->RecoverFromFailure(nullptr)).ok() &&
           timer.ElapsedMillis() < kWaitMs) {
      SleepMicros(2000);
    }
    CheckWait(s, "RecoverFromFailure");
  }
  const uint64_t sum =
      ReadBackSum(session, spec.keys, "post-recovery", spans);
  if (sum != acked) {
    const std::string what = "after recovery, RMW sum " + std::to_string(sum) +
                             " != " + std::to_string(acked) +
                             " acknowledged (and committed) RMWs: a committed "
                             "write was lost";
    g_violations.Add(what + " (record: " + WriteRecord("LOST_COMMIT", what) +
                     ")");
  }
}

/// Sets up a fresh deployment and measures one timed window of `window_ns`
/// after a warm-up; then drains, checks commits and (RMW workload) the RMW
/// sum, with `crash` also durability, and tears the deployment down.
WindowResult MeasureWindow(const WorkloadSpec& spec, const SessionOps& ops,
                           bool traced, uint64_t window_ns, bool crash,
                           SpanLog* spans) {
  g_run.phase = "setup";
  SetupResult setup = Setup(spec, spans);
  Deployment* dep = setup.dep.get();
  WindowResult r;
  r.setup_start_s = setup.start_s;
  r.setup_preload_s = setup.preload_s;

  std::vector<std::unique_ptr<Loader>> loaders;
  for (uint32_t i = 0; i < kSessions; ++i) {
    loaders.push_back(
        std::make_unique<Loader>(dep->NewSession(10 + i), &ops[i], traced));
  }
  std::vector<Loader*> raw;
  for (auto& l : loaders) raw.push_back(l.get());
  CommitPoller poller(raw, spans);
  struct Tally {
    uint64_t ok = 0, failed = 0, writes_ok = 0;
  };
  auto tally = [&] {
    Tally t;
    for (auto& l : loaders) {
      t.ok += l->ok();
      t.failed += l->failed();
      t.writes_ok += l->writes_ok();
    }
    return t;
  };

  g_run.phase = "load";
  // seq_cst store, relaxed loads in Loader::Run: a stop flag.
  std::atomic<bool> stop{false};
  poller.Start();
  std::vector<std::thread> threads;
  for (auto& l : loaders) {
    threads.emplace_back([&l, &stop, spans] { l->Run(&stop, spans); });
  }
  SleepMicros(static_cast<uint64_t>(kWarmupSeconds * 1e6));

  // The timed window.
  {
    ScopedSpan span(spans, "Snapshot");
    r.before = MetricsRegistry::Default().Snapshot();
  }
  const Tally t0 = tally();
  const double cpu0 = CpuSeconds();
  const uint64_t w0 = NowNanos();
  poller.SetWindow(w0, UINT64_MAX);
  uint64_t last_ok = t0.ok, last_t = w0, stuck_s = 0;
  for (uint64_t s = 1; last_t < w0 + window_ns; ++s) {
    const uint64_t due =
        std::min<uint64_t>(w0 + s * 1000000000ull, w0 + window_ns);
    const uint64_t now = NowNanos();
    if (due > now) SleepMicros((due - now) / 1000);
    const uint64_t t = NowNanos();
    const uint64_t ok = tally().ok;
    r.timeline_mops.push_back((ok - last_ok) / Seconds(t - last_t) / 1e6);
    stuck_s = ok == last_ok ? stuck_s + 1 : 0;
    if (stuck_s >= kNoProgressSeconds) {
      StallAbort("no op completed for " + std::to_string(stuck_s) + " s");
    }
    last_ok = ok;
    last_t = t;
  }
  const uint64_t w1 = NowNanos();
  const double cpu1 = CpuSeconds();
  const Tally t1 = tally();
  {
    ScopedSpan span(spans, "Snapshot");
    r.after = MetricsRegistry::Default().Snapshot();
  }
  poller.SetWindow(w0, w1);
  stop.store(true);

  g_run.phase = "drain";
  for (auto& t : threads) t.join();
  poller.Stop();
  if (const uint64_t failed = tally().failed; failed > 0) {
    printf("  %llu ops failed since the preload (warm-up and drain included)\n",
           static_cast<unsigned long long>(failed));
  }

  r.seconds = Seconds(w1 - w0);
  r.ok = t1.ok - t0.ok;
  r.failed = t1.failed - t0.failed;
  r.writes_ok = t1.writes_ok - t0.writes_ok;
  r.cpu_s = cpu1 - cpu0;
  for (auto& l : loaders) {
    std::vector<double> v = l->OpLatenciesUs(w0, w1);
    r.op_lat_us.insert(r.op_lat_us.end(), v.begin(), v.end());
    r.issue_ns.Merge(l->issue_ns());
  }
  std::vector<std::vector<double>> per_second(r.timeline_mops.size());
  for (const auto& [issued_ns, ms] : poller.samples()) {
    r.commit_lat_ms.push_back(ms);
    per_second[std::min<uint64_t>((issued_ns - w0) / 1000000000ull,
                                  per_second.size() - 1)]
        .push_back(ms);
  }
  for (auto& v : per_second) r.timeline_commit_ms.push_back(Percentile(&v, 50));
  if (poller.uncovered() > 0) {
    g_violations.Add(std::to_string(poller.uncovered()) +
                     " timed ops never observed as committed");
  }
  if (spans != nullptr) {
    for (uint32_t i = 0; i < kSessions; ++i) {
      loaders[i]->ExportSpans(spans, i + 1);
    }
  }

  if (spec.rmw_fraction == 1.0) {
    const uint64_t acked = tally().writes_ok;  // every RMW since the preload
    loaders.clear();
    CheckRmwSum(dep, spec, acked, spans);
    if (crash) CheckRmwDurability(dep, spec, acked, spans, &r);
  }
  g_run.phase = "teardown";
  loaders.clear();
  setup.dep.reset();
  return r;
}

// ------------------------------------------------------------- reporting

uint64_t Delta(const WindowResult& r, const char* counter) {
  auto a = r.after.counters.find(counter);
  auto b = r.before.counters.find(counter);
  const uint64_t av = a == r.after.counters.end() ? 0 : a->second;
  const uint64_t bv = b == r.before.counters.end() ? 0 : b->second;
  return av - bv;
}

int64_t GaugeValue(const WindowResult& r, const char* gauge) {
  auto it = r.after.gauges.find(gauge);
  return it == r.after.gauges.end() ? 0 : it->second;
}

/// The histogram of samples recorded during the window (bucket deltas).
Histogram HistDelta(const WindowResult& r, const char* name) {
  Histogram out;
  auto a = r.after.histograms.find(name);
  if (a == r.after.histograms.end()) return out;
  auto b = r.before.histograms.find(name);
  std::vector<uint64_t> buckets(Histogram::kNumBuckets);
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    buckets[i] = a->second.bucket_count(i) -
                 (b == r.before.histograms.end() ? 0
                                                 : b->second.bucket_count(i));
  }
  const Histogram* base =
      b == r.before.histograms.end() ? nullptr : &b->second;
  out.AbsorbCounts(buckets.data(), Histogram::kNumBuckets,
                   a->second.count() - (base ? base->count() : 0),
                   a->second.sum() - (base ? base->sum() : 0),
                   a->second.min(), a->second.max());
  return out;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  uint64_t samples;
  /// In BENCHMARK.json's end_to_end set; the rest of the untraced window's
  /// metrics repeat too poorly run to run (op p99, commit p50, peak RSS) or
  /// are normally 0 (failed fraction), so they ride in the per-layer set.
  bool end_to_end = false;
};

/// Metrics of one untraced window.
std::vector<Metric> UntracedMetrics(const WindowResult& r) {
  std::vector<double> op = r.op_lat_us;
  std::vector<double> commit = r.commit_lat_ms;
  const uint64_t attempted = r.ok + r.failed;
  return {
      {"throughput_mops", r.ok / r.seconds / 1e6, "Mops", r.ok, true},
      {"op_latency_p50_us", Percentile(&op, 50), "us", op.size(), true},
      {"op_latency_p99_us", Percentile(&op, 99), "us", op.size()},
      {"commit_latency_p50_ms", Percentile(&commit, 50), "ms", commit.size()},
      {"commit_latency_p99_ms", Percentile(&commit, 99), "ms", commit.size(),
       true},
      {"failed_op_fraction", Ratio(r.failed, attempted), "ratio", attempted},
      {"cpu_us_per_op", r.cpu_s * 1e6 / std::max<uint64_t>(r.ok, 1), "us",
       r.ok, true},
      {"rss_mb", PeakRssMb(), "MB", 1},
      {"setup_s", r.setup_start_s + r.setup_preload_s, "s", 1, true},
  };
}

/// Per metric, the median over the windows of a run; sample counts add up.
std::vector<Metric> MedianAcross(
    const std::vector<std::vector<Metric>>& windows) {
  std::vector<Metric> out = windows.front();
  for (size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    out[i].samples = 0;
    for (const std::vector<Metric>& w : windows) {
      values.push_back(w[i].value);
      out[i].samples += w[i].samples;
    }
    out[i].value = Percentile(&values, 50);
  }
  return out;
}

/// Per-layer metrics of one traced window.
std::vector<Metric> PerLayer(const WindowResult& r) {
  const double s = r.seconds;
  const uint64_t user_bytes = 16 * r.writes_ok;
  const uint64_t frames =
      Delta(r, "net.tcp.frames_received") + Delta(r, "net.tcp.frames_sent");
  const uint64_t syscalls = Delta(r, "net.tcp.recv_calls") +
                            Delta(r, "net.tcp.writev_calls") +
                            Delta(r, "net.uring.sqe_batches");
  auto pct = [&](const char* name, double p) {
    return static_cast<double>(HistDelta(r, name).Percentile(p));
  };
  auto count = [&](const char* name) { return HistDelta(r, name).count(); };
  const double issue_p50 = r.issue_ns.Percentile(50) / 1e3;
  const double issue_p99 = r.issue_ns.Percentile(99) / 1e3;
  const uint64_t issues = r.issue_ns.count();
  const uint64_t log_b = Delta(r, "ckpt.log_bytes_persisted");
  const uint64_t index_b = Delta(r, "ckpt.index_bytes_persisted");
  const uint64_t ckpts = Delta(r, "dpr.worker.checkpoints");
  return {
      {"dfaster.issue_us.p50", issue_p50, "us", issues},
      {"dfaster.issue_us.p99", issue_p99, "us", issues},
      {"dfaster.batch_fill.p50", pct("dfaster.client.batch_fill", 50), "ops",
       count("dfaster.client.batch_fill")},
      {"dfaster.partial_batch_share",
       Ratio(Delta(r, "dfaster.client.flush_dispatches"),
             Delta(r, "dfaster.client.batches")),
       "ratio", Delta(r, "dfaster.client.batches")},
      {"net.syscalls_per_frame", Ratio(syscalls, frames), "ratio", frames},
      {"net.uring.resubmit_share",
       Ratio(Delta(r, "net.uring.resubmits"), Delta(r, "net.uring.cqe_reaped")),
       "ratio", Delta(r, "net.uring.cqe_reaped")},
      {"net.loop.wakeups_per_frame",
       Ratio(Delta(r, "net.loop.wakeups"), frames), "ratio", frames},
      {"net.executor.queue_peak",
       static_cast<double>(GaugeValue(r, "net.executor.queue_peak")), "count",
       1},
      {"net.inmemory.queue_peak",
       static_cast<double>(GaugeValue(r, "net.inmemory.queue_peak")), "count",
       1},
      {"dpr.admission_retries_per_batch",
       Ratio(Delta(r, "dpr.worker.admission_retries"),
             Delta(r, "dpr.worker.batches")),
       "ratio", Delta(r, "dpr.worker.batches")},
      {"dpr.finder.report_to_cut_us.p50",
       pct("dpr.finder.report_to_cut_us", 50), "us",
       count("dpr.finder.report_to_cut_us")},
      {"dpr.finder.report_to_cut_us.p99",
       pct("dpr.finder.report_to_cut_us", 99), "us",
       count("dpr.finder.report_to_cut_us")},
      {"dpr.finder.cut_advances_per_s", Delta(r, "dpr.finder.cut_advances") / s,
       "1/s", Delta(r, "dpr.finder.cut_advances")},
      {"dpr.worker.checkpoints_per_s", ckpts / s, "1/s", ckpts},
      {"dpr.session.op_commit_us.p50", pct("dpr.session.op_commit_us", 50),
       "us", count("dpr.session.op_commit_us")},
      {"faster.checkpoint.stamp_us.p99", pct("faster.checkpoint.stamp_us", 99),
       "us", count("faster.checkpoint.stamp_us")},
      {"faster.checkpoint.stamp_to_durable_us.p50",
       pct("faster.checkpoint.stamp_to_durable_us", 50), "us",
       count("faster.checkpoint.stamp_to_durable_us")},
      {"faster.checkpoint.stamp_to_durable_us.p99",
       pct("faster.checkpoint.stamp_to_durable_us", 99), "us",
       count("faster.checkpoint.stamp_to_durable_us")},
      {"persisted_bytes_per_user_byte", Ratio(log_b + index_b, user_bytes),
       "ratio", user_bytes},
      {"ckpt.log_bytes_per_user_byte", Ratio(log_b, user_bytes), "ratio",
       user_bytes},
      {"ckpt.index_bytes_per_user_byte", Ratio(index_b, user_bytes), "ratio",
       user_bytes},
      {"ckpt.delta_share",
       Ratio(Delta(r, "ckpt.delta"),
             Delta(r, "ckpt.delta") + Delta(r, "ckpt.full")),
       "ratio", Delta(r, "ckpt.delta") + Delta(r, "ckpt.full")},
      {"ckpt.skip_share",
       Ratio(Delta(r, "ckpt.controller.skips"),
             Delta(r, "ckpt.controller.decisions")),
       "ratio", Delta(r, "ckpt.controller.decisions")},
      {"storage.io.completion_us.p50", pct("storage.io.completion_us", 50),
       "us", count("storage.io.completion_us")},
      {"storage.io.completion_us.p99", pct("storage.io.completion_us", 99),
       "us", count("storage.io.completion_us")},
      {"storage.sched.wait_us.p99", pct("storage.sched.wait_us", 99), "us",
       count("storage.sched.wait_us")},
      {"storage.fsyncs_per_checkpoint",
       Ratio(Delta(r, "storage.sched.fsyncs"), ckpts), "ratio", ckpts},
      {"storage.sched.coalesce_share",
       Ratio(Delta(r, "storage.sched.coalesced"),
             Delta(r, "storage.sched.requests")),
       "ratio", Delta(r, "storage.sched.requests")},
      {"setup.start_s", r.setup_start_s, "s", 1},
      {"setup.preload_s", r.setup_preload_s, "s", 1},
  };
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  printf("%s\n", title);
  for (const Metric& m : metrics) {
    printf("  %-44s %14.6g %-6s (n=%llu)\n", m.name.c_str(), m.value, m.unit,
           static_cast<unsigned long long>(m.samples));
  }
}

/// The configuration this run actually used. A run whose backends resolve
/// differently from the reference (io_uring for both) is not comparable.
void PrintRunRecord(const WorkloadSpec& spec) {
  const ClusterOptions o = OptionsFor(spec, "");
  const bool storage_uring = IoUringSupported();
  const bool net_uring =
      ResolveNetBackend(NetBackend::kAuto) == NetBackend::kIoUring;
  const char* net =
      !spec.tcp ? "in-memory" : net_uring ? "io_uring" : "epoll";
  const bool comparable = storage_uring && (!spec.tcp || net_uring);
  JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(spec.name);
  w.Key("seed").UInt(g_run.seed);
  w.Key("seconds").UInt(g_run.seconds);
  w.Key("trace").Bool(g_run.trace);
  w.Key("net_backend").String(net);
  w.Key("storage_engine").String(storage_uring ? "io_uring" : "thread_pool");
  w.Key("flush_policy").BeginObject();
  w.Key("adaptive").Bool(o.ckpt.adaptive);
  w.Key("base_interval_us").UInt(o.checkpoint_interval_us);
  w.Key("full_every").UInt(o.ckpt.full_every);
  w.Key("target_dirty_bytes").UInt(o.ckpt.target_dirty_bytes);
  w.EndObject();
  w.Key("finder").String(o.finder == FinderKind::kApprox ? "approximate"
                                                          : "other");
  w.Key("finder_interval_us").UInt(o.finder_interval_us);
  w.Key("shards").UInt(o.num_workers);
  w.Key("server_threads").UInt(o.server_threads);
  w.Key("keys").UInt(spec.keys);
  w.Key("index_buckets").UInt(o.index_buckets);
  w.Key("read_fraction").Double(spec.read_fraction);
  w.Key("rmw_fraction").Double(spec.rmw_fraction);
  w.Key("zipf_theta").Double(spec.zipf_theta);
  w.Key("sessions").UInt(kSessions);
  w.Key("batch").UInt(kBatch);
  w.Key("window").UInt(kWindow);
  w.Key("comparable").Bool(comparable);
  w.EndObject();
  printf("run record: %s\n", w.str().c_str());
  if (!comparable) {
    printf("NOT COMPARABLE: a backend resolved differently from io_uring\n");
  }
}

void PrintTimeline(const WindowResult& r) {
  printf("  timeline, Mops per second:");
  for (double v : r.timeline_mops) printf(" %.3f", v);
  printf("\n  timeline, commit p50 ms by issue second:");
  for (double v : r.timeline_commit_ms) printf(" %.1f", v);
  printf("\n");
}

int Usage() {
  fprintf(stderr,
          "usage: dpr_perfbench --workload <name> --seed <n> --seconds <n> "
          "--trace <0|1> [--out_dir <dir>]\nworkloads:");
  for (const WorkloadSpec& w : kWorkloads) fprintf(stderr, " %s", w.name);
  fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  g_run.out_dir = ".bench_build/perfbench-out";
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      g_run.seed = strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      g_run.seconds = strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || g_run.seconds < 1 || g_run.seconds > 60) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      g_run.trace = value == "1";
    } else if (flag == "--out_dir") {
      g_run.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) g_run.spec = &w;
  }
  if (g_run.spec == nullptr || !have_seed) return Usage();
  const WorkloadSpec& spec = *g_run.spec;
  std::filesystem::create_directories(g_run.out_dir);
  Watchdog watchdog;
  PrintRunRecord(spec);

  // The run's seconds are split over kWindows windows, each on a fresh
  // deployment, and every metric is the median over the windows: a cluster
  // that lands in a slow state moves one window, not the result.
  const uint64_t windows = std::min<uint64_t>(kWindows, g_run.seconds);
  const uint64_t window_ns = g_run.seconds * 1000000000ull / windows;
  SessionOps ops;
  for (uint32_t i = 0; i < kSessions; ++i) {
    ops.push_back(GenerateOps(spec, g_run.seed, i));
  }
  auto run_windows = [&](bool traced, SpanLog* spans) {
    std::vector<WindowResult> out;
    for (uint64_t i = 0; i < windows; ++i) {
      // The RMW workload's crash-recovery check runs after the last window.
      out.push_back(MeasureWindow(spec, ops, traced, window_ns,
                                  i + 1 == windows, spans));
      const WindowResult& r = out.back();
      printf("%s window %llu: %.4f Mops; setup: Start %.4f s, preload %.4f s\n",
             traced ? "traced" : "untraced",
             static_cast<unsigned long long>(i + 1), r.ok / r.seconds / 1e6,
             r.setup_start_s, r.setup_preload_s);
      PrintTimeline(r);
    }
    return out;
  };

  const std::vector<WindowResult> untraced = run_windows(false, nullptr);
  std::vector<std::vector<Metric>> per_window;
  for (const WindowResult& r : untraced) {
    per_window.push_back(UntracedMetrics(r));
  }
  const std::vector<Metric> plain = MedianAcross(per_window);
  PrintMetrics("untraced, median over windows:", plain);

  std::vector<Metric> reported;
  for (const Metric& m : plain) {
    if (m.end_to_end != g_run.trace) reported.push_back(m);
  }
  if (g_run.trace) {
    SpanLog spans(1 << 20);
    const std::vector<WindowResult> traced = run_windows(true, &spans);
    std::vector<std::vector<Metric>> traced_layers, traced_plain;
    for (const WindowResult& r : traced) {
      traced_layers.push_back(PerLayer(r));
      traced_plain.push_back(UntracedMetrics(r));
    }
    std::vector<Metric> layers = MedianAcross(traced_layers);
    const std::vector<Metric> with_spans = MedianAcross(traced_plain);
    // Index 0 is throughput_mops, 1 op_latency_p50_us.
    const double overhead = 1 - with_spans[0].value / plain[0].value;
    layers.push_back({"trace.overhead_share", overhead, "ratio", windows});
    // Only the last window crashes and recovers (RMW workload).
    const double recovery_s = traced.back().recovery_s;
    layers.push_back({"recovery.handle_failure_s", recovery_s, "s",
                      recovery_s > 0 ? 1u : 0u});
    PrintMetrics("per-layer, traced, median over windows:", layers);
    printf("tracing overhead: throughput %.2f%%, op_latency_p50 %+.2f%%\n",
           overhead * 100, (with_spans[1].value / plain[1].value - 1) * 100);
    printf("self time by span (traced windows, ops sampled 1 in %llu):\n",
           static_cast<unsigned long long>(kSpanStride));
    for (const SpanLog::SelfTime& t : spans.SelfTimes()) {
      printf("  %-20s n=%-9llu self=%10.2f ms  mean=%9.3f us\n",
             t.name.c_str(), static_cast<unsigned long long>(t.count),
             t.total_ms, t.mean_us);
    }
    const std::string path = g_run.out_dir + "/spans_" + spec.name + ".csv";
    if (!spans.WriteCsv(path, g_run.start_ns)) {
      fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    printf("spans: %zu written to %s (%llu dropped)\n", spans.size(),
           path.c_str(), static_cast<unsigned long long>(spans.dropped()));
    reported.insert(reported.begin(), layers.begin(), layers.end());
  }

  uint64_t attempted = 0, failed = 0;
  for (const WindowResult& r : untraced) {
    attempted += r.ok + r.failed;
    failed += r.failed;
  }
  const bool correct = g_violations.count() == 0;
  if (!correct) {
    const std::string report = g_violations.Report();
    printf("%s(record: %s)\n", report.c_str(),
           WriteRecord("VIOLATION", report).c_str());
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(correct);
  w.Key("attempted").UInt(std::max<uint64_t>(attempted, 1));
  w.Key("failed").UInt(failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : reported) {
    w.Key(m.name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  printf("%s\n", w.str().c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dpr::perfbench

int main(int argc, char** argv) { return dpr::perfbench::Main(argc, argv); }
