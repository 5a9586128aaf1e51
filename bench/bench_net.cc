// Transport bench: echo and KvBatch round-trip throughput/latency over the
// TCP transport while scaling the connection count (1 -> 256). Drives every
// connection with a pipelined async window, so the transport's syscall and
// wakeup count per frame — not the handler — is what saturates first. The
// committed baseline (bench/baselines/BENCH_net.json) was captured from the
// pre-event-loop transport (one blocking thread per accepted connection,
// one send(2) per frame); the event-loop rewrite is expected to beat it by
// >= 1.5x at 64+ connections on the same machine.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/sync.h"
#include "dfaster/protocol.h"
#include "harness/stats.h"
#include "net/tcp_net.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

// Sample one op latency out of this many (per connection) so recording does
// not perturb the hot loop.
constexpr uint64_t kLatencySampleEvery = 64;

// One pipelined connection: keeps `window` calls in flight, reissuing from
// each response callback until the deadline, then drains.
class PipelinedClient {
 public:
  PipelinedClient(std::string address, std::string payload, uint32_t window,
                  NetBackend backend)
      : address_(std::move(address)),
        payload_(std::move(payload)),
        window_(window),
        backend_(backend) {}

  Status Connect() {
    return ConnectTcp(address_, TcpClientOptions{backend_}, &conn_);
  }

  void Run(uint64_t deadline_us) {
    deadline_us_ = deadline_us;
    {
      MutexLock lock(mu_);
      in_flight_ = window_;
    }
    for (uint32_t i = 0; i < window_; ++i) Issue();
  }

  // Blocks until every in-flight call has resolved. Bounded: a stalled
  // transport aborts the bench with the count still in flight instead of
  // hanging it.
  void Drain() {
    MutexLock lock(mu_);
    const bool drained =
        cv_.WaitFor(mu_, std::chrono::seconds(60),
                    [this]() REQUIRES(mu_) { return in_flight_ == 0; });
    DPR_CHECK_MSG(drained,
                  "bench_net stalled: %llu calls in flight after 60 s "
                  "(issued %llu, completed %llu)",
                  static_cast<unsigned long long>(in_flight_),
                  static_cast<unsigned long long>(issued_.load()),
                  static_cast<unsigned long long>(completed_.load()));
  }

  uint64_t completed() const { return completed_.load(); }
  uint64_t errors() const { return errors_.load(); }
  const Histogram& latency() const { return latency_; }

 private:
  // Issues one call for a slot already counted in in_flight_.
  void Issue() {
    const uint64_t seq = issued_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t start_us =
        (seq % kLatencySampleEvery == 0) ? NowMicros() : 0;
    conn_->CallAsync(payload_, [this, start_us](Status s, Slice) {
      if (s.ok()) {
        completed_.fetch_add(1, std::memory_order_relaxed);
        if (start_us != 0) latency_.Record(NowMicros() - start_us);
      } else {
        errors_.fetch_add(1, std::memory_order_relaxed);
      }
      // A reissue keeps its slot counted, so Drain never sees a momentary
      // zero while calls are still live.
      if (s.ok() && NowMicros() < deadline_us_) {
        Issue();
        return;
      }
      bool drained;
      {
        MutexLock lock(mu_);
        drained = --in_flight_ == 0;
      }
      if (drained) cv_.NotifyAll();
    });
  }

  const std::string address_;
  const std::string payload_;
  const uint32_t window_;
  const NetBackend backend_;
  std::unique_ptr<RpcConnection> conn_;
  uint64_t deadline_us_ = 0;
  // relaxed: tallies read after Drain, which orders them through mu_.
  // Written from the issuing thread (Run) and the callback thread.
  std::atomic<uint64_t> issued_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> errors_{0};
  // Recorded only from successful callbacks, which all run on the one
  // client loop thread.
  Histogram latency_;
  Mutex mu_;
  CondVar cv_;
  uint64_t in_flight_ GUARDED_BY(mu_) = 0;
};

struct NetPoint {
  double mops = 0;
  double syscalls_per_frame = 0;
  Histogram latency;
};

uint64_t CounterOrZero(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Submission-side syscalls per frame moved, from registry counter deltas:
// epoll pays recv+writev per wakeup, the uring backend pays one
// io_uring_enter per SQE batch regardless of how many frames ride it.
double SyscallsPerFrame(const MetricsSnapshot& before,
                        const MetricsSnapshot& after) {
  MetricsSnapshot delta = after;
  delta.SubtractCounters(before);
  const uint64_t syscalls = CounterOrZero(delta, "net.tcp.recv_calls") +
                            CounterOrZero(delta, "net.tcp.writev_calls") +
                            CounterOrZero(delta, "net.uring.sqe_batches");
  const uint64_t frames = CounterOrZero(delta, "net.tcp.frames_sent") +
                          CounterOrZero(delta, "net.tcp.frames_received");
  return frames > 0 ? static_cast<double>(syscalls) / frames : 0;
}

NetPoint RunPoint(RpcServer* server, const std::string& payload,
                  uint32_t conns, uint32_t window, uint64_t duration_ms,
                  NetBackend backend) {
  std::vector<std::unique_ptr<PipelinedClient>> clients;
  clients.reserve(conns);
  for (uint32_t i = 0; i < conns; ++i) {
    auto client = std::make_unique<PipelinedClient>(server->address(),
                                                    payload, window, backend);
    Status s = client->Connect();
    DPR_CHECK_MSG(s.ok(), "connect: %s", s.ToString().c_str());
    clients.push_back(std::move(client));
  }
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  Stopwatch timer;
  const uint64_t deadline_us = NowMicros() + duration_ms * 1000;
  for (auto& client : clients) client->Run(deadline_us);
  for (auto& client : clients) client->Drain();
  const double seconds = timer.ElapsedSeconds();
  const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();

  NetPoint point;
  uint64_t completed = 0;
  for (auto& client : clients) {
    completed += client->completed();
    DPR_CHECK_MSG(client->errors() == 0, "transport errors during bench");
    point.latency.Merge(client->latency());
  }
  point.mops = seconds > 0 ? completed / seconds / 1e6 : 0;
  point.syscalls_per_frame = SyscallsPerFrame(before, after);
  return point;
}

std::string MakeKvPayload(uint32_t ops) {
  KvBatchRequest request;
  for (uint32_t i = 0; i < ops; ++i) {
    request.ops.push_back(KvOp{KvOp::Type::kUpsert, i, i * 2});
  }
  std::string encoded;
  request.EncodeTo(&encoded);
  return encoded;
}

void KvHandler(Slice request, std::string* response) {
  KvBatchRequest batch;
  KvBatchResponse result;
  if (batch.DecodeFrom(request)) {
    result.results.resize(batch.ops.size());
    for (size_t i = 0; i < batch.ops.size(); ++i) {
      result.results[i] = KvOpResult{KvResult::kOk, batch.ops[i].key};
    }
  }
  result.EncodeTo(response);
}

void Run(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "net");
  json.RecordConfig(config);
  const uint32_t window =
      static_cast<uint32_t>(flags.GetInt("window", 64));
  const uint32_t kv_ops =
      static_cast<uint32_t>(flags.GetInt("kv_ops", 32));
  const uint64_t duration_ms = flags.GetInt("duration_ms", 800);
  flags.RejectUnknown();
  json.artifact().SetConfig("window", static_cast<uint64_t>(window));
  json.artifact().SetConfig("kv_ops", static_cast<uint64_t>(kv_ops));
  json.artifact().SetConfig("point_duration_ms", duration_ms);

  const std::vector<uint32_t> conn_counts =
      config.quick ? std::vector<uint32_t>{1, 4, 16, 64}
                   : std::vector<uint32_t>{1, 4, 16, 64, 128, 256};

  struct Mode {
    std::string name;
    std::string payload;
    RpcHandler handler;
  };
  std::vector<Mode> modes;
  modes.push_back({"echo", std::string(64, 'e'),
                   [](Slice request, std::string* response) {
                     response->assign(request.data(), request.size());
                   }});
  modes.push_back({"kv", MakeKvPayload(kv_ops), KvHandler});

  // Backend axis: epoll always; uring when this kernel supports it. Series
  // names carry the backend so one artifact holds both curves (the epoll
  // series keeps the historical unsuffixed names for baseline comparison).
  struct Backend {
    std::string suffix;  // "" for epoll (historical names), ".uring"
    NetBackend backend;
  };
  std::vector<Backend> backends = {{"", NetBackend::kEpoll}};
  if (NetUringSupported()) {
    backends.push_back({".uring", NetBackend::kIoUring});
  } else {
    printf("io_uring backend unsupported on this kernel; epoll only\n");
  }
  json.artifact().SetConfig("uring_supported",
                            static_cast<uint64_t>(NetUringSupported()));

  for (const Backend& be : backends) {
    const char* be_name = be.backend == NetBackend::kIoUring ? "uring"
                                                             : "epoll";
    for (const Mode& mode : modes) {
      printf("\n=== bench_net: %s/%s (payload=%zuB, window=%u) ===\n",
             mode.name.c_str(), be_name, mode.payload.size(), window);
      ResultTable table({"conns", "Mops", "sys/frame", "p50us", "p99us"});
      for (uint32_t conns : conn_counts) {
        TcpServerOptions server_options;
        server_options.backend = be.backend;
        auto server = MakeTcpServer(0, server_options);
        Status s = server->Start(mode.handler);
        DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
        const NetPoint point = RunPoint(server.get(), mode.payload, conns,
                                        window, duration_ms, be.backend);
        server->Stop();
        json.artifact().AddPoint(mode.name + ".tput" + be.suffix, conns,
                                 point.mops);
        json.artifact().AddPoint(mode.name + ".syscalls_per_frame" + be.suffix,
                                 conns, point.syscalls_per_frame);
        json.artifact().AddHistogram(mode.name + ".latency" + be.suffix + "@" +
                                         std::to_string(conns),
                                     point.latency);
        table.AddRow({std::to_string(conns), ResultTable::Fmt(point.mops, 3),
                      ResultTable::Fmt(point.syscalls_per_frame, 2),
                      std::to_string(point.latency.Percentile(50)),
                      std::to_string(point.latency.Percentile(99))});
      }
      table.Print();
    }
  }
  json.Finish();
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_net (quick=%d)\n", flags.GetBool("quick", true));
  dpr::Run(flags);
  return 0;
}
