#include "net/conn.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <utility>

#include "common/hash.h"
#include "obs/metrics.h"

namespace dpr {
namespace internal {

namespace {

// Live server loop threads, either backend.
Gauge* LoopThreads() {
  static Gauge* const g = MetricsRegistry::Default().gauge("net.loop.threads");
  return g;
}

// The loop whose thread this is; null off loop threads.
thread_local const Loop* current_loop = nullptr;

}  // namespace

// ------------------------------------------------------------------- Loop

Loop::~Loop() {
  if (wake_fd_ >= 0) close(wake_fd_);
}

Status Loop::Open() {
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return Status::IOError(std::string("eventfd: ") + strerror(errno));
  }
  return OpenDriver();
}

Status Loop::Start() {
  if (wake_fd_ < 0) DPR_RETURN_NOT_OK(Open());
  {
    MutexLock lock(post_mu_);
    accepting_posts_ = true;
  }
  thread_ = std::thread([this] {
    current_loop = this;
    Run();
  });
  return Status::OK();
}

bool Loop::Stop() {
  if (!thread_.joinable()) return false;
  {
    MutexLock lock(post_mu_);
    if (accepting_posts_) {
      accepting_posts_ = false;
      posted_.push_back([this] {
        stopping_ = true;
        if (on_stop_) on_stop_();
        OnStop();
      });
    }
  }
  Wake();
  thread_.join();
  return true;
}

bool Loop::Post(std::function<void()> fn) {
  {
    MutexLock lock(post_mu_);
    if (!accepting_posts_) return false;
    posted_.push_back(std::move(fn));
  }
  Wake();
  return true;
}

bool Loop::InLoopThread() const { return current_loop == this; }

void Loop::Wake() {
  if (wake_pending_.exchange(true, std::memory_order_relaxed)) return;
  const uint64_t one = 1;
  // dprlint: allowed(net-raw-write) eventfd nudge, not a stream write.
  ssize_t n = write(wake_fd_, &one, sizeof(one));
  (void)n;  // eventfd writes cannot short-write; EAGAIN means "already
            // signaled", which is exactly what we wanted.
}

void Loop::RunPosted() {
  std::vector<std::function<void()>> tasks;
  {
    MutexLock lock(post_mu_);
    tasks.swap(posted_);
  }
  for (auto& fn : tasks) fn();
  RunDeferred();
}

void Loop::RunDeferred() {
  while (!deferred_.empty()) {
    std::vector<std::function<void()>> tasks;
    tasks.swap(deferred_);
    for (auto& task : tasks) task();
  }
}

// ------------------------------------------------------------------- Conn

Conn::Conn(Loop* loop, int fd, ConnOwner* owner, size_t out_budget)
    : fd_(fd), loop_(loop), owner_(owner), out_budget_(out_budget) {}

Conn::~Conn() {
  if (fd_ >= 0) close(fd_);
}

bool Conn::Send(OutFrame frame, bool duplicate) {
  {
    MutexLock guard(out_mu_);
    if (!writable_) return false;
    const size_t bytes = frame.size() * (duplicate ? 2 : 1);
    out_bytes_ += bytes;
    if (out_budget_ > 0) {
      Stats().output_queue_bytes->Add(static_cast<int64_t>(bytes));
    }
    if (duplicate) out_.push_back(frame);
    out_.push_back(std::move(frame));
    if (flush_scheduled_) return true;
    flush_scheduled_ = true;
  }
  auto flush = [self = shared_from_this()] {
    if (!self->closed_) self->Flush();
  };
  if (loop_->InLoopThread()) {
    loop_->Defer(std::move(flush));
    return true;
  }
  return loop_->Post(std::move(flush));
}

void Conn::Close(const Status& reason) {
  if (closed_) return;
  closed_ = true;
  {
    MutexLock guard(out_mu_);
    writable_ = false;
  }
  CloseIo();
  owner_->OnClosed(this, reason);
}

void Conn::Ingest(const char* data, size_t len) {
  bool garbage = false;
  auto deliver = [this](uint64_t id, const char* p, size_t n) {
    owner_->OnFrame(this, id, p, n);
  };
  if (carry_.empty()) {
    const size_t pos = ParseFrameStream(data, len, &garbage, deliver);
    if (!garbage && pos < len) carry_.assign(data + pos, len - pos);
  } else {
    carry_.append(data, len);
    const size_t pos =
        ParseFrameStream(carry_.data(), carry_.size(), &garbage, deliver);
    carry_.erase(0, pos);
  }
  // Not a frame boundary we can trust; the stream is garbage.
  if (garbage) Close(Status::IOError("bad frame stream"));
}

bool Conn::NextBatch() {
  MutexLock guard(out_mu_);
  if (out_.empty()) {
    flush_scheduled_ = false;
    return false;
  }
  // The iovecs point into deque elements: std::deque keeps references valid
  // across push_back/pop_front, and only this loop thread pops.
  int iovcnt = 0;
  BuildIovecs(out_, iov_, &iovcnt, &batch_bytes_);
  msg_ = msghdr{};
  msg_.msg_iov = iov_;
  msg_.msg_iovlen = static_cast<size_t>(iovcnt);
  return true;
}

size_t Conn::Wrote(size_t sent) {
  size_t completed;
  size_t queued;
  {
    MutexLock guard(out_mu_);
    completed = ConsumeWritten(&out_, sent);
    out_bytes_ -= sent;
    queued = out_bytes_;
  }
  if (sent < batch_bytes_) Stats().short_writes->Add();
  if (out_budget_ > 0) {
    Stats().output_queue_bytes->Sub(static_cast<int64_t>(sent));
  }
  Stats().frames_sent->Add(completed);
  if (out_budget_ > 0 && !closed_ && read_gate_.Update(queued, out_budget_)) {
    SetReadPaused(read_gate_.paused);
  }
  return completed;
}

void Conn::DropOutput() {
  size_t dropped;
  bool torn;
  {
    MutexLock guard(out_mu_);
    torn = !out_.empty() && out_.front().offset > 0;
    dropped = out_bytes_;
    out_.clear();
    out_bytes_ = 0;
    flush_scheduled_ = false;
  }
  if (torn) Stats().poisoned->Add();
  if (out_budget_ > 0 && dropped > 0) {
    Stats().output_queue_bytes->Sub(static_cast<int64_t>(dropped));
  }
}

void Conn::FinishClose() {
  close(fd_);
  fd_ = -1;
  loop_->Defer([this] { owner_->OnFullyClosed(this); });
}

// ----------------------------------------------------------------- server

namespace {

// Lifetime: the registry holds each connection until it fully closed.
// Requests run inline on the connection's loop thread, so a handler's Send
// always finds its connection alive.
class TcpServer final : public RpcServer, public ConnOwner {
 public:
  TcpServer(uint16_t port, const TcpServerOptions& options,
            std::vector<std::unique_ptr<Loop>> loops)
      : requested_port_(port), options_(options), loops_(std::move(loops)) {}

  ~TcpServer() override { Stop(); }

  Status Start(RpcHandler handler) override {
    handler_ = std::move(handler);
    stop_.store(false, std::memory_order_release);
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return Status::IOError("socket failed");
    ConfigureSocket(listen_fd_, SocketKind::kListener);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(requested_port_);
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return Status::IOError(std::string("bind: ") + strerror(errno));
    }
    socklen_t len = sizeof(addr);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port_ = ntohs(addr.sin_port);
    if (listen(listen_fd_, 128) != 0) {
      return Status::IOError(std::string("listen: ") + strerror(errno));
    }
    for (auto& loop : loops_) {
      Loop* l = loop.get();
      l->set_on_stop([this, l] { CloseLoopConns(l); });
      DPR_RETURN_NOT_OK(l->Start());
      LoopThreads()->Add(1);
    }
    Loop* l0 = loops_[0].get();
    const bool posted = l0->Post([this, l0] {
      l0->Listen(listen_fd_, [this](int fd) { Adopt(fd); });
    });
    return posted ? Status::OK()
                  : Status::IOError("loop rejected the listener");
  }

  void Stop() override {
    if (stop_.exchange(true)) return;
    // Each loop finishes the request it is running, closes its own
    // connections on its thread (the on_stop hook) and drains its kernel ops
    // before joining, so the teardown below is single-threaded.
    for (auto& loop : loops_) {
      if (loop->Stop()) LoopThreads()->Sub(1);
    }
    if (listen_fd_ >= 0) {
      close(listen_fd_);
      listen_fd_ = -1;
    }
    // Empty unless a loop never started.
    std::map<Conn*, std::shared_ptr<Conn>> conns;
    {
      MutexLock guard(conns_mu_);
      conns.swap(conns_);
    }
    Stats().server_conns->Sub(static_cast<int64_t>(conns.size()));
  }

  std::string address() const override {
    return "127.0.0.1:" + std::to_string(bound_port_);
  }

  // Loop thread: runs the request to completion, reading it in place in
  // the receive buffer. The loop reads nothing more while the handler runs,
  // which is the intake's backpressure; the response flushes when this I/O
  // pass ends. Send fails only once the connection is closing, when the
  // response has nowhere to go.
  void OnFrame(Conn* conn, uint64_t id, const char* payload,
               size_t len) override {
    std::string response;
    handler_(Slice(payload, len), &response);
    (void)conn->Send(MakeFrame(id, std::move(response)));
  }

  void OnClosed(Conn* /*conn*/, const Status& /*reason*/) override {}

  // Drops the registry ref.
  void OnFullyClosed(Conn* conn) override {
    std::shared_ptr<Conn> ref;
    {
      MutexLock guard(conns_mu_);
      auto it = conns_.find(conn);
      if (it == conns_.end()) return;
      ref = std::move(it->second);
      conns_.erase(it);
    }
    Stats().server_conns->Sub(1);
  }

 private:
  // Listener (loop-0 thread): pin the socket to the next loop round-robin.
  void Adopt(int fd) {
    Stats().accepted->Add();
    ConfigureSocket(fd, SocketKind::kData);
    Loop* loop = loops_[next_loop_++ % loops_.size()].get();
    std::shared_ptr<Conn> conn =
        loop->NewConn(fd, this, options_.max_output_queue_bytes);
    {
      MutexLock guard(conns_mu_);
      conns_[conn.get()] = conn;
    }
    Stats().server_conns->Add(1);
    if (!loop->Post([conn] { conn->Open(); })) OnFullyClosed(conn.get());
  }

  // on_stop hook (that loop's thread): close every conn pinned there.
  void CloseLoopConns(Loop* loop) {
    std::vector<std::shared_ptr<Conn>> mine;
    {
      MutexLock guard(conns_mu_);
      for (auto& [ptr, conn] : conns_) {
        if (ptr->loop() == loop) mine.push_back(conn);
      }
    }
    for (auto& conn : mine) conn->Close(Status::Unavailable("server stopping"));
  }

  const uint16_t requested_port_;
  const TcpServerOptions options_;
  uint16_t bound_port_ = 0;
  int listen_fd_ = -1;
  RpcHandler handler_;
  // seq_cst exchange makes Stop idempotent across threads; Start clears it
  // before any loop runs. It publishes no other data.
  std::atomic<bool> stop_{true};
  const std::vector<std::unique_ptr<Loop>> loops_;
  size_t next_loop_ = 0;  // loop-0 thread only (accept path)
  Mutex conns_mu_{LockRank::kTransportLoop, "net.tcp.conns"};
  std::map<Conn*, std::shared_ptr<Conn>> conns_ GUARDED_BY(conns_mu_);
};

// ----------------------------------------------------------------- client

// CallAsync only enqueues a frame; the loop's flush coalesces everything
// queued since the last flush into one vectored write. Response callbacks
// run on the loop thread, which every client connection of one backend
// shares, so client thread count does not grow with connection count.
class TcpClient final : public RpcConnection, public ConnOwner {
 public:
  explicit TcpClient(const std::string& peer)
      : peer_scope_(HashBytes(peer.data(), peer.size())) {}

  // Creates the connection and arms its reads before any call is issued.
  bool Attach(Loop* loop, int fd) {
    conn_ = loop->NewConn(fd, this, /*out_budget=*/0);
    return loop->Post([conn = conn_] { conn->Open(); });
  }

  ~TcpClient() override {
    // Hand the close to the loop thread and wait until no kernel op or loop
    // frame references the connection. The wait needs BOTH conditions:
    // the loop may have fully closed the connection (peer reset) before
    // this destructor ran, while the closure below, capturing `this`, is
    // still queued.
    const bool posted = conn_->loop()->Post([this] {
      conn_->Close(Status::Unavailable("connection destroyed"));
      MutexLock guard(close_mu_);
      close_task_ran_ = true;
      closed_cv_.NotifyAll();
    });
    if (posted) {
      MutexLock guard(close_mu_);
      closed_cv_.Wait(close_mu_, [this]() REQUIRES(close_mu_) {
        return fully_closed_ && close_task_ran_;
      });
    }
    FailPending(Status::Unavailable("connection destroyed"));
  }

  void CallAsync(std::string request, ResponseCallback callback) override {
    bool duplicate = false;
    if (!ApplyClientNetFaults(peer_scope_, callback, &duplicate)) return;
    const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock guard(pending_mu_);
      pending_[id] = std::move(callback);
    }
    // A duplicate goes out twice with one id: the first response resolves
    // the call and the second is dropped as an unknown id.
    if (conn_->Send(MakeFrame(id, std::move(request)), duplicate)) return;
    ResponseCallback cb = TakePending(id);
    if (cb) cb(Status::Transient("connection closed"), Slice());
  }

  // Loop thread: the Slice points into the receive buffer and is valid
  // only during the callback.
  void OnFrame(Conn* /*conn*/, uint64_t id, const char* payload,
               size_t len) override {
    ResponseCallback cb = TakePending(id);
    if (cb) cb(Status::OK(), Slice(payload, len));
  }

  void OnClosed(Conn* /*conn*/, const Status& reason) override {
    FailPending(reason);
  }

  void OnFullyClosed(Conn* /*conn*/) override {
    MutexLock guard(close_mu_);
    fully_closed_ = true;
    closed_cv_.NotifyAll();
  }

 private:
  ResponseCallback TakePending(uint64_t id) {
    MutexLock guard(pending_mu_);
    auto it = pending_.find(id);
    if (it == pending_.end()) return nullptr;
    ResponseCallback cb = std::move(it->second);
    pending_.erase(it);
    return cb;
  }

  void FailPending(const Status& s) {
    std::map<uint64_t, ResponseCallback> orphans;
    {
      MutexLock guard(pending_mu_);
      orphans.swap(pending_);
    }
    for (auto& [id, cb] : orphans) {
      (void)id;
      cb(s, Slice());
    }
  }

  const uint64_t peer_scope_;
  std::shared_ptr<Conn> conn_;
  // relaxed: request-id allocator; uniqueness is all that matters, the id
  // is published through pending_mu_.
  std::atomic<uint64_t> next_id_{1};
  Mutex pending_mu_{LockRank::kTransport, "net.tcp.pending"};
  std::map<uint64_t, ResponseCallback> pending_ GUARDED_BY(pending_mu_);
  Mutex close_mu_{LockRank::kTransport, "net.tcp.close"};
  CondVar closed_cv_;
  bool fully_closed_ GUARDED_BY(close_mu_) = false;
  bool close_task_ran_ GUARDED_BY(close_mu_) = false;
};

}  // namespace

std::unique_ptr<RpcServer> NewServer(
    uint16_t port, const TcpServerOptions& options,
    std::vector<std::unique_ptr<Loop>> loops) {
  return std::make_unique<TcpServer>(port, options, std::move(loops));
}

std::unique_ptr<RpcConnection> NewClient(Loop* loop, int fd,
                                         const std::string& peer) {
  auto client = std::make_unique<TcpClient>(peer);
  if (!client->Attach(loop, fd)) return nullptr;
  return client;
}

}  // namespace internal
}  // namespace dpr
