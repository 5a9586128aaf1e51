#ifndef DPR_NET_CONN_H_
#define DPR_NET_CONN_H_

// Backend-neutral connection core shared by both TCP transport drivers:
// epoll readiness plus recv/sendmsg (event_loop.cc) and io_uring multishot
// recv/accept plus SENDMSG SQEs (uring_net.cc). A driver supplies a Loop
// subclass (one I/O thread) and a Conn subclass that moves bytes; every
// other piece of connection state lives here exactly once:
//   * Loop: the posted-closure queue and its eventfd wakeup, deferred
//     tasks, and the start/stop handshake;
//   * Conn: the outbound OutFrame queue with its flush-scheduled, writable
//     and torn-frame bookkeeping, the inbound carry buffer feeding
//     ParseFrameStream, and the ReadGate;
//   * NewServer / NewClient: the listener, connection registry, inline
//     dispatch and stop order; the pending-id map and CallAsync with its
//     fault probes.

#include <sys/socket.h>
#include <sys/uio.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "net/frame.h"
#include "net/rpc.h"
#include "net/tcp_net.h"

namespace dpr {
namespace internal {

class Conn;
class ConnOwner;

/// One I/O thread. Threading contract:
///  * Post() hands a closure to the loop thread from any thread; closures
///    run in submission order. Every closure accepted before Stop runs;
///    once Stop has begun, Post returns false and drops the closure.
///  * Defer() (loop thread only) runs a task once no connection handler
///    frame is on the loop's stack — the only safe point to release a
///    connection's last owner reference.
class Loop {
 public:
  virtual ~Loop();

  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  /// Creates the wake eventfd and the driver's kernel objects. Start calls
  /// it when the owner has not; factories call it early so a failure can
  /// fall back to another backend before any thread exists.
  Status Open();
  /// Spawns the loop thread (opening first if needed).
  Status Start();
  /// On the loop thread: runs every closure posted so far, then the
  /// on_stop hook and the driver's shutdown; then joins. Returns whether a
  /// thread was joined. Driver destructors call it before their members die.
  bool Stop();

  bool Post(std::function<void()> fn);
  void Defer(std::function<void()> task) {
    deferred_.push_back(std::move(task));
  }

  /// Loop thread: true once shutdown began.
  bool stopping() const { return stopping_; }
  /// Whether the caller is this loop's own thread.
  bool InLoopThread() const;

  /// Loop-thread hook run first during Stop; the server closes the
  /// connections pinned to this loop here. Set before Start.
  void set_on_stop(std::function<void()> fn) { on_stop_ = std::move(fn); }

  /// Wraps the connected socket `fd` as a connection pinned to this loop.
  /// The connection takes ownership of `fd`; it starts receiving once
  /// Conn::Open runs on the loop thread.
  virtual std::shared_ptr<Conn> NewConn(int fd, ConnOwner* owner,
                                        size_t out_budget) = 0;
  /// Loop thread: accepts on `listen_fd` until Stop, handing every accepted
  /// socket to `on_accept` on this thread.
  virtual void Listen(int listen_fd, std::function<void(int)> on_accept) = 0;

 protected:
  Loop() = default;

  virtual Status OpenDriver() = 0;
  virtual void Run() = 0;
  /// Loop thread, after the on_stop hook: cancel driver-owned operations.
  virtual void OnStop() {}

  /// The driver read the wake eventfd (read(2) returned, or its READ CQE
  /// landed). Must follow that read: clearing the flag first would let a
  /// Post racing the read have its eventfd write consumed while the flag
  /// stays set, and every later Post would then skip its wakeup.
  void WakeConsumed() { wake_pending_.store(false, std::memory_order_relaxed); }
  /// Runs the posted closures, then the deferred tasks.
  void RunPosted();
  void RunDeferred();

  int wake_fd() const { return wake_fd_; }

 private:
  void Wake();

  int wake_fd_ = -1;
  std::thread thread_;
  // Loop-thread-only state.
  bool stopping_ = false;
  std::function<void()> on_stop_;
  std::vector<std::function<void()>> deferred_;
  // relaxed: collapses redundant eventfd writes. Set by the first Post since
  // the last wake; cleared only after the loop consumed the eventfd, so a
  // set flag always means a wakeup is still on its way.
  std::atomic<bool> wake_pending_{false};
  Mutex post_mu_{LockRank::kTransportLoop, "net.loop.post"};
  std::vector<std::function<void()>> posted_ GUARDED_BY(post_mu_);
  bool accepting_posts_ GUARDED_BY(post_mu_) = false;
};

/// What a connection reports to its server or client; all on the loop
/// thread.
class ConnOwner {
 public:
  virtual ~ConnOwner() = default;
  /// One decoded inbound frame; `payload` is valid only during the call.
  virtual void OnFrame(Conn* conn, uint64_t id, const char* payload,
                       size_t len) = 0;
  /// The connection began closing: its queued output is gone and no frame
  /// follows.
  virtual void OnClosed(Conn* conn, const Status& reason) = 0;
  /// Deferred after the close: no kernel op or loop frame references
  /// `conn` any more, so the owner may release it.
  virtual void OnFullyClosed(Conn* conn) = 0;
};

/// One connection's framing state, driven by one loop thread. A driver
/// subclass moves bytes: Flush drains the queue through NextBatch/Wrote,
/// inbound bytes go to Ingest, and CloseIo stops the driver's operations.
class Conn : public std::enable_shared_from_this<Conn> {
 public:
  /// `out_budget` is the output-queue byte budget that pauses reads
  /// (ReadGate) and feeds net.tcp.output_queue_bytes; 0 means ungated and
  /// untracked (client connections).
  Conn(Loop* loop, int fd, ConnOwner* owner, size_t out_budget);
  virtual ~Conn();

  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  Loop* loop() const { return loop_; }

  /// Any thread. Queues `frame` — twice when `duplicate`, the fault plane's
  /// duplicated datagram — and schedules a flush unless one is: deferred to
  /// the end of the pass on the loop's own thread, posted from any other.
  /// False once the connection closed or its loop stopped.
  bool Send(OutFrame frame, bool duplicate = false);

  /// Loop thread: start receiving.
  virtual void Open() = 0;
  /// Loop thread: drops queued output, stops the driver's I/O, tells the
  /// owner, and closes the fd once no kernel op references it. Idempotent.
  void Close(const Status& reason);

 protected:
  /// Loop thread: move queued frames toward the socket.
  virtual void Flush() = 0;
  /// Loop thread: the ReadGate flipped; stop or resume receiving.
  virtual void SetReadPaused(bool paused) = 0;
  /// Loop thread, from Close: stop I/O on fd_, drop the output queue unless
  /// a send still references it, and call FinishClose once nothing does.
  virtual void CloseIo() = 0;

  /// Frame-decodes received bytes: whole frames parse in place, a trailing
  /// partial frame rides the carry buffer. Closes on a garbage length.
  void Ingest(const char* data, size_t len);
  /// Points msg_ at the next flush batch (at most kMaxIov/2 frames, in
  /// place). False when the queue is empty, which ends the scheduled flush.
  bool NextBatch();
  /// `sent` bytes of the batch reached the socket. Returns the frames that
  /// completed and updates the ReadGate.
  size_t Wrote(size_t sent);
  /// Drops queued output. A front frame with bytes already on the wire
  /// tore the stream, which cannot resynchronize: counted as poisoned.
  void DropOutput();
  /// Closes fd_ and tells the owner, deferred past the current handler.
  void FinishClose();

  bool reads_paused() const { return read_gate_.paused; }

  int fd_;
  bool closed_ = false;  // loop thread
  msghdr msg_{};         // the batch NextBatch built; loop thread

 private:
  Loop* const loop_;
  ConnOwner* const owner_;
  const size_t out_budget_;

  // Loop-thread-only state.
  ReadGate read_gate_;
  std::string carry_;
  struct iovec iov_[kMaxIov];
  size_t batch_bytes_ = 0;

  Mutex out_mu_{LockRank::kTransport, "net.conn.out"};
  std::deque<OutFrame> out_ GUARDED_BY(out_mu_);
  size_t out_bytes_ GUARDED_BY(out_mu_) = 0;
  // True while a flush is guaranteed to run (nudge, in-flight send or
  // armed writability); collapses redundant nudges under pipelining.
  bool flush_scheduled_ GUARDED_BY(out_mu_) = false;
  // Cleared at close: late frames are refused instead of queueing forever.
  bool writable_ GUARDED_BY(out_mu_) = true;
};

/// Server over `loops` (at least one): the listener lives on loops[0],
/// accepted sockets spread round-robin, and each request runs to completion
/// on its connection's loop thread.
std::unique_ptr<RpcServer> NewServer(uint16_t port,
                                     const TcpServerOptions& options,
                                     std::vector<std::unique_ptr<Loop>> loops);

/// Client connection over the connected socket `fd` (owned from here on),
/// driven by `loop`, which must outlive it. `peer` seeds the fault-probe
/// scope. Null when the loop no longer accepts work.
std::unique_ptr<RpcConnection> NewClient(Loop* loop, int fd,
                                         const std::string& peer);

}  // namespace internal
}  // namespace dpr

#endif  // DPR_NET_CONN_H_
