// io_uring transport driver: the uring loop replaces epoll_wait + recv +
// sendmsg with batched SQE submission on a per-loop ring (common/uring.h,
// the same core the storage engine sits on). The output queue, carry
// buffer, read gate, post queue, server and client come from the shared
// connection core (conn.h); this file only moves bytes.
//
//  - Accept: one multishot IORING_OP_ACCEPT on loop 0 keeps the listener
//    armed across completions; accepted sockets spread round-robin.
//  - Reads: one multishot IORING_OP_RECV per connection with
//    IOSQE_BUFFER_SELECT against a per-loop provided buffer ring
//    (IORING_REGISTER_PBUF_RING). Completions carry a buffer id; the frame
//    decoder parses straight out of the provided buffer (no intermediate
//    staging copy — only a trailing partial frame is carried to a spill
//    buffer), then the buffer goes back on the ring.
//  - Writes: at most one in-flight IORING_OP_SENDMSG per connection whose
//    iovecs point at the queued OutFrame headers+payloads in place (same
//    ≤ kMaxIov/2 frames-per-batch contract as the epoll flush). Partial
//    sends advance the per-frame offset (ConsumeWritten) and resubmit.
//  - Backpressure: the shared ReadGate hysteresis; pausing cancels the
//    multishot recv (IORING_OP_ASYNC_CANCEL), resuming re-arms it.
//  - Shutdown: cancel every armed op, then drain CQEs until the loop's
//    outstanding-op count hits zero — only then is it safe to unmap the
//    ring (the kernel holds pointers into conn memory while ops are live).
//
// Op accounting rule: every pushed SQE eventually yields exactly one CQE
// without IORING_CQE_F_MORE (multishot CQEs with F_MORE mean the op is
// still armed). Both the loop-global outstanding count and the per-conn
// pending count decrement on that uniform rule.

#include "net/uring_net.h"

#if DPR_HAVE_IOURING

#include <sys/mman.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <functional>
#include <memory>

#include "common/uring.h"
#include "net/frame.h"
#include "obs/metrics.h"

// The backend needs the 6.0-era UAPI (multishot recv/accept, provided
// buffer rings, SEND_ZC for the runtime probe); with older headers it
// compiles to the unsupported stubs at the bottom of this file. Only the
// multishot flags are macros (the rest are enum values, invisible to
// #ifdef), and IORING_RECV_MULTISHOT is the newest of the set, so the two
// flags proxy for everything this file names.
#if defined(IORING_RECV_MULTISHOT) && defined(IORING_ACCEPT_MULTISHOT)
#define DPR_URING_NET_COMPILED 1
#else
#define DPR_URING_NET_COMPILED 0
#endif

#endif  // DPR_HAVE_IOURING

#if DPR_HAVE_IOURING && DPR_URING_NET_COMPILED

namespace dpr {

namespace {

using internal::kReadChunk;
using internal::MapSocketError;
using internal::Stats;

// Provided-buffer ring geometry per loop: 64 buffers of kReadChunk (64 KiB)
// — 4 MiB of receive window shared by every connection on the loop.
// Buffers recycle as soon as their CQE is parsed, so exhaustion
// (-ENOBUFS, counted) needs 64 completions queued behind one drain pass.
constexpr uint32_t kBufEntries = 64;
constexpr uint16_t kBufGroup = 0;

// Small-integer user_data values for loop-owned ops; anything >= kUdFirstPtr
// is a tagged Target pointer.
constexpr uint64_t kUdWake = 1;
constexpr uint64_t kUdWakeCancel = 2;
constexpr uint64_t kUdFirstPtr = 4096;

// Low-2-bit tags on Target pointers (heap objects are 8+ aligned).
constexpr uint8_t kTagRecv = 0;
constexpr uint8_t kTagSend = 1;
constexpr uint8_t kTagAccept = 2;
constexpr uint8_t kTagCancel = 3;  // a cancel op's own completion

// One ring-owning I/O thread: the provided buffer ring, the wake
// eventfd's READ op, and the multishot accept. Single-threaded by
// construction: every op completion and every posted closure runs on the
// loop thread.
class UringLoop final : public internal::Loop {
 public:
  // CQE sink for ops whose user_data carries this object.
  class Target {
   public:
    virtual ~Target() = default;
    virtual void OnCqe(uint8_t tag, int32_t res, uint32_t flags) = 0;
  };

  UringLoop() = default;

  ~UringLoop() override {
    Stop();
    if (buf_ring_ != nullptr) {
      ring_.UnregisterBufRing(kBufGroup);
      munmap(buf_ring_, buf_ring_sz_);
    }
    if (bufs_ != nullptr) munmap(bufs_, bufs_sz_);
  }

  std::shared_ptr<internal::Conn> NewConn(int fd, internal::ConnOwner* owner,
                                          size_t out_budget) override;

  void Listen(int listen_fd, std::function<void(int)> on_accept) override {
    acceptor_.fd = listen_fd;
    acceptor_.on_accept = std::move(on_accept);
    acceptor_.Arm();
  }

  // ---- loop-thread-only op helpers ----

  static uint64_t Ud(Target* t, uint8_t tag) {
    return reinterpret_cast<uint64_t>(t) | tag;
  }

  void PushOp(const io_uring_sqe& sqe) {
    ring_.PushSqe(sqe);
    ++outstanding_ops_;
  }

  void ArmRecv(Target* t, int fd) {
    io_uring_sqe sqe;
    memset(&sqe, 0, sizeof(sqe));
    sqe.opcode = IORING_OP_RECV;
    sqe.fd = fd;
    sqe.ioprio = IORING_RECV_MULTISHOT;
    sqe.flags = IOSQE_BUFFER_SELECT;
    sqe.buf_group = kBufGroup;
    sqe.user_data = Ud(t, kTagRecv);
    PushOp(sqe);
  }

  void SubmitSendmsg(Target* t, int fd, msghdr* msg) {
    io_uring_sqe sqe;
    memset(&sqe, 0, sizeof(sqe));
    sqe.opcode = IORING_OP_SENDMSG;
    sqe.fd = fd;
    sqe.addr = reinterpret_cast<uint64_t>(msg);
    sqe.len = 1;
    sqe.msg_flags = MSG_NOSIGNAL;
    sqe.user_data = Ud(t, kTagSend);
    PushOp(sqe);
  }

  // Cancels the op whose user_data is `target_ud`. The canceled op
  // completes with -ECANCELED (or runs to completion if it raced); the
  // cancel op itself completes too (kTagCancel / kUdWakeCancel).
  void CancelOp(uint64_t target_ud, uint64_t cancel_ud) {
    io_uring_sqe sqe;
    memset(&sqe, 0, sizeof(sqe));
    sqe.opcode = IORING_OP_ASYNC_CANCEL;
    sqe.addr = target_ud;
    sqe.user_data = cancel_ud;
    PushOp(sqe);
  }

  char* BufferFor(uint16_t bid) { return bufs_ + size_t{bid} * kReadChunk; }

  // Returns the buffer to the provided ring (release-publishes the tail).
  //
  // Slot addressing is done with raw byte offsets, NOT through
  // io_uring_buf_ring::bufs[]: the UAPI declares that flexible array with
  // __DECLARE_FLEX_ARRAY, whose wrapper struct is empty in C and therefore
  // overlays the ring base — but in C++ an empty member has size 1 and gets
  // alignment-padded, shifting bufs[0] to offset 8. Writing through the C++
  // view lands every descriptor 8 bytes off; the kernel then reads zeroed /
  // torn descriptors and recv fails with ENOBUFS forever. The ABI says slot
  // i lives at byte offset i * sizeof(io_uring_buf) from the ring base
  // (slot 0 overlays the tail word, which is why the tail shares the ring).
  void RecycleBuffer(uint16_t bid) {
    constexpr uint32_t mask = kBufEntries - 1;
    auto* slot = reinterpret_cast<io_uring_buf*>(
        static_cast<char*>(buf_ring_) +
        size_t{buf_tail_ & mask} * sizeof(io_uring_buf));
    slot->addr = reinterpret_cast<uint64_t>(BufferFor(bid));
    slot->len = kReadChunk;
    slot->bid = bid;
    ++buf_tail_;
    // tail sits at offset 14 in both C and C++ (plain members, no flex
    // array involved), so the struct view is safe for the publish.
    auto* br = static_cast<io_uring_buf_ring*>(buf_ring_);
    reinterpret_cast<std::atomic<uint16_t>*>(&br->tail)->store(
        static_cast<uint16_t>(buf_tail_), std::memory_order_release);
  }

 private:
  // Multishot accept on the listener; re-armed whenever the kernel drops
  // the arm (ENFILE bursts, or after a completion) until the loop stops.
  struct Acceptor final : Target {
    explicit Acceptor(UringLoop* l) : loop(l) {}

    void Arm() {
      io_uring_sqe sqe;
      memset(&sqe, 0, sizeof(sqe));
      sqe.opcode = IORING_OP_ACCEPT;
      sqe.fd = fd;
      sqe.ioprio = IORING_ACCEPT_MULTISHOT;
      sqe.accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
      sqe.user_data = Ud(this, kTagAccept);
      loop->PushOp(sqe);
      armed = true;
    }

    void OnCqe(uint8_t tag, int32_t res, uint32_t flags) override {
      if (tag != kTagAccept) return;  // kTagCancel: nothing to do
      const bool terminal = (flags & IORING_CQE_F_MORE) == 0;
      if (terminal) armed = false;
      if (res >= 0) on_accept(res);
      if (terminal && !loop->stopping()) {
        Stats().uring_resubmits->Add();
        Arm();
      }
    }

    UringLoop* const loop;
    int fd = -1;
    bool armed = false;
    std::function<void(int)> on_accept;
  };

  // Ring + buffer-ring setup; a failure lets the factory fall back to
  // epoll before any thread exists.
  Status OpenDriver() override {
    if (!ring_.Init(/*entries=*/256)) return Status::IOError("ring setup");
    buf_ring_sz_ = kBufEntries * sizeof(io_uring_buf);
    buf_ring_ = mmap(nullptr, buf_ring_sz_, PROT_READ | PROT_WRITE,
                     MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
    if (buf_ring_ == MAP_FAILED) {
      buf_ring_ = nullptr;
      return Status::IOError("buffer ring mmap");
    }
    if (!ring_.RegisterBufRing(buf_ring_, kBufEntries, kBufGroup)) {
      munmap(buf_ring_, buf_ring_sz_);
      buf_ring_ = nullptr;
      return Status::IOError("buffer ring registration");
    }
    bufs_sz_ = static_cast<size_t>(kBufEntries) * kReadChunk;
    bufs_ = static_cast<char*>(mmap(nullptr, bufs_sz_, PROT_READ | PROT_WRITE,
                                    MAP_ANONYMOUS | MAP_PRIVATE, -1, 0));
    if (bufs_ == MAP_FAILED) {
      bufs_ = nullptr;
      return Status::IOError("receive buffer mmap");
    }
    for (uint16_t bid = 0; bid < kBufEntries; ++bid) RecycleBuffer(bid);
    return Status::OK();
  }

  void Run() override {
    ArmWakeRead();
    for (;;) {
      RunPosted();
      if (ring_.pending() > 0) {
        Stats().uring_sqe_batches->Add(ring_.SubmitPending());
      }
      if (stopping() && outstanding_ops_ == 0) break;
      if (!ring_.CqReady()) {
        // Combined submit-and-wait: one io_uring_enter parks until a CQE
        // (data, send completion, or the wake eventfd read) is available.
        Stats().uring_sqe_batches->Add(ring_.SubmitAndWait(1));
        if (ring_.CqReady()) Stats().loop_wakeups->Add();
      }
      const unsigned reaped =
          ring_.DrainCqes([this](const io_uring_cqe& cqe) { HandleCqe(cqe); });
      if (reaped > 0) Stats().uring_cqe_reaped->Add(reaped);
      RunDeferred();
    }
    RunDeferred();
  }

  // After the server's on_stop hook closed its connections: cancel the
  // loop's own ops so the outstanding count can reach zero.
  void OnStop() override {
    if (acceptor_.armed) {
      CancelOp(Ud(&acceptor_, kTagAccept), Ud(&acceptor_, kTagCancel));
    }
    if (wake_armed_) CancelOp(kUdWake, kUdWakeCancel);
  }

  void HandleCqe(const io_uring_cqe& cqe) {
    if ((cqe.flags & IORING_CQE_F_MORE) == 0) --outstanding_ops_;
    if (cqe.user_data < kUdFirstPtr) {
      if (cqe.user_data == kUdWake) {
        // The READ consumed the eventfd; only now may the flag clear.
        wake_armed_ = false;
        WakeConsumed();
        if (!stopping()) ArmWakeRead();
      }
      return;  // kUdWakeCancel needs no action beyond the count
    }
    auto* target =
        reinterpret_cast<Target*>(cqe.user_data & ~static_cast<uint64_t>(3));
    target->OnCqe(static_cast<uint8_t>(cqe.user_data & 3), cqe.res,
                  cqe.flags);
  }

  void ArmWakeRead() {
    io_uring_sqe sqe;
    memset(&sqe, 0, sizeof(sqe));
    sqe.opcode = IORING_OP_READ;
    sqe.fd = wake_fd();
    sqe.addr = reinterpret_cast<uint64_t>(&wake_buf_);
    sqe.len = sizeof(wake_buf_);
    sqe.user_data = kUdWake;
    PushOp(sqe);
    wake_armed_ = true;
  }

  UringRing ring_;
  uint64_t wake_buf_ = 0;

  // Loop-thread-only state.
  bool wake_armed_ = false;
  size_t outstanding_ops_ = 0;
  Acceptor acceptor_{this};
  void* buf_ring_ = nullptr;
  size_t buf_ring_sz_ = 0;
  char* bufs_ = nullptr;
  size_t bufs_sz_ = 0;
  uint32_t buf_tail_ = 0;
};

// Completion half of a connection: one multishot recv parsed straight out
// of the provided buffers, and at most one SENDMSG in flight whose iovecs
// point at the queued frames in place.
class UringConn final : public internal::Conn, public UringLoop::Target {
 public:
  UringConn(UringLoop* loop, int fd, internal::ConnOwner* owner,
            size_t out_budget)
      : Conn(loop, fd, owner, out_budget), ring_(*loop) {}

  void Open() override {
    if (closed_ || recv_armed_) return;
    ring_.ArmRecv(this, fd_);
    recv_armed_ = true;
    ++pending_ops_;
  }

  void OnCqe(uint8_t tag, int32_t res, uint32_t flags) override {
    if ((flags & IORING_CQE_F_MORE) == 0) --pending_ops_;
    if (tag == kTagRecv) {
      HandleRecvCqe(res, flags);
    } else if (tag == kTagSend) {
      HandleSendCqe(res);
    }  // kTagCancel: the cancel op's own completion
    if (closed_) MaybeFinishClose();
  }

 protected:
  void Flush() override {
    if (!send_inflight_ && NextBatch()) SubmitSend();
  }

  void SetReadPaused(bool paused) override {
    if (!paused) {
      Rearm();
    } else if (recv_armed_) {
      CancelRecv();
    }
  }

  // An in-flight send keeps its queue until its CQE lands, so the
  // completion can still detect a torn frame; the shutdown() wakes a
  // blocked send promptly.
  void CloseIo() override {
    if (!send_inflight_) DropOutput();
    shutdown(fd_, SHUT_RDWR);
    if (recv_armed_) CancelRecv();
    MaybeFinishClose();
  }

 private:
  void HandleRecvCqe(int32_t res, uint32_t flags) {
    const bool terminal = (flags & IORING_CQE_F_MORE) == 0;
    if (terminal) recv_armed_ = false;
    if (res > 0) {
      if ((flags & IORING_CQE_F_BUFFER) == 0) {
        // Data without a provided buffer violates the BUFFER_SELECT
        // contract; treat the stream as garbage.
        Close(Status::IOError("recv completion without buffer"));
        return;
      }
      const uint16_t bid =
          static_cast<uint16_t>(flags >> IORING_CQE_BUFFER_SHIFT);
      Ingest(ring_.BufferFor(bid), static_cast<size_t>(res));
      ring_.RecycleBuffer(bid);
      // Multishot ran out (the kernel dropped the arm): re-arm.
      if (terminal) Rearm();
      return;
    }
    if (res == -ENOBUFS) {
      Stats().uring_buffer_ring_exhausted->Add();
      Rearm();
    } else if (res == -ECANCELED) {
      Rearm();  // our own pause/close cancel landing; a resume may have raced
    } else if (res == 0) {
      Close(Status::Transient("connection closed"));
    } else {
      Close(MapSocketError("recv", -res));
    }
  }

  // Re-arms the multishot recv unless closed, paused or still armed.
  void Rearm() {
    if (closed_ || reads_paused() || recv_armed_) return;
    Stats().uring_resubmits->Add();
    Open();
  }

  void HandleSendCqe(int32_t res) {
    send_inflight_ = false;
    if (res > 0) Wrote(static_cast<size_t>(res));
    if (res < 0 && res != -ECANCELED) {
      Close(MapSocketError("sendmsg", -res));
    }
    if (closed_) {
      // Closed while the send was in flight: the queue dies now (a torn
      // front frame is counted there).
      DropOutput();
    } else if (NextBatch()) {
      // Partial write or more frames queued since the SQE was built: the
      // offsets carry forward and the next SENDMSG picks up mid-frame.
      Stats().uring_resubmits->Add();
      SubmitSend();
    }
  }

  void SubmitSend() {
    ring_.SubmitSendmsg(this, fd_, &msg_);
    send_inflight_ = true;
    ++pending_ops_;
  }

  void CancelRecv() {
    ring_.CancelOp(UringLoop::Ud(this, kTagRecv),
                   UringLoop::Ud(this, kTagCancel));
    ++pending_ops_;
  }

  void MaybeFinishClose() {
    if (pending_ops_ == 0 && fd_ >= 0) FinishClose();
  }

  UringLoop& ring_;
  // Loop-thread-only state.
  bool recv_armed_ = false;
  bool send_inflight_ = false;
  size_t pending_ops_ = 0;  // pushed SQEs whose final CQE has not landed
};

std::shared_ptr<internal::Conn> UringLoop::NewConn(int fd,
                                                   internal::ConnOwner* owner,
                                                   size_t out_budget) {
  return std::make_shared<UringConn>(this, fd, owner, out_budget);
}

}  // namespace

bool NetUringSupported() {
  static const bool supported = [] {
    UringRing ring;
    if (!ring.Init(8)) return false;
    // Opcode probes for everything the loop arms, plus IORING_OP_SEND_ZC as
    // a 6.0+ proxy: multishot recv and buffer-id CQEs shipped in the same
    // release, and the probe interface cannot see per-op flags.
    const uint8_t required[] = {IORING_OP_ACCEPT, IORING_OP_RECV,
                                IORING_OP_SENDMSG, IORING_OP_READ,
                                IORING_OP_ASYNC_CANCEL, IORING_OP_SEND_ZC};
    for (uint8_t op : required) {
      if (!ring.ProbeOpcode(op)) return false;
    }
    void* mem = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                     MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
    if (mem == MAP_FAILED) return false;
    const bool pbuf = ring.RegisterBufRing(mem, 8, 0);
    if (pbuf) ring.UnregisterBufRing(0);
    munmap(mem, 4096);
    return pbuf;
  }();
  return supported;
}

namespace internal {

std::unique_ptr<Loop> NewUringLoop() {
  if (!NetUringSupported()) return nullptr;
  auto loop = std::make_unique<UringLoop>();
  if (!loop->Open().ok()) return nullptr;
  return loop;
}

}  // namespace internal

}  // namespace dpr

#else  // !(DPR_HAVE_IOURING && DPR_URING_NET_COMPILED)

namespace dpr {

bool NetUringSupported() { return false; }

namespace internal {

std::unique_ptr<Loop> NewUringLoop() { return nullptr; }

}  // namespace internal

}  // namespace dpr

#endif  // DPR_HAVE_IOURING && DPR_URING_NET_COMPILED
