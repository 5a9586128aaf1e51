#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace dpr {

namespace {

using internal::kReadChunk;
using internal::MapSocketError;
using internal::Stats;

// Readiness half of a connection: receive into the loop's scratch buffer,
// flush with sendmsg until the socket refuses (then wait for EPOLLOUT).
class EpollConn final : public internal::Conn, public EventLoop::Handler {
 public:
  EpollConn(EventLoop* loop, int fd, internal::ConnOwner* owner,
            size_t out_budget)
      : Conn(loop, fd, owner, out_budget), ev_(*loop) {}

  void Open() override {
    if (closed_) return;
    if (!ev_.Add(fd_, EPOLLIN, this).ok()) {
      Close(Status::IOError("epoll_ctl(add) failed"));
    }
  }

  void OnReady(uint32_t events) override {
    if (events & EPOLLOUT) Flush();
    if (closed_) return;
    // A hung-up peer may still have sent data: keep receiving until recv
    // reports the end, unless reads are paused (nothing more may be taken
    // in, and the peer cannot read the responses anyway).
    const bool hangup = (events & (EPOLLERR | EPOLLHUP)) != 0;
    if (hangup && reads_paused()) {
      Close(Status::Transient("connection closed"));
    } else if (hangup || (events & EPOLLIN)) {
      Receive(hangup);
    }
  }

 protected:
  void Flush() override {
    while (!closed_ && NextBatch()) {
      // dprlint: allowed(net-raw-write) the epoll driver's coalescing
      // flush; NextBatch/Wrote carry partial-write offsets.
      const ssize_t sent = sendmsg(fd_, &msg_, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // Kernel buffer full: resume from the partial offsets once the
          // socket drains. The flush stays scheduled meanwhile.
          Stats().eagain_waits->Add();
          want_write_ = true;
          Rearm();
          return;
        }
        Close(MapSocketError("sendmsg", errno));
        return;
      }
      Stats().writev_calls->Add();
      Stats().writev_frames->Add(Wrote(static_cast<size_t>(sent)));
    }
    want_write_ = false;
    Rearm();
  }

  void SetReadPaused(bool /*paused*/) override { Rearm(); }

  void CloseIo() override {
    ev_.Remove(fd_);
    DropOutput();
    FinishClose();
  }

 private:
  // One chunk per pass; level-triggered epoll re-reports what is left.
  void Receive(bool hangup) {
    char* buf = ev_.read_buffer();
    ssize_t got;
    do {
      Stats().recv_calls->Add();
      got = recv(fd_, buf, kReadChunk, 0);
    } while (got < 0 && errno == EINTR);
    if (got > 0) {
      Ingest(buf, static_cast<size_t>(got));
    } else if (got == 0 ||
               ((errno == EAGAIN || errno == EWOULDBLOCK) && hangup)) {
      Close(Status::Transient("connection closed"));
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      Close(MapSocketError("recv", errno));
    }
  }

  // Registers the interest the read gate and a blocked flush call for;
  // epoll_ctl runs only when the mask changes.
  void Rearm() {
    if (closed_) return;
    const uint32_t events =
        (reads_paused() ? 0u : uint32_t{EPOLLIN}) |
        (want_write_ ? uint32_t{EPOLLOUT} : 0u);
    if (events == armed_) return;
    armed_ = events;
    // A failed epoll_ctl means the fd is already gone; drop the conn.
    if (!ev_.Modify(fd_, events, this).ok()) {
      Close(Status::IOError("epoll_ctl(mod) failed"));
    }
  }

  EventLoop& ev_;
  // Loop-thread-only state.
  bool want_write_ = false;      // a flush hit EAGAIN
  uint32_t armed_ = EPOLLIN;     // the registered interest mask
};

}  // namespace

// Listener readiness: accept until EAGAIN.
class EventLoop::Acceptor final : public Handler {
 public:
  Acceptor(int fd, std::function<void(int)> on_accept)
      : fd_(fd), on_accept_(std::move(on_accept)) {}

  void OnReady(uint32_t /*events*/) override {
    for (;;) {
      const int fd =
          accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd >= 0) {
        on_accept_(fd);
      } else if (errno != EINTR) {
        return;  // EAGAIN, or a transient accept error; epoll re-arms
      }
    }
  }

 private:
  const int fd_;
  const std::function<void(int)> on_accept_;
};

EventLoop::EventLoop() = default;

EventLoop::~EventLoop() {
  Stop();
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

Status EventLoop::OpenDriver() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError(std::string("epoll_create1: ") + strerror(errno));
  }
  read_buf_.resize(kReadChunk);
  // nullptr marks the wake channel.
  return Add(wake_fd(), EPOLLIN, nullptr);
}

Status EventLoop::Add(int fd, uint32_t events, Handler* handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = handler;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(add): ") + strerror(errno));
  }
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events, Handler* handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = handler;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(mod): ") + strerror(errno));
  }
  return Status::OK();
}

void EventLoop::Remove(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

std::shared_ptr<internal::Conn> EventLoop::NewConn(int fd,
                                                   internal::ConnOwner* owner,
                                                   size_t out_budget) {
  return std::make_shared<EpollConn>(this, fd, owner, out_budget);
}

void EventLoop::Listen(int listen_fd, std::function<void(int)> on_accept) {
  acceptor_ = std::make_unique<Acceptor>(listen_fd, std::move(on_accept));
  if (!Add(listen_fd, EPOLLIN, acceptor_.get()).ok()) {
    DPR_ERROR("epoll listener registration failed: %s", strerror(errno));
  }
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping()) {
    const int n = epoll_wait(epoll_fd_, events, kMaxEvents,
                             /*timeout_ms=*/-1);
    if (n < 0) {
      if (errno == EINTR) continue;
      DPR_ERROR("epoll_wait: %s", strerror(errno));
      return;
    }
    if (n > 0) Stats().loop_wakeups->Add();
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        uint64_t drained;
        ssize_t r = read(wake_fd(), &drained, sizeof(drained));
        (void)r;
        WakeConsumed();
        continue;
      }
      static_cast<Handler*>(events[i].data.ptr)->OnReady(events[i].events);
    }
    RunPosted();
  }
}

}  // namespace dpr
