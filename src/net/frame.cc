#include "net/frame.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/clock.h"
#include "fault/fault_plane.h"
#include "obs/metrics.h"

namespace dpr {
namespace internal {

Status MapSocketError(const char* op, int err) {
  const std::string msg = std::string(op) + ": " + strerror(err);
  switch (err) {
    case ECONNRESET:
    case EPIPE:
    case ECONNREFUSED:
    case ECONNABORTED:
    case ENETUNREACH:
    case EHOSTUNREACH:
      return Status::Transient(msg);
    case ETIMEDOUT:
      return Status::TimedOut(msg);
    default:
      return Status::IOError(msg);
  }
}

const TcpCounters& Stats() {
  static const TcpCounters counters = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return TcpCounters{r.counter("net.tcp.frames_sent"),
                       r.counter("net.tcp.frames_received"),
                       r.counter("net.tcp.short_writes"),
                       r.counter("net.tcp.eagain_waits"),
                       r.counter("net.tcp.poisoned"),
                       r.counter("net.tcp.writev_calls"),
                       r.counter("net.tcp.writev_frames"),
                       r.counter("net.tcp.recv_calls"),
                       r.counter("net.tcp.accepted"),
                       r.counter("net.loop.wakeups"),
                       r.gauge("net.tcp.output_queue_bytes"),
                       r.gauge("net.tcp.server_conns"),
                       r.counter("net.uring.sqe_batches"),
                       r.counter("net.uring.cqe_reaped"),
                       r.counter("net.uring.buffer_ring_exhausted"),
                       r.counter("net.uring.resubmits"),
                       r.counter("net.uring.fallbacks")};
  }();
  return counters;
}

void NoteFrameReceived() { Stats().frames_received->Add(); }

void ConfigureSocket(int fd, SocketKind kind) {
  int one = 1;
  if (kind == SocketKind::kListener) {
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  } else {
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
}

OutFrame MakeFrame(uint64_t id, std::string payload) {
  OutFrame f;
  std::string header;
  header.reserve(kFrameHeader);
  PutFixed32(&header, static_cast<uint32_t>(payload.size()));
  PutFixed64(&header, id);
  memcpy(f.header, header.data(), kFrameHeader);
  f.id = id;
  f.payload = std::move(payload);
  return f;
}

int BuildIovecs(std::deque<OutFrame>& out, struct iovec* iov, int* iovcnt,
                size_t* bytes) {
  int n = 0;
  int frames = 0;
  size_t total = 0;
  for (OutFrame& f : out) {
    if (n + 2 > kMaxIov) break;
    size_t off = f.offset;
    if (off < kFrameHeader) {
      iov[n].iov_base = f.header + off;
      iov[n].iov_len = kFrameHeader - off;
      total += iov[n].iov_len;
      ++n;
      off = 0;
    } else {
      off -= kFrameHeader;
    }
    if (f.payload.size() > off) {
      iov[n].iov_base = f.payload.data() + off;
      iov[n].iov_len = f.payload.size() - off;
      total += iov[n].iov_len;
      ++n;
    }
    ++frames;
  }
  *iovcnt = n;
  *bytes = total;
  return frames;
}

size_t ConsumeWritten(std::deque<OutFrame>* out, size_t wrote) {
  size_t completed = 0;
  while (wrote > 0 && !out->empty()) {
    OutFrame& f = out->front();
    const size_t take = std::min(wrote, f.remaining());
    f.offset += take;
    wrote -= take;
    if (f.remaining() == 0) {
      out->pop_front();
      ++completed;
    }
  }
  return completed;
}

bool ApplyClientNetFaults(uint64_t peer_scope,
                          const RpcConnection::ResponseCallback& callback,
                          bool* duplicate) {
  *duplicate = false;
  FaultPlane& plane = FaultPlane::Instance();
  if (!plane.enabled()) return true;
  if (plane.ShouldFire(faults::kNetPartition, peer_scope)) {
    callback(Status::Transient("injected partition"), Slice());
    return false;
  }
  if (plane.ShouldFire(faults::kNetDrop, peer_scope)) {
    callback(Status::TimedOut("injected drop"), Slice());
    return false;
  }
  uint64_t delay_us = 0;
  if (plane.ShouldFire(faults::kNetDelay, peer_scope, &delay_us)) {
    // Delays the calling thread rather than the frame: the in-order byte
    // stream has no per-frame timer. DPR clients issue from their own
    // session, flush and retry-timer threads, never from a response
    // callback, so the sleep never stalls the shared client loop.
    SleepMicros(delay_us);
  }
  *duplicate = plane.ShouldFire(faults::kNetDuplicate, peer_scope);
  return true;
}

}  // namespace internal
}  // namespace dpr
