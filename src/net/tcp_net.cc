#include "net/tcp_net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <vector>

#include "net/conn.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/uring_net.h"
#include "obs/metrics.h"

namespace dpr {

namespace {

using internal::Loop;
using internal::Stats;

Loop* StartShared(std::unique_ptr<Loop> loop) {
  if (loop == nullptr || !loop->Start().ok()) return nullptr;
  // Leaked deliberately: client connections may outlive any scope, and the
  // loop thread must survive until process exit (same pattern as
  // DefaultIoEngine in the storage plane).
  return loop.release();
}

// The process-wide client loop for the backend `requested` resolves to,
// started on first use; falls back to epoll (counting it) like the server.
Loop* ClientLoop(NetBackend requested) {
  const bool want_uring = ResolveNetBackend(requested) == NetBackend::kIoUring;
  if (want_uring) {
    static Loop* const uring = StartShared(internal::NewUringLoop());
    if (uring != nullptr) return uring;
  }
  if (want_uring || requested == NetBackend::kIoUring) {
    Stats().uring_fallbacks->Add();
  }
  static Loop* const epoll = StartShared(std::make_unique<EventLoop>());
  return epoll;
}

// Opens and connects the client socket; connection establishment stays
// synchronous on either backend.
Status OpenClientSocket(const std::string& address, int* out_fd) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("address must be host:port");
  }
  const std::string host = address.substr(0, colon);
  const int port = atoi(address.c_str() + colon + 1);
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad host: " + host);
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    close(fd);
    return internal::MapSocketError("connect", err);
  }
  internal::ConfigureSocket(fd, internal::SocketKind::kData);
  *out_fd = fd;
  return Status::OK();
}

// Wraps a connected socket as a client on the shared loop; `peer` seeds the
// fault-probe scope.
std::unique_ptr<RpcConnection> NewClientOn(NetBackend backend, int fd,
                                           const std::string& peer) {
  Loop* loop = ClientLoop(backend);
  if (loop == nullptr) {
    close(fd);
    return nullptr;
  }
  return internal::NewClient(loop, fd, peer);
}

}  // namespace

NetBackend ResolveNetBackend(NetBackend requested) {
  if (requested == NetBackend::kEpoll) return NetBackend::kEpoll;
  return NetUringSupported() ? NetBackend::kIoUring : NetBackend::kEpoll;
}

std::unique_ptr<RpcServer> MakeTcpServer(uint16_t port) {
  return MakeTcpServer(port, TcpServerOptions{});
}

std::unique_ptr<RpcServer> MakeTcpServer(uint16_t port,
                                         const TcpServerOptions& options) {
  const uint32_t n = std::max<uint32_t>(options.io_threads, 1);
  std::vector<std::unique_ptr<Loop>> loops;
  const bool want_uring =
      ResolveNetBackend(options.backend) == NetBackend::kIoUring;
  for (uint32_t i = 0; want_uring && i < n; ++i) {
    std::unique_ptr<Loop> loop = internal::NewUringLoop();
    if (loop == nullptr) {
      // Supported-looking kernel but ring setup failed right now (fd
      // limits, memlock): serve epoll instead of failing the caller.
      loops.clear();
      break;
    }
    loops.push_back(std::move(loop));
  }
  if (loops.empty()) {
    if (want_uring || options.backend == NetBackend::kIoUring) {
      Stats().uring_fallbacks->Add();
    }
    for (uint32_t i = 0; i < n; ++i) {
      loops.push_back(std::make_unique<EventLoop>());
    }
  }
  return internal::NewServer(port, options, std::move(loops));
}

Status ConnectTcp(const std::string& address,
                  std::unique_ptr<RpcConnection>* out) {
  return ConnectTcp(address, TcpClientOptions{}, out);
}

Status ConnectTcp(const std::string& address, const TcpClientOptions& options,
                  std::unique_ptr<RpcConnection>* out) {
  int fd = -1;
  DPR_RETURN_NOT_OK(OpenClientSocket(address, &fd));
  *out = NewClientOn(options.backend, fd, address);
  if (*out == nullptr) return Status::IOError("no client event loop");
  return Status::OK();
}

namespace internal {

std::unique_ptr<RpcConnection> WrapClientFdForTest(int fd,
                                                   NetBackend backend) {
  return NewClientOn(backend, fd, "test-wrapped-fd");
}

}  // namespace internal

}  // namespace dpr
