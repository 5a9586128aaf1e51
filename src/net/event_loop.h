#ifndef DPR_NET_EVENT_LOOP_H_
#define DPR_NET_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "net/conn.h"

namespace dpr {

/// The epoll transport driver: one epoll-driven I/O thread plus the
/// connection driver that moves bytes with recv/sendmsg on readiness. A
/// server runs a fixed small set of these, and every epoll client
/// connection in the process shares one, so thread count is O(loops), not
/// O(connections). The post queue, deferred tasks and stop handshake come
/// from internal::Loop.
///
/// Handler::OnReady always runs on the loop thread (level-triggered).
/// Add/Modify/Remove are plain epoll_ctl calls; the caller guarantees the
/// handler outlives its registration.
class EventLoop final : public internal::Loop {
 public:
  class Handler {
   public:
    virtual ~Handler() = default;
    /// `events` is the ready epoll event mask (EPOLLIN/EPOLLOUT/EPOLLERR...).
    virtual void OnReady(uint32_t events) = 0;
  };

  EventLoop();
  ~EventLoop() override;

  Status Add(int fd, uint32_t events, Handler* handler);
  Status Modify(int fd, uint32_t events, Handler* handler);
  /// Deregisters `fd`. The caller must not close the fd before removal.
  void Remove(int fd);

  /// Loop-thread scratch the connections receive into (kReadChunk bytes).
  char* read_buffer() { return read_buf_.data(); }

  std::shared_ptr<internal::Conn> NewConn(int fd, internal::ConnOwner* owner,
                                          size_t out_budget) override;
  void Listen(int listen_fd, std::function<void(int)> on_accept) override;

 private:
  class Acceptor;

  Status OpenDriver() override;
  void Run() override;

  int epoll_fd_ = -1;
  std::vector<char> read_buf_;
  std::unique_ptr<Acceptor> acceptor_;  // loop thread
};

}  // namespace dpr

#endif  // DPR_NET_EVENT_LOOP_H_
