#ifndef DPR_NET_RPC_H_
#define DPR_NET_RPC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace dpr {

/// Request handler invoked by a server for each incoming message; fills
/// `response`. Over TCP it runs on its connection's loop, in arrival order;
/// it may block only on work another thread finishes (disk, another
/// server's loop, the client loop), and stalls only its own loop. The
/// in-memory transport runs handlers on an executor pool, concurrently and
/// possibly out of order even for one connection.
using RpcHandler = std::function<void(Slice request, std::string* response)>;

/// One message endpoint (a D-FASTER worker or D-Redis proxy listens here).
class RpcServer {
 public:
  virtual ~RpcServer() = default;
  virtual Status Start(RpcHandler handler) = 0;
  virtual void Stop() = 0;
  /// Transport-specific address clients can connect to.
  virtual std::string address() const = 0;
};

/// Client connection supporting pipelined asynchronous calls; responses are
/// matched to requests internally (windowing/batching policy lives in the
/// store client library, not here).
class RpcConnection {
 public:
  virtual ~RpcConnection() = default;

  using ResponseCallback = std::function<void(Status, Slice response)>;

  /// Sends `request`; `callback` fires exactly once (from a transport
  /// thread) with the response or an error.
  virtual void CallAsync(std::string request, ResponseCallback callback) = 0;

  /// Blocking wrapper over CallAsync; a nonzero `timeout_us` bounds the
  /// wait (TimedOut; a later response is discarded).
  Status Call(Slice request, std::string* response, uint64_t timeout_us = 0);
};

}  // namespace dpr

#endif  // DPR_NET_RPC_H_
