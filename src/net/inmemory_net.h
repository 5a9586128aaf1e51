#ifndef DPR_NET_INMEMORY_NET_H_
#define DPR_NET_INMEMORY_NET_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "net/rpc.h"

namespace dpr {

struct InMemoryNetOptions {
  /// Executor worker threads per server (models server-side request
  /// execution threads decoupled from the client).
  uint32_t server_threads = 2;
  /// Bounded intake of the per-server executor; senders block (backpressure)
  /// while it is full.
  size_t queue_capacity = 4096;
  /// One-way latency injected before a request is handled, in microseconds
  /// (0 = none). Models datacenter RTT without real sockets.
  uint64_t latency_us = 0;
};

/// A process-local message fabric: named endpoints whose requests run on a
/// bounded Executor (net/executor.h), with optional injected latency. The
/// default transport for tests and single-box cluster benches; the same
/// client/server code runs unchanged over TcpNet (see tcp_net.h).
class InMemoryNetwork {
 public:
  explicit InMemoryNetwork(InMemoryNetOptions options = {});
  ~InMemoryNetwork();

  /// Creates a server endpoint bound to `name` (must be unique).
  std::unique_ptr<RpcServer> CreateServer(const std::string& name);

  /// Connects to the server bound to `name` (which must be Start()ed before
  /// the first call is made).
  std::unique_ptr<RpcConnection> Connect(const std::string& name);

 private:
  class Server;
  class Connection;

  InMemoryNetOptions options_;
  Mutex mu_{LockRank::kTransport, "net.inmemory.registry"};
  std::map<std::string, Server*> servers_ GUARDED_BY(mu_);
};

}  // namespace dpr

#endif  // DPR_NET_INMEMORY_NET_H_
