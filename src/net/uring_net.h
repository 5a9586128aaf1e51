#ifndef DPR_NET_URING_NET_H_
#define DPR_NET_URING_NET_H_

// io_uring transport driver, selected through the NetBackend seam in
// tcp_net.h (MakeTcpServer / ConnectTcp route here when the backend
// resolves to kIoUring).

#include <memory>

#include "net/conn.h"

namespace dpr {
namespace internal {

/// An opened, not yet started ring loop. Null when the driver is compiled
/// out (DPR_HAVE_IOURING=0), the kernel lacks the feature set, or ring
/// setup fails right now (fd limits, memlock), so the factories in
/// tcp_net.cc can fall back to epoll.
std::unique_ptr<Loop> NewUringLoop();

}  // namespace internal
}  // namespace dpr

#endif  // DPR_NET_URING_NET_H_
