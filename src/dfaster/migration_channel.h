#ifndef DPR_DFASTER_MIGRATION_CHANNEL_H_
#define DPR_DFASTER_MIGRATION_CHANNEL_H_

#include <memory>
#include <thread>
#include <utility>

#include "common/status.h"
#include "common/sync.h"
#include "dfaster/protocol.h"
#include "net/rpc.h"

namespace dpr {

class DFasterWorker;

/// Transport-agnostic path from a sealed source partition to its migration
/// target (cluster plane; DESIGN.md §4i). The source worker pushes two kinds
/// of traffic through it during the dual-ownership window: per-op forwards of
/// new writes, and bulk drain chunks of pre-existing records. Both are
/// install batches (KvBatchRequest::install) that bypass the target's
/// ownership check.
///
/// Install() is synchronous and is called with the source worker's version
/// latch held *shared* plus the partition's seal lock. Implementations must
/// therefore never run the target's admission on the calling thread when the
/// target is in-process: the two workers' version latches share a lock rank,
/// and equal-rank nesting is an ordering bug the runtime rank checker aborts
/// on. LocalMigrationChannel hops to a dedicated installer thread;
/// RpcMigrationChannel crosses a connection, so the target executes on its
/// transport's thread (a TCP loop, or the in-memory executor pool).
class MigrationChannel {
 public:
  virtual ~MigrationChannel() = default;

  /// Worker id of the migration target, used for dependency-set entries.
  virtual WorkerId target() const = 0;

  /// Executes `request` at the target as a migration-install batch.
  /// Transport-level failure returns non-OK; a DPR-level rejection (e.g. the
  /// target shifted world-lines) surfaces in `response->header.status`.
  virtual Status Install(const KvBatchRequest& request,
                         KvBatchResponse* response) = 0;
};

/// In-process channel: a dedicated installer thread executes each batch
/// directly on the target worker via a stack rendezvous. Used by tests and
/// by migrations between co-located workers.
class LocalMigrationChannel : public MigrationChannel {
 public:
  explicit LocalMigrationChannel(DFasterWorker* target_worker);
  ~LocalMigrationChannel() override;

  WorkerId target() const override;
  Status Install(const KvBatchRequest& request,
                 KvBatchResponse* response) override;

 private:
  struct Job {
    const KvBatchRequest* request = nullptr;
    KvBatchResponse* response = nullptr;
    Status status;
    bool done = false;
  };

  void InstallerLoop();

  DFasterWorker* const target_worker_;
  Mutex mu_{LockRank::kMigrationChannel, "dfaster.migration_channel"};
  CondVar cv_;
  Job* job_ GUARDED_BY(mu_) = nullptr;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread installer_;
};

/// Wire channel: encodes install batches and sends them over an
/// RpcConnection (in-memory or TCP), so harness migrations exercise the same
/// transport client traffic uses. The target's RPC dispatch routes
/// install-flagged batches around the ownership check.
///
/// Install waits at most kInstallTimeoutUs. A forward runs on the source's
/// server thread, so two opposite-direction migrations under write load can
/// each block the loop (or pool) the other's install needs; the bounded wait
/// turns that cycle into a failed forward, which aborts the migration.
class RpcMigrationChannel : public MigrationChannel {
 public:
  static constexpr uint64_t kInstallTimeoutUs = 2'000'000;

  RpcMigrationChannel(WorkerId target_id,
                      std::unique_ptr<RpcConnection> connection)
      : target_id_(target_id), connection_(std::move(connection)) {}

  WorkerId target() const override { return target_id_; }
  Status Install(const KvBatchRequest& request,
                 KvBatchResponse* response) override;

 private:
  const WorkerId target_id_;
  // Serializes calls so installs arrive at the target in submission order
  // (the seal lock already serializes callers per partition; this guards the
  // channel if one is ever shared).
  Mutex mu_{LockRank::kMigrationChannel, "dfaster.migration_rpc"};
  std::unique_ptr<RpcConnection> connection_ PT_GUARDED_BY(mu_);
};

}  // namespace dpr

#endif  // DPR_DFASTER_MIGRATION_CHANNEL_H_
