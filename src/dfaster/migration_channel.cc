#include "dfaster/migration_channel.h"

#include "dfaster/worker.h"

namespace dpr {

LocalMigrationChannel::LocalMigrationChannel(DFasterWorker* target_worker)
    : target_worker_(target_worker) {
  installer_ = std::thread([this] { InstallerLoop(); });
}

LocalMigrationChannel::~LocalMigrationChannel() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  if (installer_.joinable()) installer_.join();
}

WorkerId LocalMigrationChannel::target() const {
  return target_worker_->id();
}

Status LocalMigrationChannel::Install(const KvBatchRequest& request,
                                      KvBatchResponse* response) {
  Job job;
  job.request = &request;
  job.response = response;
  MutexLock lock(mu_);
  cv_.Wait(mu_, [this]() REQUIRES(mu_) { return stop_ || job_ == nullptr; });
  if (stop_) return Status::Unavailable("migration channel stopped");
  job_ = &job;
  cv_.NotifyAll();
  // The job lives on this stack: wait until the installer is done touching
  // it even if the channel is stopped concurrently (InstallerLoop fails any
  // job it cannot run before exiting).
  cv_.Wait(mu_, [&job]() { return job.done; });
  return job.status;
}

void LocalMigrationChannel::InstallerLoop() {
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mu_);
      cv_.Wait(mu_,
               [this]() REQUIRES(mu_) { return stop_ || job_ != nullptr; });
      job = job_;
      if (job == nullptr) return;  // stop with no pending work
      if (stop_) {
        job->status = Status::Unavailable("migration channel stopped");
        job->done = true;
        job_ = nullptr;
        cv_.NotifyAll();
        return;
      }
    }
    // Execute with no channel lock held: the target's admission takes its
    // own version latch and store locks.
    Status s = target_worker_->InstallMigratedData(*job->request,
                                                   job->response);
    {
      MutexLock lock(mu_);
      job->status = s;
      job->done = true;
      job_ = nullptr;
      cv_.NotifyAll();
      if (stop_) return;
    }
  }
}

Status RpcMigrationChannel::Install(const KvBatchRequest& request,
                                    KvBatchResponse* response) {
  std::string payload;
  if (request.install) {
    request.EncodeTo(&payload);
  } else {
    KvBatchRequest flagged = request;
    flagged.install = true;
    flagged.EncodeTo(&payload);
  }
  std::string response_bytes;
  {
    MutexLock lock(mu_);
    DPR_RETURN_NOT_OK(
        connection_->Call(payload, &response_bytes, kInstallTimeoutUs));
  }
  if (!response->DecodeFrom(response_bytes)) {
    return Status::IOError("undecodable migration-install response");
  }
  return Status::OK();
}

}  // namespace dpr
