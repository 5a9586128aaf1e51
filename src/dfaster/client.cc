#include "dfaster/client.h"

#include <algorithm>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dpr {

namespace {
constexpr int kMaxBatchRetries = 400;     // paired with 1 ms backoff: covers
constexpr uint64_t kRetryDelayUs = 1000;  // several recovery windows

struct ClientMetrics {
  ShardedHistogram* batch_fill;  // ops per dispatched batch (vs. batch_size)
  Counter* batches;
  Counter* flush_dispatches;  // partial batches forced out by Flush()
};

const ClientMetrics& Metrics() {
  static const ClientMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return ClientMetrics{r.histogram("dfaster.client.batch_fill"),
                         r.counter("dfaster.client.batches"),
                         r.counter("dfaster.client.flush_dispatches")};
  }();
  return m;
}

}  // namespace

DFasterClient::DFasterClient(DFasterClientConfig config)
    : config_(std::move(config)) {
  for (uint32_t vp = 0; vp < YcsbWorkload::kNumPartitions; ++vp) {
    // relaxed: see routes_.
    routes_[vp].store(YcsbWorkload::DefaultOwner(vp, config_.num_workers),
                      std::memory_order_relaxed);
  }
  RefreshOwnership();
}

DFasterClient::~DFasterClient() {
  std::thread timer;
  {
    MutexLock guard(timer_mu_);
    timer_stop_ = true;
    timer.swap(timer_thread_);
  }
  timer_cv_.NotifyAll();
  if (timer.joinable()) timer.join();
}

void DFasterClient::RunAfter(uint64_t delay_us, std::function<void()> fn) {
  {
    MutexLock guard(timer_mu_);
    if (!timer_thread_.joinable()) {
      timer_thread_ = std::thread([this] { TimerLoop(); });
    }
    timer_queue_.push_back({NowMicros() + delay_us, std::move(fn)});
  }
  timer_cv_.NotifyAll();
}

void DFasterClient::TimerLoop() {
  for (;;) {
    std::function<void()> ready;
    {
      MutexLock guard(timer_mu_);
      for (;;) {
        if (timer_stop_) return;
        if (timer_queue_.empty()) {
          timer_cv_.Wait(timer_mu_, [this]() REQUIRES(timer_mu_) {
            return timer_stop_ || !timer_queue_.empty();
          });
          continue;
        }
        auto it = std::min_element(timer_queue_.begin(), timer_queue_.end(),
                                   [](const DelayedTask& a,
                                      const DelayedTask& b) {
                                     return a.due_us < b.due_us;
                                   });
        const uint64_t now = NowMicros();
        if (it->due_us > now) {
          timer_cv_.WaitFor(timer_mu_,
                            std::chrono::microseconds(it->due_us - now));
          continue;
        }
        ready = std::move(it->fn);
        timer_queue_.erase(it);
        break;
      }
    }
    ready();  // outside the lock: tasks resend batches / take client locks
  }
}

WorkerId DFasterClient::RouteOf(uint64_t key) const {
  // relaxed: see routes_.
  return routes_[YcsbWorkload::PartitionOf(key)].load(
      std::memory_order_relaxed);
}

void DFasterClient::RefreshOwnership() {
  if (config_.metadata == nullptr) return;
  const auto ownership = config_.metadata->GetOwnership();
  for (const auto& [vp, worker] : ownership) {
    if (vp >= routes_.size()) continue;
    // relaxed: see routes_.
    routes_[vp].store(worker, std::memory_order_relaxed);
  }
}

void DFasterClient::AddRemoteWorker(WorkerId id,
                                    std::unique_ptr<RpcConnection> conn) {
  MutexLock guard(endpoints_mu_);
  remote_[id] = std::move(conn);
}

void DFasterClient::AddLocalWorker(DFasterWorker* worker) {
  MutexLock guard(endpoints_mu_);
  local_[worker->id()] = worker;
}

RpcConnection* DFasterClient::Connection(WorkerId worker) {
  MutexLock guard(endpoints_mu_);
  auto it = remote_.find(worker);
  if (it != remote_.end()) return it->second.get();
  if (!config_.connect_worker) return nullptr;
  // Lazy connect (elastic membership): the worker joined after this client
  // was built. Resolved under the endpoint lock so concurrent request
  // threads produce one connection, not one each.
  // dprlint: allowed(callback-lock) connect_worker only dials a transport
  // endpoint; it takes no DPR locks, and holding endpoints_mu_ is what
  // dedups concurrent dials.
  std::unique_ptr<RpcConnection> conn = config_.connect_worker(worker);
  if (conn == nullptr) return nullptr;
  return (remote_[worker] = std::move(conn)).get();
}

DFasterWorker* DFasterClient::Local(WorkerId worker) const {
  MutexLock guard(endpoints_mu_);
  auto it = local_.find(worker);
  return it == local_.end() ? nullptr : it->second;
}

std::vector<WorkerId> DFasterClient::KnownWorkers() const {
  std::vector<WorkerId> ids;
  {
    MutexLock guard(endpoints_mu_);
    for (const auto& [id, conn] : remote_) ids.push_back(id);
    for (const auto& [id, w] : local_) ids.push_back(id);
  }
  for (const std::atomic<WorkerId>& route : routes_) {
    // relaxed: see routes_.
    ids.push_back(route.load(std::memory_order_relaxed));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::unique_ptr<DFasterClient::Session> DFasterClient::NewSession(
    uint64_t session_id) {
  return std::unique_ptr<Session>(new Session(this, session_id));
}

DFasterClient::Session::Session(DFasterClient* client, uint64_t session_id)
    : client_(client), dpr_session_(session_id) {}

DFasterClient::Session::~Session() {
  Status s = WaitForAll();
  if (!s.ok()) {
    DPR_WARN("session %llu destroyed with unresolved ops: %s",
             static_cast<unsigned long long>(dpr_session_.session_id()),
             s.ToString().c_str());
  }
}

void DFasterClient::Session::Read(uint64_t key, OpCallback callback) {
  Issue(KvOp{KvOp::Type::kRead, key, 0}, std::move(callback));
}

void DFasterClient::Session::Upsert(uint64_t key, uint64_t value,
                                    OpCallback callback) {
  Issue(KvOp{KvOp::Type::kUpsert, key, value}, std::move(callback));
}

void DFasterClient::Session::Rmw(uint64_t key, uint64_t delta,
                                 OpCallback callback) {
  Issue(KvOp{KvOp::Type::kRmw, key, delta}, std::move(callback));
}

void DFasterClient::Session::Delete(uint64_t key, OpCallback callback) {
  Issue(KvOp{KvOp::Type::kDelete, key, 0}, std::move(callback));
}

void DFasterClient::Session::Issue(KvOp op, OpCallback callback) {
  const WorkerId worker = client_->RouteOf(op.key);
  PendingBatch& batch = building_[worker];
  batch.ops.push_back(op);
  batch.callbacks.push_back(std::move(callback));
  ++ops_issued_;
  if (batch.ops.size() >= client_->config_.batch_size) Dispatch(worker);
}

void DFasterClient::Session::Flush() {
  for (auto& [worker, batch] : building_) {
    if (!batch.ops.empty()) {
      Metrics().flush_dispatches->Add();
      Dispatch(worker);
    }
  }
}

void DFasterClient::Session::Dispatch(WorkerId worker) {
  PendingBatch& building = building_[worker];
  PendingBatch batch = std::move(building);
  // The moved-from vectors have no capacity; reserve a full batch so the
  // next one does not regrow from zero.
  building = PendingBatch{};
  building.ops.reserve(client_->config_.batch_size);
  building.callbacks.reserve(client_->config_.batch_size);
  const uint64_t n = batch.ops.size();
  Metrics().batches->Add();
  Metrics().batch_fill->Record(n);
  // Windowing: block while w outstanding ops are in flight (paper §7.1).
  {
    MutexLock lock(mu_);
    window_cv_.Wait(mu_, [&]() REQUIRES(mu_) {
      return outstanding_ + n <= client_->config_.window;
    });
    outstanding_ += n;
  }
  SendBatch(worker, std::move(batch));
}

void DFasterClient::Session::SendBatch(WorkerId worker, PendingBatch batch) {
  if (client_->Local(worker) != nullptr) {
    ExecuteLocal(worker, std::move(batch));
    return;
  }
  const uint64_t start = dpr_session_.IssuePending(worker, batch.ops.size());
  SendRemote(worker, std::make_shared<PendingBatch>(std::move(batch)), start,
             0);
}

void DFasterClient::Session::FinishBatch(WorkerId /*worker*/,
                                         PendingBatch batch,
                                         const KvBatchResponse& resp) {
  const bool ok =
      resp.header.status == DprResponseHeader::BatchStatus::kOk &&
      resp.results.size() == batch.ops.size();
  // Ownership may have moved (paper 5.3): refresh the routing cache and
  // transparently re-route rejected ops; the key is momentarily unowned
  // during a transfer, so bounded retries are expected.
  std::map<WorkerId, PendingBatch> reroutes;
  uint64_t finished = 0;
  if (ok && batch.reroute_attempts < client_->config_.max_reroute_attempts) {
    bool any_not_owner = false;
    for (const KvOpResult& r : resp.results) {
      if (r.result == KvResult::kNotOwner) {
        any_not_owner = true;
        break;
      }
    }
    if (any_not_owner) {
      client_->RefreshOwnership();
      for (size_t i = 0; i < batch.ops.size(); ++i) {
        if (resp.results[i].result == KvResult::kNotOwner) {
          const WorkerId target = client_->RouteOf(batch.ops[i].key);
          PendingBatch& rb = reroutes[target];
          rb.reroute_attempts = batch.reroute_attempts + 1;
          rb.ops.push_back(batch.ops[i]);
          rb.callbacks.push_back(std::move(batch.callbacks[i]));
        } else {
          if (batch.callbacks[i]) {
            batch.callbacks[i](resp.results[i].result, resp.results[i].value);
          }
          ++finished;
        }
      }
      {
        // Notify under mu_: ~Session's WaitForAll may destroy the cv the
        // instant its predicate holds, so the broadcast must complete before
        // the waiter can re-acquire the mutex and return.
        MutexLock guard(mu_);
        outstanding_ -= finished;
        window_cv_.NotifyAll();
      }
      // Back off slightly: mid-transfer the partition has no owner yet.
      if (!reroutes.empty()) SleepMicros(500);
      for (auto& [target, rb] : reroutes) {
        SendBatch(target, std::move(rb));
      }
      return;
    }
  }
  for (size_t i = 0; i < batch.callbacks.size(); ++i) {
    if (!batch.callbacks[i]) continue;
    if (ok) {
      batch.callbacks[i](resp.results[i].result, resp.results[i].value);
    } else {
      batch.callbacks[i](KvResult::kError, 0);
    }
  }
  if (!ok) ops_failed_.fetch_add(batch.ops.size(), std::memory_order_relaxed);
  {
    // Notify under mu_ (see above): keeps the cv alive across the broadcast
    // when ~Session is waiting on it.
    MutexLock guard(mu_);
    outstanding_ -= batch.ops.size();
    window_cv_.NotifyAll();
  }
}

void DFasterClient::Session::ExecuteLocal(WorkerId worker,
                                          PendingBatch batch) {
  DFasterWorker* target = client_->Local(worker);
  KvBatchRequest req;
  req.ops = batch.ops;
  KvBatchResponse resp;
  for (int attempt = 0;; ++attempt) {
    req.header = dpr_session_.MakeHeader();
    target->ExecuteBatch(req, &resp);
    if (resp.header.status != DprResponseHeader::BatchStatus::kRetryLater ||
        attempt >= kMaxBatchRetries) {
      break;
    }
    SleepMicros(kRetryDelayUs);
  }
  if (resp.header.status == DprResponseHeader::BatchStatus::kOk) {
    dpr_session_.RecordBatch(worker, batch.ops.size(), resp.header);
  } else {
    // Failed batch: ops had no effect; record them as vacuously-committed
    // no-ops and remember the observed world-line.
    DprResponseHeader vacuous;
    vacuous.executed_version = kInvalidVersion;
    dpr_session_.RecordBatch(worker, batch.ops.size(), vacuous);
    dpr_session_.ObserveWatermark(worker, resp.header);
  }
  FinishBatch(worker, batch, resp);
}

void DFasterClient::Session::SendRemote(WorkerId worker,
                                        std::shared_ptr<PendingBatch> batch,
                                        uint64_t start_seqno, int attempt) {
  RpcConnection* conn = client_->Connection(worker);
  if (conn == nullptr) {
    KvBatchResponse resp;
    resp.header.status = DprResponseHeader::BatchStatus::kRetryLater;
    DprResponseHeader vacuous;
    dpr_session_.ResolvePending(start_seqno, vacuous);
    FinishBatch(worker, *batch, resp);
    return;
  }
  KvBatchRequest req;
  req.header = dpr_session_.MakeHeader();
  req.ops = batch->ops;
  std::string encoded;
  req.EncodeTo(&encoded);
  conn->CallAsync(
      std::move(encoded),
      [this, worker, batch, start_seqno, attempt](Status s, Slice payload) {
        OnRemoteResponse(worker, batch, start_seqno, attempt, std::move(s),
                         payload);
      });
}

void DFasterClient::Session::OnRemoteResponse(
    WorkerId worker, std::shared_ptr<PendingBatch> batch, uint64_t start_seqno,
    int attempt, Status transport, Slice payload) {
  KvBatchResponse resp;
  if (transport.ok() && resp.DecodeFrom(payload)) {
    if (resp.header.status == DprResponseHeader::BatchStatus::kRetryLater &&
        attempt < kMaxBatchRetries) {
      // Worker mid-recovery (or behind our world-line): back off and resend
      // with a refreshed header. The ops keep their seqnos. The backoff is
      // scheduled, never slept inline: this callback runs on the transport's
      // delivery thread, and with the io_uring client that one thread
      // serves every connection in the process — sleeping here would stall
      // all client traffic for the duration (~Session keeps `this` alive
      // while the batch is outstanding).
      client_->RunAfter(kRetryDelayUs,
                        [this, worker, batch = std::move(batch), start_seqno,
                         attempt]() mutable {
                          SendRemote(worker, std::move(batch), start_seqno,
                                     attempt + 1);
                        });
      return;
    }
    if (resp.header.status == DprResponseHeader::BatchStatus::kOk) {
      dpr_session_.ResolvePending(start_seqno, resp.header);
      FinishBatch(worker, *batch, resp);
      return;
    }
    // World-line shift (or retries exhausted): the batch never executed.
    DprResponseHeader vacuous;
    dpr_session_.ResolvePending(start_seqno, vacuous);
    dpr_session_.ObserveWatermark(worker, resp.header);
    FinishBatch(worker, *batch, resp);
    return;
  }
  // Transport failure.
  DprResponseHeader vacuous;
  dpr_session_.ResolvePending(start_seqno, vacuous);
  KvBatchResponse failed;
  failed.header.status = DprResponseHeader::BatchStatus::kRetryLater;
  FinishBatch(worker, *batch, failed);
}

Status DFasterClient::Session::WaitForAll(uint64_t timeout_ms) {
  Flush();
  MutexLock lock(mu_);
  const bool done = window_cv_.WaitFor(
      mu_, std::chrono::milliseconds(timeout_ms),
      [&]() REQUIRES(mu_) { return outstanding_ == 0; });
  return done ? Status::OK() : Status::TimedOut("ops still outstanding");
}

void DFasterClient::Session::SendPing(WorkerId worker) {
  DFasterWorker* local = client_->Local(worker);
  if (local != nullptr) {
    KvBatchRequest req;
    req.header = dpr_session_.MakeHeader();
    KvBatchResponse resp;
    local->ExecuteBatch(req, &resp);
    dpr_session_.ObserveWatermark(worker, resp.header);
    return;
  }
  RpcConnection* conn = client_->Connection(worker);
  if (conn == nullptr) return;
  KvBatchRequest req;
  req.header = dpr_session_.MakeHeader();
  std::string encoded;
  req.EncodeTo(&encoded);
  std::string response;
  if (conn->Call(encoded, &response).ok()) {
    KvBatchResponse resp;
    if (resp.DecodeFrom(response)) {
      dpr_session_.ObserveWatermark(worker, resp.header);
    }
  }
}

Status DFasterClient::Session::WaitForCommit(uint64_t timeout_ms) {
  DPR_RETURN_NOT_OK(WaitForAll(timeout_ms));
  const uint64_t target = dpr_session_.next_seqno();
  const Stopwatch timer;
  for (;;) {
    const DprSession::CommitPoint point = dpr_session_.GetCommitPoint();
    if (point.prefix_end >= target && point.excluded.empty()) {
      return Status::OK();
    }
    if (needs_failure_handling()) {
      return Status::Aborted("failure observed; call RecoverFromFailure");
    }
    if (timer.ElapsedMillis() > timeout_ms) {
      return Status::TimedOut("commit did not arrive in time");
    }
    // Commit notifications piggyback on responses; ping the workers to
    // learn the latest watermarks (paper §2: sessions may wait for commit).
    // KnownWorkers (not config_.num_workers): the cluster may have grown
    // since this client was built, and a dependency on a joined worker only
    // clears once its watermark is observed.
    for (WorkerId w : client_->KnownWorkers()) {
      SendPing(w);
    }
    SleepMicros(2000);
  }
}

Status DFasterClient::Session::RecoverFromFailure(
    DprSession::CommitPoint* survivors) {
  ClusterManager* manager = client_->config_.cluster_manager;
  if (manager == nullptr) {
    return Status::NotSupported("no cluster manager configured");
  }
  DPR_RETURN_NOT_OK(WaitForAll());
  const WorldLine target = dpr_session_.observed_world_line();
  // Resolve world-lines one at a time in case several failures stacked up.
  for (WorldLine wl = dpr_session_.world_line() + 1; wl <= target; ++wl) {
    DprCut cut;
    if (!manager->GetRecoveryCut(wl, &cut)) {
      return Status::Unavailable("recovery cut not yet published");
    }
    const DprSession::CommitPoint point = dpr_session_.HandleFailure(wl, cut);
    if (survivors != nullptr) *survivors = point;
  }
  return Status::OK();
}

}  // namespace dpr
