#include "dfaster/worker.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dpr {

namespace {

struct WorkerMetrics {
  // "FASTER op" stage: one RunOps call, every op of a batch applied.
  ShardedHistogram* apply_us;
  Counter* forward_ops;
  Counter* forward_failures;
  Counter* readmissions;
  Counter* install_batches;
  Counter* install_records;
};

const WorkerMetrics& Metrics() {
  static const WorkerMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return WorkerMetrics{
        r.histogram("dfaster.worker.apply_us"),
        r.counter("cluster.migration.forward_ops"),
        r.counter("cluster.migration.forward_failures"),
        r.counter("cluster.migration.readmissions"),
        r.counter("cluster.migration.install_batches"),
        r.counter("cluster.migration.install_records")};
  }();
  return m;
}

// RunOps prefetch distances, in ops ahead of the one being applied. The
// head stage reads the bucket the bucket stage requested, so it trails it
// by a few ops' worth of time for that miss to land.
constexpr size_t kBucketAhead = 8;
constexpr size_t kHeadAhead = 4;

}  // namespace

DFasterWorker::DFasterWorker(DFasterWorkerConfig config)
    : config_(std::move(config)),
      owners_(YcsbWorkload::kNumPartitions),
      seals_(YcsbWorkload::kNumPartitions) {
  for (uint32_t vp = 0; vp < YcsbWorkload::kNumPartitions; ++vp) {
    const WorkerId owner =
        config_.start_empty
            ? kInvalidWorker
            : YcsbWorkload::DefaultOwner(vp, config_.num_workers);
    // relaxed: pre-publication init; readers start after the constructor.
    owners_[vp].store(owner, std::memory_order_relaxed);
    seals_[vp] = std::make_unique<SealState>();
  }
  store_ = std::make_unique<FasterStore>(std::move(config_.faster));
  if (config_.mode == RecoverabilityMode::kDpr) {
    config_.dpr.worker_id = config_.id;
    if (!config_.dpr.ckpt_signals) {
      // Feed the cadence controller live signals from this shard's store
      // and the box-wide obs gauges (safe: store_ outlives dpr_worker_).
      config_.dpr.ckpt_signals = [this] { return CollectCkptSignals(); };
    }
    dpr_worker_ = std::make_unique<DprWorker>(store_.get(), config_.dpr);
  }
}

CkptSignals DFasterWorker::CollectCkptSignals() const {
  struct SignalGauges {
    Gauge* exception_list;
    Gauge* sched_pending;
  };
  static const SignalGauges g = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return SignalGauges{r.gauge("dpr.session.exception_list"),
                        r.gauge("storage.sched.pending")};
  }();
  CkptSignals s;
  const LogAddress tail = store_->tail_address();
  const LogAddress ro = store_->read_only_address();
  s.dirty_bytes = tail > ro ? tail - ro : 0;
  if (s.dirty_bytes == 0 && dpr_worker_ != nullptr &&
      store_->CurrentVersion() > dpr_worker_->last_reported()) {
    // The store's version advanced outside the commit pipeline (a
    // compaction stamp, a fast-forward) and the finder has not heard about
    // it. The cut cannot cover that version until this shard checkpoints
    // once more, so it must not read as idle — progress waits on it
    // (FinishCompaction's commit barrier, cross-worker Vmax catch-up).
    s.dirty_bytes = 1;
  }
  s.committed_watermark =
      dpr_worker_ != nullptr ? dpr_worker_->persisted_watermark() : 0;
  s.exception_list_len = g.exception_list->value();
  s.storage_queue_depth = g.sched_pending->value();
  return s;
}

DFasterWorker::~DFasterWorker() { Stop(); }

Status DFasterWorker::Start(std::unique_ptr<RpcServer> server) {
  stop_.store(false, std::memory_order_release);
  if (dpr_worker_ != nullptr) {
    DPR_RETURN_NOT_OK(dpr_worker_->Start());
  } else if (config_.mode == RecoverabilityMode::kEventual &&
             config_.dpr.checkpoint_interval_us > 0) {
    eventual_timer_ = std::thread([this] { EventualTimerLoop(); });
  }
  if (config_.compaction_threshold_bytes > 0 && dpr_worker_ != nullptr) {
    gc_thread_ = std::thread([this] { GcLoop(); });
  }
  if (server != nullptr) {
    server_ = std::move(server);
    DPR_RETURN_NOT_OK(server_->Start(
        [this](Slice request, std::string* response) {
          ExecuteBatch(request, response);
        }));
    address_ = server_->address();
  }
  return Status::OK();
}

void DFasterWorker::Stop() {
  if (stop_.exchange(true)) return;
  if (server_ != nullptr) server_->Stop();
  if (dpr_worker_ != nullptr) dpr_worker_->Stop();
  if (eventual_timer_.joinable()) eventual_timer_.join();
  if (gc_thread_.joinable()) gc_thread_.join();
  store_->WaitForCheckpoints();
}

void DFasterWorker::EventualTimerLoop() {
  // "No DPR": checkpoint on a local timer without coordination or
  // reporting. Cadence still comes from the controller — uncoordinated
  // does not mean unscheduled, and idle kEventual shards skip fsyncs too.
  CkptCadenceController controller(
      config_.dpr.ckpt_policy.Resolve(config_.dpr.checkpoint_interval_us));
  uint64_t delay_us = config_.dpr.checkpoint_interval_us;
  while (!stop_.load(std::memory_order_acquire)) {
    SleepMicros(delay_us);
    if (stop_.load(std::memory_order_acquire)) break;
    const CkptDecision decision =
        controller.Decide(CollectCkptSignals(), NowMicros());
    delay_us = decision.next_delay_us;
    if (decision.action == CkptAction::kSkip) continue;
    Version token;
    eventual_latch_.LockExclusive();
    Status s = store_->PerformCheckpoint(
        store_->CurrentVersion() + 1, nullptr, &token,
        CheckpointHints{
            .index_image = controller.policy().adaptive,
            .delta = decision.action == CkptAction::kDelta});
    eventual_latch_.UnlockExclusive();
    if (!s.ok() && !s.IsBusy()) {
      DPR_WARN("eventual checkpoint: %s", s.ToString().c_str());
    }
  }
}

void DFasterWorker::GcLoop() {
  // Two-phase GC driven by the DPR watermark: start a compaction when the
  // reclaimable prefix exceeds the threshold; finish it once the committed
  // cut covers the compaction checkpoint (only entries inside the DPR
  // guarantee are ever dropped).
  while (!stop_.load(std::memory_order_acquire)) {
    // dprlint: allowed(ckpt-interval) GC pacing only — checkpoint cadence
    // itself lives in CkptCadenceController; GC just trails it by a beat.
    SleepMicros(config_.dpr.checkpoint_interval_us + 1000);
    if (stop_.load(std::memory_order_acquire)) break;
    const Version watermark = dpr_worker_->persisted_watermark();
    if (pending_compaction_ != kInvalidVersion) {
      Status s = store_->FinishCompaction(pending_compaction_, watermark);
      if (s.ok() || s.IsNotFound()) pending_compaction_ = kInvalidVersion;
      continue;
    }
    if (watermark == kInvalidVersion) continue;
    const uint64_t reclaimable =
        store_->read_only_address() - store_->begin_address();
    if (reclaimable < config_.compaction_threshold_bytes) continue;
    Version token;
    Status s = store_->StartCompaction(watermark, &token);
    if (s.ok()) {
      pending_compaction_ = token;
    } else if (!s.IsNotFound() && !s.IsBusy() &&
               s.code() != Status::Code::kInvalidArgument) {
      DPR_WARN("worker %u compaction: %s", config_.id,
               s.ToString().c_str());
    }
  }
}

bool DFasterWorker::OwnsPartition(uint32_t partition) const {
  return owners_[partition].load(std::memory_order_acquire) == config_.id;
}

void DFasterWorker::DisownPartition(uint32_t partition) {
  owners_[partition].store(kInvalidWorker, std::memory_order_release);
}

void DFasterWorker::AdoptPartition(uint32_t partition) {
  owners_[partition].store(config_.id, std::memory_order_release);
}

uint32_t DFasterWorker::OwnedPartitionCount() const {
  uint32_t count = 0;
  for (uint32_t vp = 0; vp < YcsbWorkload::kNumPartitions; ++vp) {
    if (OwnsPartition(vp)) ++count;
  }
  return count;
}

Status DFasterWorker::SealPartition(uint32_t partition,
                                    std::shared_ptr<MigrationChannel> channel) {
  if (partition >= seals_.size() || channel == nullptr) {
    return Status::InvalidArgument("bad seal request");
  }
  if (!OwnsPartition(partition)) {
    return Status::InvalidArgument("cannot seal a partition we do not own");
  }
  SealState& seal = *seals_[partition];
  {
    MutexLock lock(seal.mu);
    if (seal.channel != nullptr) {
      return Status::Busy("partition already sealed");
    }
    seal.channel = std::move(channel);
    seal.failed.store(false, std::memory_order_relaxed);
    seal.sealed.store(true, std::memory_order_release);
  }
  // Seal barrier: batches admitted before the gate flipped hold the shared
  // version latch; TryCommit takes it exclusively, so once it returns every
  // such batch has fully executed and the drain's snapshot covers it. (A
  // Busy checkpoint outcome still took the latch — the barrier, not the
  // checkpoint itself, is what correctness needs here; the version boundary
  // additionally keeps ownership static within pre-seal versions.)
  if (dpr_worker_ != nullptr) {
    Status s = dpr_worker_->TryCommit();
    if (!s.ok() && !s.IsBusy()) {
      UnsealPartition(partition, /*disown=*/false);
      return s;
    }
  }
  return Status::OK();
}

void DFasterWorker::UnsealPartition(uint32_t partition, bool disown) {
  SealState& seal = *seals_[partition];
  MutexLock lock(seal.mu);
  if (disown) {
    // Completed migration: drop ownership under the seal lock, before the
    // channel goes away. An op already in the sealed slow path re-checks
    // ownership under this lock, so it either forwarded (pre-flip) or
    // bounces kNotOwner (post-flip) — never a local-only write.
    owners_[partition].store(kInvalidWorker, std::memory_order_release);
  }
  seal.channel = nullptr;
  seal.sealed.store(false, std::memory_order_release);
}

bool DFasterWorker::IsPartitionSealed(uint32_t partition) const {
  return seals_[partition]->sealed.load(std::memory_order_acquire);
}

bool DFasterWorker::SealForwardFailed(uint32_t partition) const {
  return seals_[partition]->failed.load(std::memory_order_relaxed);
}

Status DFasterWorker::DrainSealedPartition(uint32_t partition,
                                           size_t chunk_ops,
                                           Version* max_installed) {
  if (max_installed != nullptr) *max_installed = kInvalidVersion;
  if (partition >= seals_.size() || chunk_ops == 0) {
    return Status::InvalidArgument("bad drain request");
  }
  SealState& seal = *seals_[partition];
  // Key snapshot without the seal lock: keys created after this scan went
  // through the forward path (the partition is already sealed), so missing
  // them here is safe.
  std::vector<uint64_t> keys;
  store_->Scan([&](uint64_t key, Slice /*value*/) {
    if (YcsbWorkload::PartitionOf(key) == partition) keys.push_back(key);
  });
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  auto session = store_->NewSession();
  size_t i = 0;
  while (i < keys.size()) {
    MutexLock lock(seal.mu);
    if (seal.channel == nullptr) {
      return Status::Aborted("partition unsealed during drain");
    }
    KvBatchRequest chunk;
    chunk.install = true;
    chunk.header = MakeInstallHeader(partition);
    for (; i < keys.size() && chunk.ops.size() < chunk_ops; ++i) {
      uint64_t value = 0;
      Status rs = session->Read(keys[i], &value);
      if (rs.IsNotFound()) continue;  // deleted since the scan; the
                                      // forwarded delete already covered it
      if (!rs.ok()) return rs;
      // Values re-read under the seal lock: a drain chunk never carries a
      // value older than a forward the target already saw.
      chunk.ops.push_back(KvOp{KvOp::Type::kUpsert, keys[i], value});
    }
    if (chunk.ops.empty()) continue;
    KvBatchResponse response;
    Status fs = seal.channel->Install(chunk, &response);
    bool chunk_ok =
        fs.ok() &&
        response.header.status == DprResponseHeader::BatchStatus::kOk;
    if (chunk_ok) {
      for (const KvOpResult& r : response.results) {
        if (r.result != KvResult::kOk) chunk_ok = false;
      }
    }
    if (!chunk_ok) {
      seal.failed.store(true, std::memory_order_relaxed);
      return fs.ok() ? Status::Unavailable("migration install rejected")
                     : fs;
    }
    Metrics().install_batches->Add();
    Metrics().install_records->Add(chunk.ops.size());
    if (max_installed != nullptr &&
        response.header.executed_version != kInvalidVersion) {
      *max_installed =
          std::max(*max_installed, response.header.executed_version);
    }
  }
  return Status::OK();
}

void DFasterWorker::ApplyOp(FasterStore::Session* session, const KvOp& op,
                            KvOpResult* out) {
  Status s;
  switch (op.type) {
    case KvOp::Type::kRead:
      s = session->Read(op.key, &out->value);
      break;
    case KvOp::Type::kUpsert:
      s = session->Upsert(op.key, op.value);
      break;
    case KvOp::Type::kRmw:
      s = session->Rmw(op.key, op.value, &out->value);
      break;
    case KvOp::Type::kDelete:
      s = session->Delete(op.key);
      break;
  }
  if (s.ok()) {
    out->result = KvResult::kOk;
  } else if (s.IsNotFound()) {
    out->result = KvResult::kNotFound;
  } else {
    out->result = KvResult::kError;
  }
}

DprRequestHeader DFasterWorker::MakeInstallHeader(uint32_t partition) const {
  DprRequestHeader header;
  header.session_id = kMigrationSessionBase + partition;
  if (dpr_worker_ != nullptr) {
    header.world_line = dpr_worker_->world_line();
    header.version = store_->CurrentVersion();
    header.deps[config_.id] = header.version;
  }
  return header;
}

void DFasterWorker::RunOps(const KvBatchRequest& request, Version /*version*/,
                           KvBatchResponse* response, bool check_ownership,
                           DependencySet* forward_deps) {
  const uint64_t start_us = NowMicros();
  auto session = store_->NewSession();
  const std::vector<KvOp>& ops = request.ops;
  const size_t n = ops.size();
  response->results.resize(n);
  for (size_t j = 0; j < std::min(n, kBucketAhead); ++j) {
    session->PrefetchBucket(ops[j].key);
  }
  for (size_t j = 0; j < std::min(n, kHeadAhead); ++j) {
    session->PrefetchHead(ops[j].key);
  }
  for (size_t i = 0; i < n; ++i) {
    // Overlap the next ops' misses with this one (DESIGN.md §4m).
    if (i + kBucketAhead < n) {
      session->PrefetchBucket(ops[i + kBucketAhead].key);
    }
    if (i + kHeadAhead < n) session->PrefetchHead(ops[i + kHeadAhead].key);
    const KvOp& op = ops[i];
    KvOpResult& out = response->results[i];
    const uint32_t partition = YcsbWorkload::PartitionOf(op.key);
    SealState& seal = *seals_[partition];
    if (!seal.sealed.load(std::memory_order_acquire)) {
      // Fast path: no dual-ownership window. In kDpr mode this cannot race
      // a migration past its seal barrier — the batch holds the shared
      // version latch, which SealPartition's checkpoint must drain first.
      if (check_ownership && !OwnsPartition(partition)) {
        out.result = KvResult::kNotOwner;
        continue;
      }
      ApplyOp(session.get(), op, &out);
      continue;
    }
    // Sealed slow path: local apply + forward are one atom under the seal
    // lock so the target observes writes in source apply order (upserts do
    // not commute with each other or with drain chunks).
    MutexLock lock(seal.mu);
    if (check_ownership && !OwnsPartition(partition)) {
      // Either never ours, or the migration completed (UnsealPartition
      // disowns under this lock before clearing the channel).
      out.result = KvResult::kNotOwner;
      continue;
    }
    ApplyOp(session.get(), op, &out);
    if (seal.channel == nullptr) continue;  // unsealed concurrently: no fwd
    if (out.result != KvResult::kOk || op.type == KvOp::Type::kRead) continue;
    if (seal.failed.load(std::memory_order_relaxed)) {
      // An earlier forward failed, so the migration cannot complete: skip
      // the install rather than wait out another bounded one while holding
      // the version latch. The op's fate at the target is just as unknown.
      out.result = KvResult::kError;
      continue;
    }
    KvBatchRequest forward;
    forward.install = true;
    forward.header = MakeInstallHeader(partition);
    KvOp fwd_op = op;
    if (op.type == KvOp::Type::kRmw) {
      // Forward the computed result as an upsert: the target must not
      // re-apply the delta to its own (possibly behind) base value.
      fwd_op.type = KvOp::Type::kUpsert;
      fwd_op.value = out.value;
    }
    forward.ops.push_back(fwd_op);
    KvBatchResponse fwd_response;
    Status fs = seal.channel->Install(forward, &fwd_response);
    Metrics().forward_ops->Add();
    const bool fwd_ok =
        fs.ok() &&
        fwd_response.header.status == DprResponseHeader::BatchStatus::kOk;
    if (!fwd_ok) {
      // The op applied locally but its fate at the target is unknown; the
      // migration can no longer complete. Surface kError so the client
      // treats the op outcome as uncertain.
      seal.failed.store(true, std::memory_order_relaxed);
      Metrics().forward_failures->Add();
      out.result = KvResult::kError;
      continue;
    }
    if (forward_deps != nullptr && dpr_worker_ != nullptr &&
        fwd_response.header.executed_version != kInvalidVersion) {
      Version& slot = (*forward_deps)[seal.channel->target()];
      slot = std::max(slot, fwd_response.header.executed_version);
    }
  }
  Metrics().apply_us->Record(NowMicros() - start_us);
}

void DFasterWorker::ExecuteBatch(const KvBatchRequest& request,
                                 KvBatchResponse* response) {
  ExecuteBatchInternal(request, response, /*check_ownership=*/true);
}

Status DFasterWorker::InstallMigratedData(const KvBatchRequest& request,
                                          KvBatchResponse* response) {
  ExecuteBatchInternal(request, response, /*check_ownership=*/false);
  return response->header.status == DprResponseHeader::BatchStatus::kOk
             ? Status::OK()
             : Status::Unavailable("migration batch rejected");
}

void DFasterWorker::ExecuteBatchInternal(const KvBatchRequest& request,
                                         KvBatchResponse* response,
                                         bool check_ownership) {
  if (dpr_worker_ == nullptr) {
    // kNone / kEventual: no admission control, no commit tracking. Only
    // kEventual checkpoints, so only it fences batches against them.
    if (config_.mode == RecoverabilityMode::kEventual) {
      eventual_latch_.LockShared();
      RunOps(request, store_->CurrentVersion(), response, check_ownership,
             /*forward_deps=*/nullptr);
      eventual_latch_.UnlockShared();
    } else {
      RunOps(request, store_->CurrentVersion(), response, check_ownership,
             /*forward_deps=*/nullptr);
    }
    response->header.status = DprResponseHeader::BatchStatus::kOk;
    response->header.world_line = kInitialWorldLine;
    response->header.executed_version = store_->CurrentVersion();
    response->header.persisted_version = store_->LargestDurableToken();
    return;
  }
  Version version = kInvalidVersion;
  Status admit = dpr_worker_->BeginBatch(request.header, &version);
  if (!admit.ok()) {
    const auto status = admit.IsAborted()
                            ? DprResponseHeader::BatchStatus::kWorldLineShift
                            : DprResponseHeader::BatchStatus::kRetryLater;
    dpr_worker_->FillResponse(kInvalidVersion, status, &response->header);
    response->results.clear();
    return;
  }
  DependencySet forward_deps;
  RunOps(request, version, response, check_ownership, &forward_deps);
  dpr_worker_->EndBatch();
  if (!forward_deps.empty()) {
    // Dual-ownership re-admission: some op was forwarded to a migration
    // target that executed it in version vd, possibly > the version this
    // batch ran in. Acking the batch at the original version would let the
    // approximate finder's flat-min cut cover the ack while excluding the
    // target's copy of the write (a version-clock violation). Re-admit at a
    // version >= max(vd) with explicit downward deps on the target, and ack
    // *that* version: now a committed ack implies the forwarded writes are
    // inside the cut on both sides. The fast-forward is >=, so source and
    // target version clocks equalize after one round and the extra
    // checkpoints are transient.
    Version max_forwarded = kInvalidVersion;
    for (const auto& [w, v] : forward_deps) {
      (void)w;
      max_forwarded = std::max(max_forwarded, v);
    }
    DprRequestHeader readmit;
    readmit.session_id = request.header.session_id;
    readmit.world_line = dpr_worker_->world_line();
    readmit.version = max_forwarded;
    readmit.deps = forward_deps;
    Version ack_version = kInvalidVersion;
    Status admit2 = dpr_worker_->BeginBatch(readmit, &ack_version);
    if (!admit2.ok()) {
      // A rollback raced the window. The local effects are applied but the
      // entangled ack version is gone; make the client replay the batch
      // (at-least-once across the seal window — see DESIGN.md §4i).
      const auto status =
          admit2.IsAborted() ? DprResponseHeader::BatchStatus::kWorldLineShift
                             : DprResponseHeader::BatchStatus::kRetryLater;
      dpr_worker_->FillResponse(kInvalidVersion, status, &response->header);
      response->results.clear();
      return;
    }
    dpr_worker_->EndBatch();
    Metrics().readmissions->Add();
    version = ack_version;
  }
  dpr_worker_->FillResponse(version, DprResponseHeader::BatchStatus::kOk,
                            &response->header);
}

void DFasterWorker::ExecuteBatch(Slice request, std::string* response) {
  KvBatchRequest req;
  KvBatchResponse resp;
  if (!req.DecodeFrom(request)) {
    resp.header.status = DprResponseHeader::BatchStatus::kRetryLater;
    resp.EncodeTo(response);
    return;
  }
  if (req.install) {
    // Worker-to-worker migration install: the partition is mid-transfer and
    // deliberately unowned at the receiver; skip the ownership check.
    (void)InstallMigratedData(req, &resp);
  } else {
    ExecuteBatch(req, &resp);
  }
  resp.EncodeTo(response);
}

}  // namespace dpr
