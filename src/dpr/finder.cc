#include "dpr/finder.h"

#include <utility>

#include "common/logging.h"

namespace dpr {

// ------------------------------------------------------------ GraphDprFinder

GraphDprFinder::GraphDprFinder(MetadataStore* metadata, bool persist_graph,
                               bool serve_vmax)
    : FinderCore(metadata, serve_vmax),
      persist_graph_(persist_graph) {
  if (persist_graph_) {
    // Reload durably-stored graph nodes (coordinator restart).
    for (const auto& [wv, deps] : metadata_->GetGraph()) {
      graph_[wv.worker][wv.version] = deps;
    }
  }
  for (const auto& [w, v] : metadata_->GetPersistedVersions()) {
    max_reported_[w] = v;
  }
}

Status GraphDprFinder::PersistReportDurable(const WorkerVersion& wv,
                                            const DependencySet& deps) {
  if (persist_graph_) {
    DPR_RETURN_NOT_OK(metadata_->AddGraphNode(wv, deps));
  }
  // Rows are maintained even in pure-exact mode; they double as the
  // membership table and power MaxPersistedVersion().
  return metadata_->UpsertWorker(wv.worker, wv.version);
}

void GraphDprFinder::ApplyReportLocked(StagedReport&& report) {
  auto& reported = max_reported_[report.wv.worker];
  if (report.wv.version > reported) reported = report.wv.version;
  graph_[report.wv.worker][report.wv.version] = std::move(report.deps);
}

DprCut GraphDprFinder::ComputeExactCutLocked() const {
  // Maximal fixpoint: start each worker's candidate at its largest reported
  // token and shrink until every included token's dependency set is included.
  // Monotonicity (no version depends on a larger version) guarantees the
  // fixpoint exists and only shrinks, so this terminates.
  DprCut candidate;
  for (const auto& [w, floor] : cut_) candidate[w] = floor;
  for (const auto& [w, versions] : graph_) {
    if (!versions.empty()) {
      auto it = candidate.find(w);
      const Version top = versions.rbegin()->first;
      if (it == candidate.end() || it->second < top) candidate[w] = top;
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [w, cand] : candidate) {
      const Version floor = CutVersion(cut_, w);
      auto git = graph_.find(w);
      Version best = floor;
      const auto bit = blind_until_.find(w);
      const bool blind = bit != blind_until_.end() && bit->second > floor;
      if (git != graph_.end() && !blind) {
        // Walk tokens in (floor, cand] ascending; all must validate, since a
        // later token's checkpoint physically contains earlier versions.
        // A blind region ((floor, blind_until]: dependency sets lost in a
        // coordinator crash) pins the walk at the floor — a post-crash node
        // above the region would implicitly include the unknown tokens.
        for (auto it = git->second.upper_bound(floor); it != git->second.end();
             ++it) {
          if (it->first > cand) break;
          bool ok = true;
          for (const auto& [dw, dv] : it->second) {
            if (dw == w) continue;  // self-deps are implied by the chain
            if (CutVersion(candidate, dw) < dv) {
              ok = false;
              break;
            }
          }
          if (!ok) break;
          best = it->first;
        }
      }
      if (best < cand) {
        cand = best;
        changed = true;
      }
    }
  }
  return candidate;
}

Status GraphDprFinder::ComputeCandidateLocked(DprCut* next) {
  *next = ComputeExactCutLocked();
  return Status::OK();
}

Status GraphDprFinder::OnCutAdvancedLocked() {
  if (persist_graph_) {
    DPR_RETURN_NOT_OK(metadata_->PruneGraph(cut_));
  }
  // Committed graph nodes can be garbage-collected from memory.
  for (auto& [w, versions] : graph_) {
    const Version cv = CutVersion(cut_, w);
    // Keep the node at the cut itself: it is the worker's restore point.
    versions.erase(versions.begin(), versions.lower_bound(cv));
  }
  // The approximate fallback caught up past a blind region: exact precision
  // resumes from the new floor.
  for (auto it = blind_until_.begin(); it != blind_until_.end();) {
    if (CutVersion(cut_, it->first) >= it->second) {
      it = blind_until_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

void GraphDprFinder::OnWorkerAddedLocked(WorkerId worker,
                                         Version start_version) {
  max_reported_[worker] = start_version;
}

void GraphDprFinder::OnWorkerRemovedLocked(WorkerId worker) {
  max_reported_.erase(worker);
  graph_.erase(worker);
  blind_until_.erase(worker);
}

Status GraphDprFinder::OnBeginRecoveryLocked() {
  // Reported state above the frozen cut is lost to the rollback.
  for (auto& [w, versions] : graph_) {
    const Version cv = CutVersion(cut_, w);
    versions.erase(versions.upper_bound(cv), versions.end());
  }
  for (auto& [w, v] : max_reported_) {
    const Version cv = CutVersion(cut_, w);
    if (v > cv) v = cv;
  }
  // The rollback erases every reported-but-uncommitted version, blind ones
  // included: the regions dissolve with the state they described.
  blind_until_.clear();
  return Status::OK();
}

void GraphDprFinder::SimulateCoordinatorCrash() {
  MutexLock guard(mu_);
  DiscardStagedLocked();
  graph_.clear();
  if (persist_graph_) {
    // Pure exact mode keeps the graph durable; a restarted coordinator
    // reloads it and loses nothing.
    for (const auto& [wv, deps] : metadata_->GetGraph()) {
      graph_[wv.worker][wv.version] = deps;
    }
  } else {
    // Hybrid: dependency info for every reported-but-uncommitted version is
    // gone. Mark the blind region per worker so ComputeExactCutLocked stalls
    // at the cut until the approximate fallback carries it past. The durable
    // rows — not max_reported_, which lags until drain time — are the
    // crash-surviving record of what was reported: a report staged but not
    // yet drained has already bumped its row.
    for (const auto& [w, v] : metadata_->GetPersistedVersions()) {
      const Version cv = CutVersion(cut_, w);
      if (v > cv) {
        Version& blind = blind_until_[w];
        if (v > blind) blind = v;
      }
    }
  }
}

// ----------------------------------------------------------- SimpleDprFinder

SimpleDprFinder::SimpleDprFinder(MetadataStore* metadata, bool serve_vmax)
    : FinderCore(metadata, serve_vmax) {}

Status SimpleDprFinder::PersistReportDurable(const WorkerVersion& wv,
                                             const DependencySet& /*deps*/) {
  return metadata_->UpsertWorker(wv.worker, wv.version);
}

Status SimpleDprFinder::ComputeCandidateLocked(DprCut* next) {
  // SELECT min(persistedVersion) FROM dpr: by monotonicity no version can
  // depend on a larger version, so every worker's prefix through Vmin is a
  // closed set (paper §3.4).
  *next = cut_;
  const Version vmin = metadata_->MinPersistedVersion();
  if (vmin == kInvalidVersion) return Status::OK();
  for (const auto& [w, v] : metadata_->GetPersistedVersions()) {
    (void)v;
    Version& entry = (*next)[w];
    if (vmin > entry) entry = vmin;
  }
  return Status::OK();
}

// ----------------------------------------------------------- HybridDprFinder

Status HybridDprFinder::ComputeCandidateLocked(DprCut* next) {
  DprCut exact = ComputeExactCutLocked();
  // Approximate fallback: Vmin across durable rows. The union of two closed
  // token sets is closed, so the element-wise max of the exact and
  // approximate cuts is itself a valid cut.
  const Version vmin = metadata_->MinPersistedVersion();
  *next = cut_;
  for (auto& [w, v] : *next) {
    Version target = CutVersion(exact, w);
    if (vmin != kInvalidVersion && vmin > target) target = vmin;
    if (target > v) v = target;
  }
  return Status::OK();
}

// -------------------------------------------------------------------- factory

std::unique_ptr<DprFinder> MakeDprFinder(const FinderOptions& options) {
  DPR_CHECK_MSG(options.metadata != nullptr,
                "FinderOptions::metadata is required");
  switch (options.kind) {
    case FinderKind::kExact:
      return std::unique_ptr<DprFinder>(new GraphDprFinder(
          options.metadata, /*persist_graph=*/true, options.vmax_fastforward));
    case FinderKind::kApprox:
      return std::unique_ptr<DprFinder>(
          new SimpleDprFinder(options.metadata, options.vmax_fastforward));
    case FinderKind::kHybrid:
      return std::unique_ptr<DprFinder>(
          new HybridDprFinder(options.metadata, options.vmax_fastforward));
  }
  return nullptr;
}

}  // namespace dpr
