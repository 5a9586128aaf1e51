#ifndef DPR_FASTER_LOG_ALLOCATOR_H_
#define DPR_FASTER_LOG_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/sync.h"
#include "faster/record.h"

namespace dpr {

/// The in-memory portion of the HybridLog: a paged, append-only allocator
/// addressed by monotonically-growing logical addresses. Records never span
/// pages; the remainder of a page is sealed with a pad record. Pages are
/// allocated on demand and retained (this reproduction runs the paper's
/// memory-resident configuration; durability comes from checkpoint flushes,
/// not page eviction — see DESIGN.md).
///
/// Thread-safe: Allocate() is a lock-free fetch-add fast path with a brief
/// lock only when a new page must be materialized.
class LogAllocator {
 public:
  /// page_bits: log2 of the page size (default 1 MiB pages).
  explicit LogAllocator(uint32_t page_bits = 20);

  LogAllocator(const LogAllocator&) = delete;
  LogAllocator& operator=(const LogAllocator&) = delete;

  /// Reserves `size` bytes (8-byte aligned, <= page size) and returns the
  /// logical address. The returned region is zeroed.
  LogAddress Allocate(uint64_t size);

  /// Resolves a logical address to memory. The address must have been
  /// returned by Allocate (or lie inside a restored prefix).
  char* Resolve(LogAddress address);
  const char* Resolve(LogAddress address) const;

  /// Like Resolve, but returns nullptr instead of aborting when `address`
  /// lies beyond the allocated log or on a page that was dropped (Clear,
  /// ReleasePagesBelow). For prefetch hints that may chase a stale head.
  const char* TryResolve(LogAddress address) const;

  RecordHeader* RecordAt(LogAddress address) {
    return reinterpret_cast<RecordHeader*>(Resolve(address));
  }
  const RecordHeader* RecordAt(LogAddress address) const {
    return reinterpret_cast<const RecordHeader*>(Resolve(address));
  }

  LogAddress tail() const { return tail_.load(std::memory_order_acquire); }
  uint64_t page_size() const { return uint64_t{1} << page_bits_; }

  /// Ensures pages covering [0, size) exist (used by crash recovery before
  /// bulk-loading a durable log prefix) and positions the tail at `size`.
  void RestoreTo(uint64_t size);

  /// Drops all pages and resets the tail to the initial address (simulated
  /// crash of the volatile cache).
  void Clear();

  /// Frees pages that lie entirely below `address` (log truncation after
  /// compaction). Callers must guarantee no thread still dereferences
  /// addresses below (epoch-protected drain).
  void ReleasePagesBelow(LogAddress address);

  /// First allocatable address (0 is reserved as the null address).
  static constexpr LogAddress kBeginAddress = 64;

 private:
  void EnsurePage(uint64_t page_index);

  const uint32_t page_bits_;
  // acquire-load + CAS: winners own [old, old+size) exclusively; the
  // record bytes are published by the hash-index release-store, not here.
  std::atomic<uint64_t> tail_;
  // Guards page materialization only; Resolve() reads slots lock-free after
  // the num_pages_ release-store publishes them.
  mutable Mutex pages_mu_{LockRank::kStoreLog, "faster.log_pages"};
  std::vector<std::unique_ptr<char[]>> pages_;
  // release on materialize / acquire in Resolve: observing the count
  // implies observing the page pointer it covers.
  std::atomic<uint64_t> num_pages_{0};
};

}  // namespace dpr

#endif  // DPR_FASTER_LOG_ALLOCATOR_H_
