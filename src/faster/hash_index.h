#ifndef DPR_FASTER_HASH_INDEX_H_
#define DPR_FASTER_HASH_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/hash.h"
#include "faster/record.h"

namespace dpr {

/// Latch-free hash index mapping keys to the newest record of their chain on
/// the log. Each bucket holds the head address; records reached through
/// `prev` pointers form the chain (records of different keys may share a
/// bucket's chain, as in FASTER). Updates install a new head with CAS.
///
/// Beside each head, in the same 16-byte slot (so one cache line serves the
/// CAS and its stamp), sits a version stamp: the largest record version ever
/// offered to that bucket by `CasHead` since the bucket was last reset. A
/// delta checkpoint image reads it to judge a bucket clean or dirty without
/// touching the log (DESIGN.md §4j). The stamp is raised *before* the head
/// CAS, so a reader that loads the head (acquire) and then the stamp sees a
/// stamp no smaller than the version of the head it loaded.
class HashIndex {
 public:
  /// `bucket_count` is rounded up to a power of two.
  explicit HashIndex(uint64_t bucket_count);

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  uint64_t BucketFor(uint64_t key) const {
    return Mix64(key) & (bucket_count_ - 1);
  }

  LogAddress Head(uint64_t key) const {
    return buckets_[BucketFor(key)].head.load(std::memory_order_acquire);
  }

  /// CAS the bucket head from `expected` to `desired`, a record stamped
  /// `version`; on failure `expected` holds the observed head. The bucket's
  /// stamp is raised to `version` first, even if the CAS then fails (a
  /// stamp may overstate a bucket's newest version, never understate it).
  bool CasHead(uint64_t key, LogAddress* expected, LogAddress desired,
               uint32_t version) {
    Bucket& bucket = buckets_[BucketFor(key)];
    // relaxed: the head CAS below is the release that publishes the raise;
    // for a hot bucket the stamp is already high enough and this is a load.
    uint32_t stamp = bucket.stamp.load(std::memory_order_relaxed);
    while (stamp < version &&
           // relaxed: as above, published by the head CAS.
           !bucket.stamp.compare_exchange_weak(stamp, version,
                                               std::memory_order_relaxed)) {
    }
    return bucket.head.compare_exchange_strong(*expected, desired,
                                               std::memory_order_acq_rel);
  }

  /// Unconditionally sets a bucket head (single-threaded recovery rebuild)
  /// and resets its stamp; the next checkpoint image must be full.
  void SetHead(uint64_t key, LogAddress address) {
    SetHeadAt(BucketFor(key), address);
  }

  /// Bucket-indexed accessors for checkpoint index images: a full image
  /// walks every bucket, and a chain restore reinstalls heads by bucket
  /// number without knowing the keys that hash there.
  LogAddress HeadAt(uint64_t bucket) const {
    return buckets_[bucket].head.load(std::memory_order_acquire);
  }

  /// The bucket's version stamp. Load it after the head (HeadAt's acquire
  /// keeps this load from moving above it).
  uint32_t StampAt(uint64_t bucket) const {
    // relaxed: ordered after the caller's acquire load of the head.
    return buckets_[bucket].stamp.load(std::memory_order_relaxed);
  }

  void SetHeadAt(uint64_t bucket, LogAddress address) {
    // relaxed: restores run quiesced; the head's release store publishes.
    buckets_[bucket].stamp.store(0, std::memory_order_relaxed);
    buckets_[bucket].head.store(address, std::memory_order_release);
  }

  void Clear();

  uint64_t bucket_count() const { return bucket_count_; }

 private:
  struct alignas(16) Bucket {
    // release on CAS-install / acquire on probe: observing a bucket address
    // implies observing the record bytes written at that address.
    std::atomic<LogAddress> head;
    // relaxed everywhere: ordered by the head's release CAS / acquire load
    // (raise before the CAS; read after the head). Only grows between
    // resets, and resets (SetHeadAt, Clear) run with no operation in flight.
    std::atomic<uint32_t> stamp;
  };

  uint64_t bucket_count_;
  std::unique_ptr<Bucket[]> buckets_;
};

}  // namespace dpr

#endif  // DPR_FASTER_HASH_INDEX_H_
