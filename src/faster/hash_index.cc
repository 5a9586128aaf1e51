#include "faster/hash_index.h"

#include "common/logging.h"

namespace dpr {

namespace {
uint64_t RoundUpPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

HashIndex::HashIndex(uint64_t bucket_count)
    : bucket_count_(RoundUpPow2(bucket_count < 16 ? 16 : bucket_count)),
      buckets_(new Bucket[bucket_count_]) {
  Clear();
}

void HashIndex::Clear() {
  for (uint64_t i = 0; i < bucket_count_; ++i) {
    // relaxed: Clear runs before the index is published to other threads.
    buckets_[i].head.store(kNullAddress, std::memory_order_relaxed);
    buckets_[i].stamp.store(0, std::memory_order_relaxed);
  }
}

}  // namespace dpr
