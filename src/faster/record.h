#ifndef DPR_FASTER_RECORD_H_
#define DPR_FASTER_RECORD_H_

#include <atomic>
#include <cstdint>
#include <cstring>

namespace dpr {

/// Logical address into the HybridLog. Addresses are byte offsets from the
/// start of the log and only grow; 0 is the null address (end of a hash
/// chain).
using LogAddress = uint64_t;
constexpr LogAddress kNullAddress = 0;

/// On-log record header. Records are 8-byte aligned; the value bytes follow
/// the header immediately (so an 8-byte value is itself 8-byte aligned and
/// can be updated in place with a single atomic store).
///
/// `version` is the CPR/DPR checkpoint version the record was written (or
/// last in-place-updated) in; the rollback state machine (paper Fig. 8) uses
/// it to decide which entries to ignore and then mark invalid.
struct RecordHeader {
  static constexpr uint8_t kTombstone = 1 << 0;
  static constexpr uint8_t kInvalid = 1 << 1;  // rolled back (PURGE) or pad
  static constexpr uint8_t kPad = 1 << 2;      // filler at end of a page
  // Appended while a checkpoint flush was in flight (CPR's reduced mode):
  // never updated in place, so every thread agrees on how to update it.
  static constexpr uint8_t kRcuOnly = 1 << 3;

  LogAddress prev = kNullAddress;  // next-older record in this hash chain
  uint64_t key = 0;
  uint32_t version = 0;
  uint16_t value_size = 0;
  uint8_t flags = 0;
  uint8_t reserved = 0;

  bool tombstone() const { return (LoadFlags() & kTombstone) != 0; }
  bool invalid() const { return (LoadFlags() & kInvalid) != 0; }
  bool pad() const { return (LoadFlags() & kPad) != 0; }
  bool rcu_only() const { return (LoadFlags() & kRcuOnly) != 0; }

  /// Flags can be set concurrently with readers (PURGE marks records invalid
  /// while lookups traverse chains), so access them atomically.
  uint8_t LoadFlags() const {
    return std::atomic_ref<const uint8_t>(flags).load(
        std::memory_order_acquire);
  }
  void SetFlag(uint8_t flag) {
    std::atomic_ref<uint8_t>(flags).fetch_or(flag, std::memory_order_acq_rel);
  }

  char* value() { return reinterpret_cast<char*>(this + 1); }
  const char* value() const { return reinterpret_cast<const char*>(this + 1); }

  /// Total record footprint in the log, 8-byte aligned.
  static uint64_t SizeWith(uint16_t value_size) {
    return (sizeof(RecordHeader) + value_size + 7) & ~uint64_t{7};
  }
  uint64_t size() const { return SizeWith(value_size); }
};

static_assert(sizeof(RecordHeader) == 24, "record header layout");

}  // namespace dpr

#endif  // DPR_FASTER_RECORD_H_
