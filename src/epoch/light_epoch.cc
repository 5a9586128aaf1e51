#include "epoch/light_epoch.h"

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"

namespace dpr {

namespace {

// relaxed: thread-id allocator, uniqueness only — no ordering duty.
std::atomic<uint64_t> g_thread_counter{1};

uint64_t ThisThreadId() {
  static thread_local uint64_t id =
      g_thread_counter.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Per-thread slot assignment. Most threads touch one epoch instance, so a
// one-entry cache fronts a map for the multi-store (multi-worker) case.
struct SlotCache {
  const void* last_instance = nullptr;
  uint32_t last_slot = 0;
  std::unordered_map<const void*, uint32_t> slots;
};

SlotCache& GetSlotCache() {
  static thread_local SlotCache cache;
  return cache;
}

constexpr uint32_t kNoSlot = ~0u;

uint32_t LookupSlot(const void* instance) {
  SlotCache& cache = GetSlotCache();
  if (cache.last_instance == instance) return cache.last_slot;
  auto it = cache.slots.find(instance);
  if (it == cache.slots.end()) return kNoSlot;
  cache.last_instance = instance;
  cache.last_slot = it->second;
  return it->second;
}

void RememberSlot(const void* instance, uint32_t slot) {
  SlotCache& cache = GetSlotCache();
  cache.slots[instance] = slot;
  cache.last_instance = instance;
  cache.last_slot = slot;
}

void ForgetSlot(const void* instance) {
  SlotCache& cache = GetSlotCache();
  cache.slots.erase(instance);
  if (cache.last_instance == instance) cache.last_instance = nullptr;
}

}  // namespace

LightEpoch::LightEpoch() : current_epoch_(1), drain_count_(0) {
  for (auto& item : drain_list_) {
    item.epoch = 0;
  }
}

LightEpoch::~LightEpoch() {
  // Run any leftover actions so resources they own are not leaked.
  DoDrain(~0ULL);
}

uint64_t LightEpoch::Protect() {
  uint32_t slot = LookupSlot(this);
  if (slot == kNoSlot) {
    const uint64_t tid = ThisThreadId();
    for (;;) {
      for (uint32_t i = 0; i < kMaxThreads; ++i) {
        uint64_t expected = 0;
        if (table_[i].thread_id.compare_exchange_strong(
                expected, tid, std::memory_order_acq_rel)) {
          slot = i;
          break;
        }
      }
      if (slot != kNoSlot) break;
      std::this_thread::yield();  // table full; wait for a slot to free up
    }
    RememberSlot(this, slot);
  }
  const uint64_t epoch = current_epoch_.load(std::memory_order_acquire);
  table_[slot].local_epoch.store(epoch, std::memory_order_release);
  if (drain_count_.load(std::memory_order_acquire) > 0) {
    DoDrain(ComputeSafeEpoch());
  }
  return epoch;
}

uint64_t LightEpoch::Refresh() {
  const uint32_t slot = LookupSlot(this);
  DPR_CHECK_MSG(slot != kNoSlot, "Refresh() on unprotected thread");
  const uint64_t epoch = current_epoch_.load(std::memory_order_acquire);
  table_[slot].local_epoch.store(epoch, std::memory_order_release);
  if (drain_count_.load(std::memory_order_acquire) > 0) {
    DoDrain(ComputeSafeEpoch());
  }
  return epoch;
}

void LightEpoch::Unprotect() {
  const uint32_t slot = LookupSlot(this);
  if (slot == kNoSlot) return;
  table_[slot].local_epoch.store(kUnprotected, std::memory_order_release);
  table_[slot].thread_id.store(0, std::memory_order_release);
  ForgetSlot(this);
}

bool LightEpoch::IsProtected() const {
  const uint32_t slot = LookupSlot(this);
  if (slot == kNoSlot) return false;
  return table_[slot].local_epoch.load(std::memory_order_acquire) !=
         kUnprotected;
}

uint64_t LightEpoch::ComputeSafeEpoch() const {
  uint64_t safe = current_epoch_.load(std::memory_order_acquire);
  for (const auto& entry : table_) {
    const uint64_t local = entry.local_epoch.load(std::memory_order_acquire);
    if (local != kUnprotected && local < safe) safe = local;
  }
  return safe;
}

uint64_t LightEpoch::BumpEpoch() {
  return current_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

uint64_t LightEpoch::BumpEpoch(std::function<void()> action) {
  // The action is safe once every protected thread has seen an epoch >= the
  // post-bump value, i.e. safe-epoch >= prior+1.
  const uint64_t deadline_us = NowMicros() + kDrainWaitLimitUs;
  for (;;) {
    drain_latch_.Lock();
    for (DrainItem& item : drain_list_) {
      if (item.action) continue;
      const uint64_t next = BumpEpoch();
      item.epoch = next;
      item.action = std::move(action);
      drain_count_.fetch_add(1, std::memory_order_release);
      drain_latch_.Unlock();
      TryDrain();
      return next;
    }
    uint64_t oldest = ~0ULL;
    for (const DrainItem& item : drain_list_) {
      oldest = std::min(oldest, item.epoch);
    }
    drain_latch_.Unlock();
    // Every slot waits for some protected thread to move past its epoch.
    // Run what is ripe, and move this thread's own entry forward in case it
    // is the laggard, then look again.
    DPR_CHECK_MSG(NowMicros() < deadline_us,
                  "epoch drain list full for %llu ms: oldest pending epoch "
                  "%llu, safe epoch %llu, current epoch %llu",
                  static_cast<unsigned long long>(kDrainWaitLimitUs / 1000),
                  static_cast<unsigned long long>(oldest),
                  static_cast<unsigned long long>(ComputeSafeEpoch()),
                  static_cast<unsigned long long>(current_epoch()));
    if (IsProtected()) {
      Refresh();
    } else {
      TryDrain();
    }
    std::this_thread::yield();
  }
}

void LightEpoch::TryDrain() {
  if (drain_count_.load(std::memory_order_acquire) == 0) return;
  DoDrain(ComputeSafeEpoch());
}

void LightEpoch::DoDrain(uint64_t safe_epoch) {
  if (drain_count_.load(std::memory_order_acquire) == 0) return;
  std::vector<std::function<void()>> ready;
  drain_latch_.Lock();
  for (auto& item : drain_list_) {
    if (item.action && item.epoch <= safe_epoch) {
      ready.push_back(std::move(item.action));
      item.action = nullptr;
      drain_count_.fetch_sub(1, std::memory_order_release);
    }
  }
  drain_latch_.Unlock();
  for (auto& action : ready) action();
}

}  // namespace dpr
