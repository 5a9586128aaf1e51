#include "faster/log_allocator.h"

#include "common/logging.h"

namespace dpr {

namespace {
// 64 Ki pages of (default) 1 MiB each = 64 GiB of addressable log, far above
// anything this reproduction allocates. A fixed slot array lets Resolve()
// run lock-free.
constexpr uint64_t kMaxPages = 64 * 1024;
}  // namespace

LogAllocator::LogAllocator(uint32_t page_bits)
    : page_bits_(page_bits), tail_(kBeginAddress) {
  DPR_CHECK(page_bits_ >= 12 && page_bits_ <= 30);
  pages_.resize(kMaxPages);
}

void LogAllocator::EnsurePage(uint64_t page_index) {
  DPR_CHECK_MSG(page_index < kMaxPages, "log exhausted");
  if (page_index < num_pages_.load(std::memory_order_acquire) &&
      pages_[page_index] != nullptr) {
    return;
  }
  MutexLock guard(pages_mu_);
  if (pages_[page_index] == nullptr) {
    // make_unique<char[]> value-initialises: the page arrives zeroed.
    pages_[page_index] = std::make_unique<char[]>(page_size());
  }
  uint64_t n = num_pages_.load(std::memory_order_relaxed);
  if (page_index + 1 > n) {
    num_pages_.store(page_index + 1, std::memory_order_release);
  }
}

LogAddress LogAllocator::Allocate(uint64_t size) {
  DPR_CHECK(size % 8 == 0 && size > 0 && size <= page_size());
  const uint64_t page_mask = page_size() - 1;
  for (;;) {
    const uint64_t old = tail_.load(std::memory_order_acquire);
    const uint64_t offset = old & page_mask;
    if (offset + size > page_size()) {
      // Seal the page: whoever wins the CAS writes a pad record over the
      // remainder (or leaves it zeroed when smaller than a header; the
      // recovery scan skips to the page boundary either way).
      const uint64_t page_end = (old | page_mask) + 1;
      uint64_t expected = old;
      if (tail_.compare_exchange_strong(expected, page_end,
                                        std::memory_order_acq_rel)) {
        const uint64_t gap = page_end - old;
        if (gap >= sizeof(RecordHeader)) {
          EnsurePage(old >> page_bits_);
          auto* pad = RecordAt(old);
          pad->prev = kNullAddress;
          pad->key = 0;
          pad->version = 0;
          pad->value_size = static_cast<uint16_t>(gap - sizeof(RecordHeader));
          pad->flags = RecordHeader::kPad | RecordHeader::kInvalid;
        }
      }
      continue;
    }
    uint64_t expected = old;
    if (tail_.compare_exchange_strong(expected, old + size,
                                      std::memory_order_acq_rel)) {
      EnsurePage(old >> page_bits_);
      EnsurePage((old + size - 1) >> page_bits_);
      return old;
    }
  }
}

char* LogAllocator::Resolve(LogAddress address) {
  const uint64_t page_index = address >> page_bits_;
  DPR_CHECK_MSG(page_index < num_pages_.load(std::memory_order_acquire),
                "address %llu beyond allocated log",
                static_cast<unsigned long long>(address));
  char* page = pages_[page_index].get();
  return page + (address & (page_size() - 1));
}

const char* LogAllocator::Resolve(LogAddress address) const {
  return const_cast<LogAllocator*>(this)->Resolve(address);
}

const char* LogAllocator::TryResolve(LogAddress address) const {
  const uint64_t page_index = address >> page_bits_;
  if (page_index >= num_pages_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  const char* page = pages_[page_index].get();
  return page == nullptr ? nullptr : page + (address & (page_size() - 1));
}

void LogAllocator::RestoreTo(uint64_t size) {
  MutexLock guard(pages_mu_);
  const uint64_t needed = (size + page_size() - 1) >> page_bits_;
  for (uint64_t i = 0; i < needed; ++i) {
    if (pages_[i] == nullptr) pages_[i] = std::make_unique<char[]>(page_size());
  }
  if (needed > num_pages_.load(std::memory_order_relaxed)) {
    num_pages_.store(needed, std::memory_order_release);
  }
  tail_.store(size < kBeginAddress ? kBeginAddress : size,
              std::memory_order_release);
}

void LogAllocator::ReleasePagesBelow(LogAddress address) {
  MutexLock guard(pages_mu_);
  const uint64_t first_kept = address >> page_bits_;
  for (uint64_t i = 0; i < first_kept && i < pages_.size(); ++i) {
    pages_[i].reset();
  }
}

void LogAllocator::Clear() {
  MutexLock guard(pages_mu_);
  for (auto& page : pages_) page.reset();
  num_pages_.store(0, std::memory_order_release);
  tail_.store(kBeginAddress, std::memory_order_release);
}

}  // namespace dpr
