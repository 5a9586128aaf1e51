#include "common/hash.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dpr {

uint64_t HashBytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

namespace {

struct Crc32cTable {
  uint32_t table[256];
  constexpr Crc32cTable() : table{} {
    // CRC32C (Castagnoli) polynomial, reflected.
    constexpr uint32_t kPoly = 0x82f63b78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      table[i] = crc;
    }
  }
};

constexpr Crc32cTable kCrcTable{};

// Both loops take and return the CRC register (pre- and post-inverted by
// the callers).
uint32_t Crc32cTableLoop(uint32_t crc, const unsigned char* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kCrcTable.table[(crc ^ p[i]) & 0xff];
  }
  return crc;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(
    uint32_t crc, const unsigned char* p, size_t n) {
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0; --n) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  uint64_t crc64 = crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    memcpy(&word, p, 8);
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; --n) crc = _mm_crc32_u8(crc, *p++);
  return crc;
}
#endif

using Crc32cLoop = uint32_t (*)(uint32_t, const unsigned char*, size_t);

Crc32cLoop ChooseCrc32cLoop() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cTableLoop;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  static const Crc32cLoop loop = ChooseCrc32cLoop();
  return ~loop(~seed, static_cast<const unsigned char*>(data), n);
}

uint32_t Crc32cSoftware(const void* data, size_t n, uint32_t seed) {
  return ~Crc32cTableLoop(~seed, static_cast<const unsigned char*>(data), n);
}

}  // namespace dpr
