#ifndef DPR_COMMON_HASH_H_
#define DPR_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace dpr {

/// 64-bit finalizer from MurmurHash3; good avalanche behaviour for integer
/// keys, used by the hash index and key-to-shard routing.
inline uint64_t Mix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// FNV-1a over an arbitrary byte range; used for string keys and metadata.
uint64_t HashBytes(const void* data, size_t n);

/// CRC32C (Castagnoli) used to checksum log and checkpoint records. Uses
/// the SSE4.2 crc32 instruction when the CPU has it, else Crc32cSoftware.
/// Chainable: Crc32c(b, m, Crc32c(a, n)) is the CRC of a followed by b.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// The byte-at-a-time table loop behind Crc32c on CPUs without SSE4.2;
/// same results on every input.
uint32_t Crc32cSoftware(const void* data, size_t n, uint32_t seed = 0);

}  // namespace dpr

#endif  // DPR_COMMON_HASH_H_
