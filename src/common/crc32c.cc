#include "common/crc32c.h"

#include <array>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dm {

namespace {

/// Four 256-entry tables for slice-by-4, generated at static-init time
/// from the reflected Castagnoli polynomial. Table 0 alone is the
/// classic Sarwate byte-at-a-time table; tables 1-3 fold four input
/// bytes per iteration.
struct CrcTables {
  std::array<std::array<uint32_t, 256>, 4> t;

  CrcTables() {
    constexpr uint32_t kPoly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
    }
  }
};

const CrcTables& Tables() {
  static const CrcTables tables;
  return tables;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same Castagnoli CRC, eight
// bytes per instruction. Compiled for SSE4.2 regardless of the build's
// baseline and called only after the run-time check.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                        const uint8_t* p,
                                                        size_t n) {
  uint64_t c = crc ^ 0xFFFFFFFFu;
  // Head: align to 8 bytes so the wide loads stay in one word.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
    --n;
  }
  while (n >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
    --n;
  }
  return static_cast<uint32_t>(c) ^ 0xFFFFFFFFu;
}
#endif

}  // namespace

bool Crc32cHardwareAvailable() {
#if defined(__x86_64__)
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
#else
  return false;
#endif
}

uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t n) {
#if defined(__x86_64__)
  return ExtendSse42(crc, static_cast<const uint8_t*>(data), n);
#else
  return Crc32cExtendPortable(crc, data, n);
#endif
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  return Crc32cHardwareAvailable() ? Crc32cExtendHardware(crc, data, n)
                                   : Crc32cExtendPortable(crc, data, n);
}

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n) {
  const auto& t = Tables().t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc ^= 0xFFFFFFFFu;
  // Head: align to 4 bytes so the sliced loads stay in one word.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 3u) != 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
    --n;
  }
  while (n >= 4) {
    uint32_t word;
    __builtin_memcpy(&word, p, 4);
    crc ^= word;
    crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^
          t[1][(crc >> 16) & 0xFFu] ^ t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
    --n;
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace dm
