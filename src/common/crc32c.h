#ifndef DIRECTMESH_COMMON_CRC32C_H_
#define DIRECTMESH_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace dm {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum iSCSI, ext4, and LevelDB/RocksDB use for block
/// integrity. It verifies every page read, so on cold queries it is a
/// visible share of the CPU: with the table path alone, about 11% of
/// the CPU samples of perfbench's `paper_cold` workload. On x86-64
/// with SSE4.2 (checked once at run time) it uses the crc32
/// instruction, about 0.6 us per 4 KB page; elsewhere a slice-by-4
/// table, 5-7 us per page. Both compute the same function.
///
/// `Crc32c(data, n)` returns the CRC of the buffer with the standard
/// init/final XOR (0xFFFFFFFF). `Extend` continues a running CRC over
/// a second buffer, so a page can be checksummed around a hole (the
/// trailer bytes themselves).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

/// The two implementations Crc32cExtend picks between, exposed so
/// tests can hold one against the other. The hardware path may be
/// called only when Crc32cHardwareAvailable(); on other platforms it
/// is the portable path.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n);
uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t n);
bool Crc32cHardwareAvailable();

}  // namespace dm

#endif  // DIRECTMESH_COMMON_CRC32C_H_
