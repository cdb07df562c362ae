// CRC-64/XZ (reflected ECMA-182 polynomial) — the per-section checksum of
// the snapshot format (storage/snapshot.h).
//
// Snapshot payloads are tens to hundreds of megabytes and are checksummed
// on every load, so the CRC pass sets the cold-start time.  Two tiers
// compute the same value, chosen once per process:
//
//   * folded (x86 with PCLMULQDQ, FSI_FORCE_SCALAR unset): four 128-bit
//     lanes fold 64 bytes per step with carry-less multiplies, collapse
//     into one lane, then fold 16 bytes per step (Gopal et al., "Fast CRC
//     Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//     Intel 2009).  The folded lane and the tail finish in the table loop,
//     so no Barrett reduction is needed; inputs under 128 bytes go
//     straight to the table.  ~3.5x the table loop's throughput.
//   * table (slice-by-16, two 8-byte words per round): every other CPU,
//     FSI_FORCE_SCALAR, and the reference the folded tier is tested
//     against (Crc64Scalar).

#ifndef FSI_STORAGE_CRC64_H_
#define FSI_STORAGE_CRC64_H_

#include <cstddef>
#include <cstdint>

namespace fsi::storage {

/// CRC-64/XZ of `bytes` bytes at `data`, by the fastest tier this CPU
/// runs.  Check value: Crc64("123456789", 9) == 0x995DC9BBDF1939FA.
///
/// Incremental use: feed the previous return value back as `seed` —
/// Crc64(b, n1 + n2) == Crc64(b + n1, n2, Crc64(b, n1)).
std::uint64_t Crc64(const void* data, std::size_t bytes,
                    std::uint64_t seed = 0);

/// The same CRC by the slice-by-16 table loop alone: the scalar tier and
/// the reference Crc64 is tested against.
std::uint64_t Crc64Scalar(const void* data, std::size_t bytes,
                          std::uint64_t seed = 0);

}  // namespace fsi::storage

#endif  // FSI_STORAGE_CRC64_H_
