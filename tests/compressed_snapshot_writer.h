// Writes planner snapshots by hand whose compressed sets carry a chosen
// number of image words per group: m = 1 is the layout planner engines
// wrote before their compressed sets dropped the images, m = 0 today's.
// The sections match what Engine::SaveSnapshot writes (engine meta, set
// table of kElements records, kSectionCompressed, payload).

#ifndef FSI_TESTS_COMPRESSED_SNAPSHOT_WRITER_H_
#define FSI_TESTS_COMPRESSED_SNAPSHOT_WRITER_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/compressed_scan.h"
#include "fsi.h"
#include "storage/layout.h"
#include "storage/snapshot.h"

namespace fsi::test {

/// The kSectionCompressed record layout (api/engine_snapshot.cc).
struct CompressedRecord {
  std::uint32_t set_index = 0;
  std::uint32_t codec = 0;
  std::int32_t t = 0;
  std::uint32_t m = 0;
  std::uint64_t n = 0;
  std::uint64_t max_elem = 0;
  std::uint64_t bit_count = 0;
  storage::FlatRef bits;
  storage::FlatRef skips;
};
static_assert(sizeof(CompressedRecord) == 72);

/// The spec the written snapshots load as.
inline constexpr const char* kCompressedPlannerSpec = "Planner:calibration=off";

/// Writes lists[i] as set i, compressed as the image a planner engine with
/// the default seed builds, with ms[i] image words.  Planner engines only
/// write Lowbits; another `codec` makes a record the load must reject.
inline void WriteCompressedPlannerSnapshot(
    const std::string& path, const std::vector<ElemList>& lists,
    const std::vector<int>& ms, ScanCodec codec = ScanCodec::kLowbits) {
  const std::string spec = kCompressedPlannerSpec;
  struct MetaFixed {  // the engine-meta section prefix; spec bytes follow
    std::uint64_t seed;
    std::uint32_t set_count;
    std::uint32_t spec_len;
  };
  const MetaFixed fixed{kDefaultAlgorithmSeed,
                        static_cast<std::uint32_t>(lists.size()),
                        static_cast<std::uint32_t>(spec.size())};
  std::vector<std::byte> meta(sizeof(fixed) + spec.size());
  std::memcpy(meta.data(), &fixed, sizeof(fixed));
  std::memcpy(meta.data() + sizeof(fixed), spec.data(), spec.size());

  storage::PayloadWriter payload;
  std::vector<storage::SetRecord> records(lists.size());
  std::vector<CompressedRecord> compressed(lists.size());
  for (std::size_t i = 0; i < lists.size(); ++i) {
    records[i].kind = static_cast<std::uint32_t>(storage::SetKind::kElements);
    records[i].elems = payload.Append(std::span<const Elem>(lists[i]));
    CompressedScanIntersection::Options o;
    o.seed = kDefaultAlgorithmSeed;
    o.m = ms[i];
    o.codec = codec;
    const CompressedScanIntersection cscan(o);
    const auto prepared = cscan.Preprocess(lists[i]);
    const auto& cs = static_cast<const CompressedScanSet&>(*prepared);
    CompressedRecord& rec = compressed[i];
    rec.set_index = static_cast<std::uint32_t>(i);
    rec.codec = static_cast<std::uint32_t>(cs.codec());
    rec.t = cs.t();
    rec.m = static_cast<std::uint32_t>(cs.m());
    rec.n = cs.size();
    rec.max_elem = cs.max_elem();
    rec.bit_count = cs.bit_count();
    rec.bits = payload.Append(std::span<const std::uint64_t>(cs.bits()));
    rec.skips = payload.Append(std::span<const std::uint64_t>(cs.skips()));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  storage::SnapshotWriter writer(out);
  writer.AddSection(storage::kSectionEngineMeta, meta,
                    storage::kSectionFlagCritical);
  writer.AddSection(
      storage::kSectionSetTable,
      std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(records.data()),
          records.size() * sizeof(storage::SetRecord)),
      storage::kSectionFlagCritical);
  writer.AddSection(
      storage::kSectionCompressed,
      std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(compressed.data()),
          compressed.size() * sizeof(CompressedRecord)));
  writer.AddSection(storage::kSectionPayload, payload.bytes(),
                    storage::kSectionFlagCritical);
  writer.Finish();
}

}  // namespace fsi::test

#endif  // FSI_TESTS_COMPRESSED_SNAPSHOT_WRITER_H_
