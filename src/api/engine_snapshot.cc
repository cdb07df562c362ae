// Engine snapshot persistence: SaveSnapshot / LoadSnapshot and the
// section-level entry points containers compose (InvertedIndex::Save).
//
// Save walks the prepared sets and writes one SetRecord each: structures
// with a flat layout (PlainSet, ScanSet, PlannedSet) append their arrays
// to the payload section via WriteFlat; every other representation falls
// back to its raw sorted elements (kElements, rebuilt by Preprocess on
// load — correct for any algorithm, just not zero-copy).  Mutable sets
// save their current effective contents as kMutable records and load
// back with an empty delta: a structure that keeps its sorted elements
// (PlannedSet, PlainSet) goes through the same flat layout, and its
// viewed elements become the set's base; any other structure saves the
// elements alone and is re-prepared on load, as are elements-only
// records written before mutable sets had flat layouts.  Load resolves
// each record against the mmap'ed payload with ViewFlat, so the
// reconstructed structures' spans alias the mapping — zero per-element
// copies — and every zero-copy set retains the mapping via its deleter,
// so the file stays mapped exactly as long as any handle needs it.
//
// Planner engines additionally stamp their calibrated cost constants into
// a calibration section.  Load then constructs the planner with
// calibration=off (skipping the ~100 ms startup measurement) and installs
// the stamped constants (calibration_source() == "snapshot") — cold start
// must not re-measure what the snapshot already knows.

#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/epoch.h"
#include "api/planner.h"
#include "api/registry.h"
#include "baseline/plain_set.h"
#include "core/compressed_scan.h"
#include "core/delta_set.h"
#include "core/ran_group_scan.h"
#include "storage/layout.h"
#include "storage/mapped_file.h"
#include "storage/snapshot.h"

namespace fsi {
namespace {

using storage::SnapshotError;
using storage::SnapshotErrorCode;

// The engine-meta section: a fixed prefix plus the spec string.
struct EngineMetaFixed {
  std::uint64_t seed = 0;
  std::uint32_t set_count = 0;
  std::uint32_t spec_len = 0;
};
static_assert(sizeof(EngineMetaFixed) == 16);

std::vector<std::byte> PackEngineMeta(std::uint64_t seed,
                                      std::size_t set_count,
                                      const std::string& spec) {
  EngineMetaFixed fixed;
  fixed.seed = seed;
  fixed.set_count = static_cast<std::uint32_t>(set_count);
  fixed.spec_len = static_cast<std::uint32_t>(spec.size());
  std::vector<std::byte> bytes(sizeof(fixed) + spec.size());
  std::memcpy(bytes.data(), &fixed, sizeof(fixed));
  std::memcpy(bytes.data() + sizeof(fixed), spec.data(), spec.size());
  return bytes;
}

struct EngineMeta {
  std::uint64_t seed = 0;
  std::size_t set_count = 0;
  std::string spec;
};

EngineMeta ParseEngineMeta(std::span<const std::byte> bytes) {
  if (bytes.size() < sizeof(EngineMetaFixed)) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        "snapshot: engine meta section too small");
  }
  EngineMetaFixed fixed;
  std::memcpy(&fixed, bytes.data(), sizeof(fixed));
  if (bytes.size() - sizeof(fixed) < fixed.spec_len) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        "snapshot: engine meta spec truncated");
  }
  EngineMeta meta;
  meta.seed = fixed.seed;
  meta.set_count = fixed.set_count;
  meta.spec.assign(
      reinterpret_cast<const char*>(bytes.data()) + sizeof(fixed),
      fixed.spec_len);
  return meta;
}

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// One compressed set in the kSectionCompressed section.  The matching
/// SetRecord (same index) is written as kElements with the decoded
/// elements, so readers without this section still load the set —
/// uncompressed.  Readers with it restore the compressed image instead
/// and skip the rebuild.
struct CompressedSetRecord {
  std::uint32_t set_index = 0;
  std::uint32_t codec = 0;  // ScanCodec
  std::int32_t t = 0;
  std::uint32_t m = 0;  // image words per non-empty group (0..64)
  std::uint64_t n = 0;
  std::uint64_t max_elem = 0;
  std::uint64_t bit_count = 0;
  storage::FlatRef bits;
  storage::FlatRef skips;
};
static_assert(sizeof(CompressedSetRecord) == 72 &&
              std::is_trivially_copyable_v<CompressedSetRecord>);

/// Rebuilds one compressed set from its snapshot record.  Everything
/// untrusted funnels through ResolveSpan (bounds/alignment) and
/// CompressedScanSet::FromParts (full checked stream walk): corruption
/// throws SnapshotError(kCorrupt), never reads out of bounds.
std::unique_ptr<const PreprocessedSet> RestoreCompressedSet(
    const IntersectionAlgorithm& algorithm,
    std::span<const std::byte> payload, const CompressedSetRecord& rec) {
  const auto* planner = dynamic_cast<const PlannerAlgorithm*>(&algorithm);
  if (planner == nullptr) {
    throw SnapshotError(
        SnapshotErrorCode::kCorrupt,
        "snapshot: compressed set record in a non-planner snapshot");
  }
  const CompressedScanIntersection& cscan = planner->compressed_algorithm();
  // The planner's g-space steps probe Lowbits streams only; a γ/δ record
  // would load and then fail at query time.
  if (rec.codec != static_cast<std::uint32_t>(ScanCodec::kLowbits)) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        "snapshot: compressed set: codec is not Lowbits");
  }
  // Each set keeps the image count it was encoded with: images written
  // before planner sets dropped them (m = 1) still load, and Validate
  // rejects a count outside 0..64 or one the stream does not carry.
  const auto bits = storage::ResolveSpan<std::uint64_t>(payload, rec.bits,
                                                        "compressed bits");
  const auto skips = storage::ResolveSpan<std::uint64_t>(payload, rec.skips,
                                                         "compressed skips");
  std::unique_ptr<CompressedScanSet> set = CompressedScanSet::FromParts(
      static_cast<std::size_t>(rec.n), rec.t,
      static_cast<ScanCodec>(rec.codec), static_cast<Elem>(rec.max_elem),
      std::vector<std::uint64_t>(bits.begin(), bits.end()),
      static_cast<std::size_t>(rec.bit_count),
      std::vector<std::uint64_t>(skips.begin(), skips.end()),
      static_cast<int>(rec.m), cscan.permutation().domain_bits(),
      /*index_groups=*/true);
  return std::make_unique<PlannedSet>(std::move(set));
}

/// The registry spec with calibration=off appended — the load path's way
/// of constructing a planner without the startup measurement.  Returns
/// nullopt for specs whose factory rejects the option (non-planner).
std::unique_ptr<IntersectionAlgorithm> TryCreateUncalibrated(
    const std::string& spec, std::uint64_t seed) {
  const std::string spec_off =
      spec + (spec.find(':') == std::string::npos ? ":calibration=off"
                                                  : ",calibration=off");
  try {
    return AlgorithmRegistry::Global().Create(spec_off, seed);
  } catch (const std::invalid_argument&) {
    return nullptr;
  }
}

/// Whether `algorithm` builds PlainSet structures, whose flat layout is
/// exactly the sorted elements an elements-only record holds.
bool BuildsPlainSets(const IntersectionAlgorithm& algorithm) {
  return dynamic_cast<const PlainSet*>(algorithm.Preprocess({}).get()) !=
         nullptr;
}

}  // namespace

void Engine::WriteSnapshotSections(
    storage::SnapshotWriter& writer,
    std::span<const PreparedSet* const> sets) const {
  // Same handle checks as MakeQuery: saving a foreign engine's handle
  // would stamp this engine's spec/seed over a structure built with
  // different hash functions — a checked error, not a corrupt file.
  for (const PreparedSet* s : sets) {
    if (s == nullptr || s->empty_handle()) {
      throw std::invalid_argument(
          "Engine::SaveSnapshot: empty PreparedSet handle");
    }
    if (s->algorithm_.get() != algorithm_.get()) {
      throw std::invalid_argument(
          "Engine::SaveSnapshot: PreparedSet built by a different Engine");
    }
  }

  storage::PayloadWriter payload;
  std::vector<storage::SetRecord> records;
  std::vector<CompressedSetRecord> compressed;
  records.reserve(sets.size());
  for (const PreparedSet* s : sets) {
    storage::SetRecord record;
    if (s->is_mutable()) {
      // Freeze the current effective set; the delta tier restarts empty
      // on load.  The elems ref is always the effective contents, which is
      // all an elements-only reader needs.
      const MutableSetState state = s->core_->Snapshot();
      const ElemList merged = state.delta.empty()
                                  ? ElemList()
                                  : MergeEffective(state.base, state.delta);
      if (planner_view_ != nullptr) {
        // The PlannedSet flat layout, rebuilt here when a delta is pending
        // so that load never preprocesses.
        const std::shared_ptr<const PreprocessedSet> structure =
            state.delta.empty() ? state.structure
                                : std::shared_ptr<const PreprocessedSet>(
                                      algorithm_->Preprocess(merged));
        As<PlannedSet>(*structure).WriteFlat(payload, record);
      } else {
        // A PlainSet's flat layout is its elements alone; any other
        // structure is re-prepared from them on load.
        record.elems = payload.Append(state.delta.empty()
                                          ? state.base
                                          : std::span<const Elem>(merged));
      }
      record.kind = static_cast<std::uint32_t>(storage::SetKind::kMutable);
    } else if (const auto* planned =
                   dynamic_cast<const PlannedSet*>(s->raw())) {
      if (planned->has_plain()) {
        planned->WriteFlat(payload, record);
      } else {
        // Compressed representation: the SetRecord itself is kElements
        // (decoded below) so pre-kSectionCompressed readers still load the
        // set, just uncompressed; the compressed image rides in the
        // non-critical compressed section keyed by set index.
        const PreprocessedSet* raw = s->raw();
        const PreprocessedSet* pair[2] = {raw, raw};
        ElemList elems;
        algorithm_->Intersect(pair, &elems);
        record.kind = static_cast<std::uint32_t>(storage::SetKind::kElements);
        record.elems = payload.Append(std::span<const Elem>(elems));

        const CompressedScanSet& cs = *planned->cscan();
        CompressedSetRecord crec;
        crec.set_index = static_cast<std::uint32_t>(records.size());
        crec.codec = static_cast<std::uint32_t>(cs.codec());
        crec.t = cs.t();
        crec.m = static_cast<std::uint32_t>(cs.m());
        crec.n = cs.size();
        crec.max_elem = cs.max_elem();
        crec.bit_count = cs.bit_count();
        crec.bits = payload.Append(std::span<const std::uint64_t>(cs.bits()));
        crec.skips = payload.Append(std::span<const std::uint64_t>(cs.skips()));
        compressed.push_back(crec);
      }
    } else if (const auto* scan = dynamic_cast<const ScanSet*>(s->raw())) {
      scan->WriteFlat(payload, record);
    } else if (const auto* plain = dynamic_cast<const PlainSet*>(s->raw())) {
      plain->WriteFlat(payload, record);
    } else {
      // No flat layout registered for this representation: export the
      // sorted elements by self-intersection (exact for every algorithm,
      // and within even IntGroup's k == 2 arity limit) and let load
      // rebuild the structure.
      const PreprocessedSet* raw = s->raw();
      const PreprocessedSet* pair[2] = {raw, raw};
      ElemList elems;
      algorithm_->Intersect(pair, &elems);
      record.kind = static_cast<std::uint32_t>(storage::SetKind::kElements);
      record.elems = payload.Append(std::span<const Elem>(elems));
    }
    records.push_back(record);
  }

  const std::vector<std::byte> meta =
      PackEngineMeta(seed_, sets.size(), spec_);
  writer.AddSection(storage::kSectionEngineMeta, meta,
                    storage::kSectionFlagCritical);
  if (planner_view_ != nullptr) {
    PlannerCalibration calibration;
    calibration.constants = planner_view_->constants();
    calibration.source = std::string(planner_view_->calibration_source());
    const std::string json = calibration.ToJson();
    writer.AddSection(storage::kSectionCalibration, AsBytes(json));
  }
  writer.AddSection(
      storage::kSectionSetTable,
      std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(records.data()),
          records.size() * sizeof(storage::SetRecord)),
      storage::kSectionFlagCritical);
  if (!compressed.empty()) {
    // Non-critical: readers predating kSectionCompressed skip it and
    // rebuild these sets uncompressed from their kElements records.
    writer.AddSection(
        storage::kSectionCompressed,
        std::span<const std::byte>(
            reinterpret_cast<const std::byte*>(compressed.data()),
            compressed.size() * sizeof(CompressedSetRecord)));
  }
  writer.AddSection(storage::kSectionPayload, payload.bytes(),
                    storage::kSectionFlagCritical);
}

void Engine::SaveSnapshot(const std::string& path,
                          std::span<const PreparedSet* const> sets) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw SnapshotError(SnapshotErrorCode::kIo,
                        "snapshot: cannot open '" + path + "' for writing");
  }
  storage::SnapshotWriter writer(out);
  WriteSnapshotSections(writer, sets);
  writer.Finish();
}

void Engine::SaveSnapshot(const std::string& path,
                          std::span<const PreparedSet> sets) const {
  std::vector<const PreparedSet*> ptrs;
  ptrs.reserve(sets.size());
  for (const PreparedSet& s : sets) ptrs.push_back(&s);
  SaveSnapshot(path, std::span<const PreparedSet* const>(ptrs));
}

LoadedSnapshot Engine::LoadSnapshotSections(
    const storage::SnapshotReader& reader,
    std::shared_ptr<const storage::MappedFile> backing,
    SnapshotLoadOptions options) {
  const EngineMeta meta =
      ParseEngineMeta(reader.RequireSection(storage::kSectionEngineMeta,
                                            "engine meta"));

  std::optional<std::string> calibration_json;
  if (auto section = reader.Section(storage::kSectionCalibration)) {
    calibration_json.emplace(
        reinterpret_cast<const char*>(section->data()), section->size());
  }

  std::unique_ptr<IntersectionAlgorithm> algorithm;
  if (calibration_json) {
    algorithm = TryCreateUncalibrated(meta.spec, meta.seed);
  }
  if (algorithm == nullptr) {
    try {
      algorithm = AlgorithmRegistry::Global().Create(meta.spec, meta.seed);
    } catch (const std::invalid_argument& e) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          "snapshot: cannot reconstruct engine spec '" +
                              meta.spec + "': " + e.what());
    }
  }

  std::string calibration_source;
  if (calibration_json) {
    if (auto* planner = dynamic_cast<PlannerAlgorithm*>(algorithm.get())) {
      PlannerCalibration calibration;
      try {
        calibration = PlannerCalibration::FromJson(*calibration_json);
      } catch (const std::invalid_argument& e) {
        throw SnapshotError(
            SnapshotErrorCode::kCorrupt,
            std::string("snapshot: bad calibration section: ") + e.what());
      }
      planner->OverrideConstants(calibration.constants, "snapshot");
      calibration_source = "snapshot";
    }
  }

  Engine engine(std::move(algorithm),
                EngineOptions{meta.seed, options.validation});
  engine.spec_ = meta.spec;

  const auto table =
      reader.RequireSection(storage::kSectionSetTable, "set table");
  if (table.size() != meta.set_count * sizeof(storage::SetRecord)) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        "snapshot: set table size inconsistent with meta");
  }
  const auto payload =
      reader.RequireSection(storage::kSectionPayload, "payload");

  // Compressed-set records, keyed by set index.  Absent section → empty
  // map → every kElements record rebuilds uncompressed (old snapshots).
  std::unordered_map<std::uint32_t, CompressedSetRecord> compressed;
  if (auto section = reader.Section(storage::kSectionCompressed)) {
    if (section->size() % sizeof(CompressedSetRecord) != 0) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          "snapshot: compressed section size is not a "
                          "record multiple");
    }
    const std::size_t count = section->size() / sizeof(CompressedSetRecord);
    for (std::size_t i = 0; i < count; ++i) {
      CompressedSetRecord rec;
      std::memcpy(&rec, section->data() + i * sizeof(rec), sizeof(rec));
      if (rec.set_index >= meta.set_count ||
          !compressed.emplace(rec.set_index, rec).second) {
        throw SnapshotError(SnapshotErrorCode::kCorrupt,
                            "snapshot: compressed section: bad or duplicate "
                            "set index");
      }
    }
  }

  LoadedSnapshot out{std::move(engine), {}, {}};
  out.info.version_major = reader.header().version_major;
  out.info.version_minor = reader.header().version_minor;
  out.info.spec = meta.spec;
  out.info.seed = meta.seed;
  out.info.load_mode = backing != nullptr ? backing->load_mode() : "buffer";
  out.info.mapped_bytes = reader.file().size();
  out.info.map_base = reader.file().data();
  out.info.sets_total = meta.set_count;
  out.info.calibration_source = calibration_source;

  // Zero-copy structures alias the mapping; their deleters retain
  // `backing` so the mapping outlives the last handle.
  const auto adopt = [&backing](std::unique_ptr<const PreprocessedSet> s) {
    return std::shared_ptr<const PreprocessedSet>(
        s.release(),
        [backing](const PreprocessedSet* p) { delete p; });
  };

  out.sets.reserve(meta.set_count);
  for (std::size_t i = 0; i < meta.set_count; ++i) {
    storage::SetRecord record;
    std::memcpy(&record, table.data() + i * sizeof(record), sizeof(record));
    switch (static_cast<storage::SetKind>(record.kind)) {
      case storage::SetKind::kPlain:
        out.sets.push_back(PreparedSet(
            out.engine.algorithm_, adopt(PlainSet::ViewFlat(payload, record))));
        ++out.info.sets_zero_copy;
        break;
      case storage::SetKind::kScan:
        out.sets.push_back(PreparedSet(
            out.engine.algorithm_, adopt(ScanSet::ViewFlat(payload, record))));
        ++out.info.sets_zero_copy;
        break;
      case storage::SetKind::kPlanned:
        out.sets.push_back(PreparedSet(
            out.engine.algorithm_,
            adopt(PlannedSet::ViewFlat(payload, record))));
        ++out.info.sets_zero_copy;
        break;
      case storage::SetKind::kElements: {
        if (const auto it = compressed.find(static_cast<std::uint32_t>(i));
            it != compressed.end()) {
          // The set was prepared under a space budget: restore the
          // compressed image directly instead of rebuilding uncompressed.
          out.sets.push_back(PreparedSet(
              out.engine.algorithm_,
              std::shared_ptr<const PreprocessedSet>(RestoreCompressedSet(
                  *out.engine.algorithm_, payload, it->second))));
          ++out.info.sets_compressed;
          break;
        }
        const auto elems =
            storage::ResolveSpan<Elem>(payload, record.elems, "elements");
        out.sets.push_back(PreparedSet(
            out.engine.algorithm_,
            std::shared_ptr<const PreprocessedSet>(
                out.engine.algorithm_->Preprocess(elems))));
        ++out.info.sets_rebuilt;
        break;
      }
      case storage::SetKind::kMutable: {
        ++out.info.sets_mutable;
        // Flat layouts: the planner's record carries ScanSet arrays; a
        // PlainSet's layout is its elements alone, so an elements-only
        // record is one whenever the engine builds PlainSets.
        std::shared_ptr<const PreprocessedSet> structure;
        if (record.group_start.count != 0) {
          if (out.engine.planner_view_ == nullptr) {
            throw SnapshotError(SnapshotErrorCode::kCorrupt,
                                "snapshot: planner arrays in a mutable "
                                "record of a non-planner snapshot");
          }
          structure = adopt(PlannedSet::ViewFlat(payload, record));
        } else if (BuildsPlainSets(*out.engine.algorithm_)) {
          structure = adopt(PlainSet::ViewFlat(payload, record));
        }
        if (structure != nullptr) {
          out.sets.push_back(out.engine.AdoptMutable(
              std::move(structure), options.mutable_options));
          ++out.info.sets_zero_copy;
          break;
        }
        // Elements only (older planner files, structures without a flat
        // layout that keeps the elements): rebuild.
        const auto elems =
            storage::ResolveSpan<Elem>(payload, record.elems, "elements");
        out.sets.push_back(
            out.engine.PrepareMutable(elems, options.mutable_options));
        break;
      }
      default:
        throw SnapshotError(
            SnapshotErrorCode::kBadVersion,
            "snapshot: unknown set kind " + std::to_string(record.kind) +
                " (written by a newer version)");
    }
  }
  return out;
}

LoadedSnapshot Engine::LoadSnapshot(const std::string& path,
                                    SnapshotLoadOptions options) {
  // A verifying load touches every page for the CRC pass anyway —
  // prefault the mapping in one go instead of page-by-page.
  auto backing = std::make_shared<const storage::MappedFile>(
      path, /*prefault=*/options.verify_checksums);
  storage::SnapshotReader reader(
      backing->bytes(),
      storage::SnapshotReader::Options{options.verify_checksums});
  return LoadSnapshotSections(reader, std::move(backing), options);
}

}  // namespace fsi
