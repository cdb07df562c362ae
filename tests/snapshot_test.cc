// Snapshot persistence tests (docs/PERSISTENCE.md): the CRC-64 kernel,
// the flat-layout primitives, the section container, the save → load
// round trip (every registered algorithm × every query sink, bitwise),
// the zero-copy aliasing guarantee, the corruption matrix (every typed
// failure a malformed file must produce instead of UB), mutable-set and
// planner-calibration round trips, InvertedIndex::Save/Open, and a
// cross-process save/load driven by the CI snapshot job.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/plain_set.h"
#include "compressed_snapshot_writer.h"
#include "core/delta_set.h"
#include "core/ran_group_scan.h"
#include "fsi.h"
#include "index/inverted_index.h"
#include "storage/crc64.h"
#include "storage/layout.h"
#include "storage/mapped_file.h"
#include "storage/snapshot.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

using storage::Crc64;
using storage::SnapshotError;
using storage::SnapshotErrorCode;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "fsi_" + name;
}

std::vector<std::byte> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(chars.size());
  std::memcpy(bytes.data(), chars.data(), chars.size());
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// File offset of the section-table entry of `type` in a snapshot image.
std::size_t SectionEntryOffset(const std::vector<std::byte>& bytes,
                               std::uint32_t type) {
  storage::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (std::size_t i = 0; i < header.section_count; ++i) {
    const std::size_t at =
        header.table_offset + i * sizeof(storage::SectionEntry);
    storage::SectionEntry entry;
    std::memcpy(&entry, bytes.data() + at, sizeof(entry));
    if (entry.type == type) return at;
  }
  ADD_FAILURE() << "no section of type " << type;
  return 0;
}

/// Applies `patch` to the bytes of section `type` in a snapshot image and
/// re-stamps the section's CRC, so a load reaches the structural check
/// under test.
template <typename Patch>
void PatchSnapshotSection(std::vector<std::byte>* bytes, std::uint32_t type,
                          Patch patch) {
  const std::size_t at = SectionEntryOffset(*bytes, type);
  storage::SectionEntry entry;
  std::memcpy(&entry, bytes->data() + at, sizeof(entry));
  patch(bytes->data() + entry.offset);
  entry.crc64 = Crc64(bytes->data() + entry.offset, entry.size);
  std::memcpy(bytes->data() + at, &entry, sizeof(entry));
}

SnapshotErrorCode LoadErrorCode(const std::string& path) {
  try {
    (void)Engine::LoadSnapshot(path);
  } catch (const SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "LoadSnapshot(" << path << ") did not throw";
  return SnapshotErrorCode::kIo;
}

// ---------------------------------------------------------------------------
// CRC-64/XZ

TEST(Crc64Test, KnownCheckValue) {
  // The CRC-64/XZ check value: CRC of the ASCII string "123456789".
  EXPECT_EQ(Crc64("123456789", 9), 0x995DC9BBDF1939FAULL);
}

TEST(Crc64Test, EmptyIsZero) { EXPECT_EQ(Crc64("", 0), 0u); }

TEST(Crc64Test, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(1027);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const std::uint64_t whole = Crc64(data.data(), data.size());
  std::vector<std::size_t> splits = {1000, data.size()};
  for (std::size_t split = 0; split <= 300; ++split) splits.push_back(split);
  for (std::size_t split : splits) {
    std::uint64_t crc = Crc64(data.data(), split);
    crc = Crc64(data.data() + split, data.size() - split, crc);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc64Test, DispatchedMatchesTableReference) {
  // The folded tier (taken from 128 bytes up, when the CPU has PCLMULQDQ)
  // against the table loop: every length across the 128-byte switch and
  // several 64-byte fold rounds, at every alignment, from three seeds.
  Xoshiro256 rng(0xc4c64);
  std::vector<std::uint8_t> data(1100 + 16);
  for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.Next());
  for (std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{0x995DC9BBDF1939FAULL},
        ~std::uint64_t{0}}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t len = 0; len <= 1100; ++len) {
        const std::uint8_t* p = data.data() + offset;
        ASSERT_EQ(Crc64(p, len, seed), storage::Crc64Scalar(p, len, seed))
            << "offset " << offset << " length " << len << " seed " << seed;
      }
    }
  }
}

TEST(Crc64Test, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(256, 0xA5);
  const std::uint64_t before = Crc64(data.data(), data.size());
  data[137] ^= 0x10;
  EXPECT_NE(Crc64(data.data(), data.size()), before);
}

// ---------------------------------------------------------------------------
// FlatArray semantics

TEST(FlatArrayTest, OwningCopyRepointsView) {
  storage::FlatArray<Elem> a(ElemList{1, 2, 3});
  storage::FlatArray<Elem> b(a);  // copy must view its own storage
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b[2], 3u);
  storage::FlatArray<Elem> c(std::move(a));
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], 1u);
}

TEST(FlatArrayTest, BorrowedViewAliasesCaller) {
  const ElemList backing{5, 6, 7, 8};
  auto v = storage::FlatArray<Elem>::View(
      std::span<const Elem>(backing.data(), backing.size()));
  EXPECT_TRUE(v.borrowed());
  EXPECT_EQ(v.data(), backing.data());
  auto copy = v;  // copying a borrowed view stays a view
  EXPECT_EQ(copy.data(), backing.data());
}

TEST(FlatArrayTest, PayloadWriterAligns) {
  storage::PayloadWriter payload;
  const ElemList a{1, 2, 3};
  const std::vector<Word> b{4, 5};
  auto ra = payload.Append(std::span<const Elem>(a.data(), a.size()));
  auto rb = payload.Append(std::span<const Word>(b.data(), b.size()));
  EXPECT_EQ(ra.offset % storage::kFlatAlignment, 0u);
  EXPECT_EQ(rb.offset % storage::kFlatAlignment, 0u);
  EXPECT_EQ(ra.count, 3u);
  EXPECT_EQ(rb.count, 2u);
  auto back = storage::ResolveSpan<Word>(payload.bytes(), rb, "b");
  EXPECT_EQ(back[1], 5u);
}

TEST(FlatArrayTest, ResolveSpanRejectsOutOfBounds) {
  storage::PayloadWriter payload;
  const ElemList a{1, 2, 3};
  payload.Append(std::span<const Elem>(a.data(), a.size()));
  storage::FlatRef bogus{0, 1u << 20};
  try {
    (void)storage::ResolveSpan<Elem>(payload.bytes(), bogus, "bogus");
    FAIL() << "out-of-bounds ref resolved";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kCorrupt);
  }
}

// ---------------------------------------------------------------------------
// Section container

std::string BuildContainer(std::uint32_t extra_type,
                           std::uint32_t extra_flags) {
  std::ostringstream out(std::ios::binary);
  storage::SnapshotWriter writer(out);
  const char hello[] = "hello";
  writer.AddSection(storage::kSectionEngineMeta,
                    std::as_bytes(std::span(hello, 5)));
  const char extra[] = "future";
  writer.AddSection(extra_type, std::as_bytes(std::span(extra, 6)),
                    extra_flags);
  writer.Finish();
  return out.str();
}

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

TEST(SnapshotContainerTest, RoundTripsSections) {
  const std::string file = BuildContainer(storage::kSectionPayload, 0);
  storage::SnapshotReader reader(AsBytes(file));
  EXPECT_EQ(reader.header().version_major, storage::kFormatVersionMajor);
  ASSERT_EQ(reader.entries().size(), 2u);
  auto meta = reader.RequireSection(storage::kSectionEngineMeta, "meta");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(meta.data()),
                        meta.size()),
            "hello");
  EXPECT_FALSE(reader.Section(storage::kSectionTermTable).has_value());
}

TEST(SnapshotContainerTest, SkipsUnknownNonCriticalSection) {
  // An unknown *non-critical* section is a minor-version addition: the
  // reader indexes past it and old code keeps working.
  const std::string file = BuildContainer(/*extra_type=*/999, /*flags=*/0);
  storage::SnapshotReader reader(AsBytes(file));
  EXPECT_TRUE(reader.Section(storage::kSectionEngineMeta).has_value());
}

TEST(SnapshotContainerTest, RejectsUnknownCriticalSection) {
  const std::string file =
      BuildContainer(/*extra_type=*/999, storage::kSectionFlagCritical);
  try {
    storage::SnapshotReader reader(AsBytes(file));
    FAIL() << "unknown critical section accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kBadVersion);
  }
}

// ---------------------------------------------------------------------------
// Round-trip differential: every algorithm × every sink

class SnapshotRoundTripTest : public testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SnapshotRoundTripTest,
    testing::ValuesIn([] {
      std::vector<std::string> names;
      for (std::string_view n :
           AlgorithmRegistry::Global().Names(/*include_hidden=*/false)) {
        names.emplace_back(n);
      }
      return names;
    }()),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST_P(SnapshotRoundTripTest, EverySinkBitwiseIdentical) {
  const std::string& spec = GetParam();
  const auto* desc = AlgorithmRegistry::Global().Find(spec);
  ASSERT_NE(desc, nullptr);
  const std::size_t k = desc->max_query_sets < 3 ? 2 : 3;

  Xoshiro256 rng(0xD1DC0DEULL);
  std::vector<std::size_t> sizes(k);
  for (std::size_t i = 0; i < k; ++i) sizes[i] = 300 + 450 * i;
  const auto lists = GenerateIntersectingSets(sizes, 64, 1u << 20, rng);

  Engine engine(spec, EngineOptions{.validation = ValidationPolicy::kFull});
  std::vector<PreparedSet> prepared;
  for (const auto& l : lists) prepared.push_back(engine.Prepare(l));
  const ElemList expected = engine.Query(prepared).Materialize();
  ASSERT_EQ(expected.size(), 64u);

  const std::string path = TempPath("rt_" + std::string(desc->name));
  engine.SaveSnapshot(path, std::span<const PreparedSet>(prepared));

  LoadedSnapshot loaded = Engine::LoadSnapshot(path);
  EXPECT_EQ(loaded.info.spec, spec);
  EXPECT_EQ(loaded.info.sets_total, k);
  ASSERT_EQ(loaded.sets.size(), k);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(loaded.sets[i].size(), lists[i].size()) << "set " << i;
  }

  Query query = loaded.engine.Query(loaded.sets);
  // Sink 1: Materialize.
  EXPECT_EQ(query.Materialize(), expected);
  // Sink 2: ExecuteInto.
  ElemList into;
  query.ExecuteInto(&into);
  EXPECT_EQ(into, expected);
  // Sink 3: Count.
  EXPECT_EQ(loaded.engine.Query(loaded.sets).Count(), expected.size());
  // Sink 4: Visit.
  ElemList visited;
  loaded.engine.Query(loaded.sets).Visit(
      [&](Elem e) { visited.push_back(e); });
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(visited, expected);

  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Zero-copy aliasing

bool Aliases(const void* p, const SnapshotInfo& info) {
  const auto* base = static_cast<const std::byte*>(info.map_base);
  const auto* q = static_cast<const std::byte*>(p);
  return base != nullptr && q >= base && q < base + info.mapped_bytes;
}

TEST(SnapshotZeroCopyTest, ScanStructureAliasesMapping) {
  Xoshiro256 rng(42);
  const auto lists = GenerateIntersectingSets({500, 800}, 40, 1u << 18, rng);
  Engine engine("RanGroupScan");
  std::vector<PreparedSet> prepared;
  for (const auto& l : lists) prepared.push_back(engine.Prepare(l));
  const std::string path = TempPath("zerocopy_scan");
  engine.SaveSnapshot(path, std::span<const PreparedSet>(prepared));

  LoadedSnapshot loaded = Engine::LoadSnapshot(path);
  EXPECT_EQ(loaded.info.sets_zero_copy, 2u);
  EXPECT_EQ(loaded.info.sets_rebuilt, 0u);
  EXPECT_EQ(loaded.info.load_mode, "mmap");
  for (const PreparedSet& s : loaded.sets) {
    const auto* scan = dynamic_cast<const ScanSet*>(s.raw());
    ASSERT_NE(scan, nullptr);
    // The structure arrays point straight into the mapped file — the
    // "zero per-element copies" guarantee, checked by address.
    EXPECT_TRUE(Aliases(scan->group_starts().data(), loaded.info));
    EXPECT_TRUE(Aliases(scan->images().data(), loaded.info));
    EXPECT_TRUE(Aliases(scan->gvals().data(), loaded.info));
  }
  std::remove(path.c_str());
}

TEST(SnapshotZeroCopyTest, PlainStructureAliasesMapping) {
  Xoshiro256 rng(43);
  const auto lists = GenerateIntersectingSets({300, 400}, 25, 1u << 18, rng);
  Engine engine("Merge");
  std::vector<PreparedSet> prepared;
  for (const auto& l : lists) prepared.push_back(engine.Prepare(l));
  const std::string path = TempPath("zerocopy_plain");
  engine.SaveSnapshot(path, std::span<const PreparedSet>(prepared));

  LoadedSnapshot loaded = Engine::LoadSnapshot(path);
  ASSERT_EQ(loaded.info.sets_zero_copy + loaded.info.sets_rebuilt, 2u);
  if (loaded.info.sets_zero_copy == 2) {
    for (const PreparedSet& s : loaded.sets) {
      const auto* plain = dynamic_cast<const PlainSet*>(s.raw());
      ASSERT_NE(plain, nullptr);
      EXPECT_TRUE(Aliases(plain->elems().data(), loaded.info));
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotZeroCopyTest, SetsOutliveTheLoadedSnapshotStruct) {
  // The backing mapping is refcounted into every zero-copy set: moving
  // the sets out and dropping everything else must keep the bytes alive.
  Xoshiro256 rng(44);
  const auto lists = GenerateIntersectingSets({600, 900}, 33, 1u << 18, rng);
  const std::string path = TempPath("lifetime");
  std::vector<PreparedSet> survivors;
  ElemList expected;
  {
    Engine engine("RanGroupScan");
    std::vector<PreparedSet> prepared;
    for (const auto& l : lists) prepared.push_back(engine.Prepare(l));
    expected = engine.Query(prepared).Materialize();
    engine.SaveSnapshot(path, std::span<const PreparedSet>(prepared));
  }
  Engine survivor_engine;
  {
    LoadedSnapshot loaded = Engine::LoadSnapshot(path);
    survivor_engine = loaded.engine;
    survivors = std::move(loaded.sets);
  }  // LoadedSnapshot (and its info/backing handle) destroyed here
  EXPECT_EQ(survivor_engine.Query(survivors).Materialize(), expected);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption matrix

class SnapshotCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs tests as separate processes, possibly
    // in parallel — a shared path would let one test truncate the file
    // under another's mmap.
    path_ = TempPath(
        std::string("corrupt_") +
        testing::UnitTest::GetInstance()->current_test_info()->name());
    Xoshiro256 rng(7);
    const auto lists =
        GenerateIntersectingSets({400, 700}, 30, 1u << 18, rng);
    Engine engine("RanGroupScan");
    std::vector<PreparedSet> prepared;
    for (const auto& l : lists) prepared.push_back(engine.Prepare(l));
    engine.SaveSnapshot(path_, std::span<const PreparedSet>(prepared));
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 128u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Re-stamps the header CRC (over the first 56 bytes) after a patch, so
  /// the test exercises the *intended* check rather than the checksum.
  void FixHeaderCrc() {
    const std::uint64_t crc = Crc64(bytes_.data(), storage::kHeaderCrcBytes);
    std::memcpy(bytes_.data() + storage::kHeaderCrcBytes, &crc, sizeof(crc));
  }

  SnapshotErrorCode PatchedLoadError() {
    WriteFileBytes(path_, bytes_);
    return LoadErrorCode(path_);
  }

  std::string path_;
  std::vector<std::byte> bytes_;
};

TEST_F(SnapshotCorruptionTest, BadMagic) {
  std::memset(bytes_.data(), 0x5A, 8);
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kBadMagic);
}

TEST_F(SnapshotCorruptionTest, ForeignEndianMagic) {
  // The magic as a big-endian writer would have laid it down.
  std::uint64_t swapped = 0;
  for (int i = 0; i < 8; ++i) {
    swapped = (swapped << 8) |
              ((storage::kSnapshotMagic >> (8 * i)) & 0xFF);
  }
  std::memcpy(bytes_.data(), &swapped, 8);
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kForeignEndian);
}

TEST_F(SnapshotCorruptionTest, ForeignEndianStamp) {
  const std::uint32_t stamp = 0x04030201;  // field offset 16 (snapshot.h)
  std::memcpy(bytes_.data() + 16, &stamp, sizeof(stamp));
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kForeignEndian);
}

TEST_F(SnapshotCorruptionTest, FutureMajorVersion) {
  const std::uint32_t future = storage::kFormatVersionMajor + 1;
  std::memcpy(bytes_.data() + 8, &future, sizeof(future));
  FixHeaderCrc();
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kBadVersion);
}

TEST_F(SnapshotCorruptionTest, AbiElemWidthMismatch) {
  const std::uint16_t wide_elem = 8;  // elem_size field, offset 20
  std::memcpy(bytes_.data() + 20, &wide_elem, sizeof(wide_elem));
  FixHeaderCrc();
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kAbiMismatch);
}

TEST_F(SnapshotCorruptionTest, HeaderBitFlip) {
  bytes_[40] ^= std::byte{0x01};  // inside the CRC-covered 56 bytes
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kChecksum);
}

TEST_F(SnapshotCorruptionTest, PayloadBitFlip) {
  bytes_[bytes_.size() / 2] ^= std::byte{0x20};
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kChecksum);
}

TEST_F(SnapshotCorruptionTest, TruncatedToHalf) {
  bytes_.resize(bytes_.size() / 2);
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kTruncated);
}

TEST_F(SnapshotCorruptionTest, TruncatedBelowHeader) {
  bytes_.resize(17);
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kTruncated);
}

TEST_F(SnapshotCorruptionTest, MissingFile) {
  EXPECT_EQ(LoadErrorCode(TempPath("no_such_snapshot")),
            SnapshotErrorCode::kIo);
}

TEST_F(SnapshotCorruptionTest, GarbageFile) {
  std::vector<std::byte> garbage(4096, std::byte{0xAB});
  WriteFileBytes(path_, garbage);
  EXPECT_EQ(LoadErrorCode(path_), SnapshotErrorCode::kBadMagic);
}

// The same matrix over a planner kMutable record: the flat arrays a
// loaded mutable set's base views pass the checks an immutable set's do.
// Each patch re-stamps the touched section's CRC so the load reaches the
// structural check under test.
class SnapshotMutableCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath(
        std::string("corrupt_mutable_") +
        testing::UnitTest::GetInstance()->current_test_info()->name());
    Xoshiro256 rng(8);
    const auto lists =
        GenerateIntersectingSets({400, 700}, 30, 1u << 18, rng);
    Engine engine("Planner:calibration=off");
    std::vector<PreparedSet> prepared;
    for (const auto& l : lists) prepared.push_back(engine.PrepareMutable(l));
    engine.SaveSnapshot(path_, std::span<const PreparedSet>(prepared));
    bytes_ = ReadFileBytes(path_);
    ASSERT_GE(bytes_.size(), sizeof(storage::FileHeader));
    record_ = Record();
    ASSERT_EQ(record_.kind,
              static_cast<std::uint32_t>(storage::SetKind::kMutable));
    ASSERT_GE(record_.group_start.count, 3u);  // at least two groups
  }

  void TearDown() override { std::remove(path_.c_str()); }

  storage::SectionEntry Entry(std::uint32_t type) const {
    storage::SectionEntry entry;
    std::memcpy(&entry, bytes_.data() + SectionEntryOffset(bytes_, type),
                sizeof(entry));
    return entry;
  }

  template <typename Patch>
  void PatchSection(std::uint32_t type, Patch patch) {
    PatchSnapshotSection(&bytes_, type, patch);
  }

  storage::SetRecord Record() const {
    storage::SetRecord record;
    std::memcpy(&record,
                bytes_.data() + Entry(storage::kSectionSetTable).offset,
                sizeof(record));
    return record;
  }

  /// Rewrites the first set's record.
  template <typename Patch>
  void PatchRecord(Patch patch) {
    storage::SetRecord record = record_;
    patch(record);
    PatchSection(storage::kSectionSetTable, [&record](std::byte* table) {
      std::memcpy(table, &record, sizeof(record));
    });
  }

  /// Overwrites u32 `index` of the payload array at `ref`.
  void PatchPayloadWord(storage::FlatRef ref, std::size_t index,
                        std::uint32_t value) {
    PatchSection(storage::kSectionPayload, [&](std::byte* payload) {
      std::memcpy(payload + ref.offset + index * sizeof(value), &value,
                  sizeof(value));
    });
  }

  SnapshotErrorCode PatchedLoadError() {
    WriteFileBytes(path_, bytes_);
    return LoadErrorCode(path_);
  }

  std::string path_;
  std::vector<std::byte> bytes_;
  storage::SetRecord record_;
};

TEST_F(SnapshotMutableCorruptionTest, UnpatchedFileLoadsZeroCopy) {
  LoadedSnapshot loaded = Engine::LoadSnapshot(path_);
  EXPECT_EQ(loaded.info.sets_mutable, 2u);
  EXPECT_EQ(loaded.info.sets_zero_copy, 2u);
}

TEST_F(SnapshotMutableCorruptionTest, NonMonotoneGroupStart) {
  // group_start[1] past every later offset (the last still matches the
  // g-value count, so only the monotonicity check can catch it).
  PatchPayloadWord(record_.group_start, 1,
                   static_cast<std::uint32_t>(record_.gvals.count + 1));
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kCorrupt);
}

TEST_F(SnapshotMutableCorruptionTest, ArraySizesInconsistentWithT) {
  PatchRecord([](storage::SetRecord& r) { r.t += 1; });
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kCorrupt);
}

TEST_F(SnapshotMutableCorruptionTest, ArraySizesInconsistentWithM) {
  PatchRecord([](storage::SetRecord& r) { r.m += 1; });
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kCorrupt);
}

TEST_F(SnapshotMutableCorruptionTest, OutOfRangeElemsRef) {
  const std::uint64_t payload_size = Entry(storage::kSectionPayload).size;
  PatchRecord([payload_size](storage::SetRecord& r) {
    r.elems.offset = payload_size + storage::kFlatAlignment;
  });
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kCorrupt);
}

TEST_F(SnapshotMutableCorruptionTest, ElementAndGvalCountsDisagree) {
  PatchRecord([](storage::SetRecord& r) { r.elems.count -= 1; });
  EXPECT_EQ(PatchedLoadError(), SnapshotErrorCode::kCorrupt);
}

TEST_F(SnapshotMutableCorruptionTest, UnsortedElementsFailFullValidation) {
  // Swap the first two elements: the structure still loads, but the base
  // is no longer sorted, which a validating load must reject as it would
  // for PrepareMutable.
  storage::SetRecord r = record_;
  PatchSection(storage::kSectionPayload, [&r](std::byte* payload) {
    Elem pair[2];
    std::memcpy(pair, payload + r.elems.offset, sizeof(pair));
    std::swap(pair[0], pair[1]);
    std::memcpy(payload + r.elems.offset, pair, sizeof(pair));
  });
  WriteFileBytes(path_, bytes_);
  EXPECT_THROW(
      (void)Engine::LoadSnapshot(
          path_, SnapshotLoadOptions{.validation = ValidationPolicy::kFull}),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Mutable sets

TEST(SnapshotMutableTest, EffectiveContentsRoundTripAndStayMutable) {
  Engine engine("Merge");
  PreparedSet a = engine.PrepareMutable({10, 20, 30, 40});
  PreparedSet b = engine.PrepareMutable({20, 30, 50});
  ASSERT_TRUE(a.Insert(25));
  ASSERT_TRUE(b.Insert(25));
  ASSERT_TRUE(a.Erase(40));

  const std::string path = TempPath("mutable");
  std::vector<const PreparedSet*> handles{&a, &b};
  engine.SaveSnapshot(path,
                      std::span<const PreparedSet* const>(handles));

  LoadedSnapshot loaded = Engine::LoadSnapshot(path);
  EXPECT_EQ(loaded.info.sets_mutable, 2u);
  ASSERT_EQ(loaded.sets.size(), 2u);
  EXPECT_TRUE(loaded.sets[0].is_mutable());
  // The delta was folded into the frozen base at save time.
  EXPECT_EQ(loaded.sets[0].delta_size(), 0u);
  EXPECT_EQ(loaded.sets[0].size(), 4u);  // 10 20 25 30

  ElemList both =
      loaded.engine.Query({&loaded.sets[0], &loaded.sets[1]}).Materialize();
  EXPECT_EQ(both, (ElemList{20, 25, 30}));

  // The loaded sets accept further updates, visible to queries.
  ASSERT_TRUE(loaded.sets[1].Insert(10));
  both =
      loaded.engine.Query({&loaded.sets[0], &loaded.sets[1]}).Materialize();
  EXPECT_EQ(both, (ElemList{10, 20, 25, 30}));
  std::remove(path.c_str());
}

using Oracle = std::set<Elem>;

ElemList ToList(const Oracle& oracle) {
  return ElemList(oracle.begin(), oracle.end());
}

/// Mutable sets over lists drawn from [0, kMutableUniverse).
constexpr std::uint64_t kMutableUniverse = 1u << 18;

std::vector<ElemList> MutableLists(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return GenerateIntersectingSets({600, 900, 1300}, 60, kMutableUniverse, rng);
}

std::vector<Oracle> Oracles(const std::vector<ElemList>& lists) {
  std::vector<Oracle> out;
  for (const ElemList& l : lists) out.emplace_back(l.begin(), l.end());
  return out;
}

/// Checks every set and the k-way intersection against the oracles.
void ExpectMatchesOracles(const Engine& engine,
                          const std::vector<PreparedSet>& sets,
                          const std::vector<Oracle>& oracles) {
  ASSERT_EQ(sets.size(), oracles.size());
  std::vector<const PreparedSet*> ptrs;
  Oracle common = oracles[0];
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sets[i].size(), oracles[i].size()) << "set " << i;
    EXPECT_EQ(engine.Query({&sets[i]}).Materialize(), ToList(oracles[i]))
        << "set " << i;
    ptrs.push_back(&sets[i]);
    Oracle next;
    std::set_intersection(common.begin(), common.end(), oracles[i].begin(),
                          oracles[i].end(), std::inserter(next, next.end()));
    common.swap(next);
  }
  EXPECT_EQ(engine.Query(std::span<const PreparedSet* const>(ptrs))
                .Materialize(),
            ToList(common));
}

/// Runs Insert/Erase on the (loaded) mutable sets, mirrored in the
/// oracles, and checks them before and after Compact.
void ChurnAndCheck(const Engine& engine, std::vector<PreparedSet>& sets,
                   std::vector<Oracle>& oracles, std::uint64_t seed) {
  ExpectMatchesOracles(engine, sets, oracles);
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (int op = 0; op < 300; ++op) {
      Elem x = static_cast<Elem>(rng.Below(kMutableUniverse));
      if (op % 2 == 0) {
        ASSERT_EQ(sets[i].Insert(x), oracles[i].insert(x).second);
        continue;
      }
      // Erase a present element most of the time, a random one otherwise.
      if (auto it = oracles[i].lower_bound(x);
          op % 3 != 0 && it != oracles[i].end()) {
        x = *it;
      }
      ASSERT_EQ(sets[i].Erase(x), oracles[i].erase(x) > 0);
      EXPECT_EQ(sets[i].Contains(x), false);
    }
  }
  ExpectMatchesOracles(engine, sets, oracles);
  for (PreparedSet& s : sets) {
    s.Compact();
    EXPECT_EQ(s.delta_size(), 0u);
  }
  ExpectMatchesOracles(engine, sets, oracles);
}

/// Prepares `lists` as mutable sets of `spec`, saves and loads them.
LoadedSnapshot SaveAndLoadMutable(const std::string& spec,
                                  const std::vector<ElemList>& lists,
                                  const std::string& path) {
  Engine engine(spec);
  std::vector<PreparedSet> prepared;
  for (const ElemList& l : lists) {
    prepared.push_back(
        engine.PrepareMutable(l, {.background_compaction = false}));
  }
  engine.SaveSnapshot(path, std::span<const PreparedSet>(prepared));
  return Engine::LoadSnapshot(path);
}

TEST_P(SnapshotRoundTripTest, MutableSetsMatchOracle) {
  const std::string& spec = GetParam();
  const auto* desc = AlgorithmRegistry::Global().Find(spec);
  ASSERT_NE(desc, nullptr);
  std::vector<ElemList> lists = MutableLists(50);
  if (desc->max_query_sets < lists.size()) lists.resize(desc->max_query_sets);
  const std::string path = TempPath("mutable_roundtrip_" + spec);
  LoadedSnapshot loaded = SaveAndLoadMutable(spec, lists, path);
  EXPECT_EQ(loaded.info.sets_mutable, lists.size());
  std::vector<Oracle> oracles = Oracles(lists);
  ChurnAndCheck(loaded.engine, loaded.sets, oracles, 500);
  std::remove(path.c_str());
}

TEST(SnapshotMutableTest, PlannerSetsLoadZeroCopy) {
  const std::vector<ElemList> lists = MutableLists(51);
  const std::string path = TempPath("mutable_planner");
  LoadedSnapshot loaded =
      SaveAndLoadMutable("Planner:calibration=off", lists, path);
  EXPECT_EQ(loaded.info.sets_mutable, lists.size());
  EXPECT_EQ(loaded.info.sets_zero_copy, lists.size());
  EXPECT_EQ(loaded.info.sets_rebuilt, 0u);
  for (const PreparedSet& s : loaded.sets) {
    ASSERT_TRUE(s.is_mutable());
    const MutableSetState snap = s.MutableSnapshot();
    const auto* planned = dynamic_cast<const PlannedSet*>(snap.structure.get());
    ASSERT_NE(planned, nullptr);
    ASSERT_TRUE(planned->has_plain());
    const auto* scan = static_cast<const ScanSet*>(planned->scan());
    EXPECT_TRUE(Aliases(planned->elems().data(), loaded.info));
    EXPECT_TRUE(Aliases(scan->group_starts().data(), loaded.info));
    EXPECT_TRUE(Aliases(scan->images().data(), loaded.info));
    EXPECT_TRUE(Aliases(scan->gvals().data(), loaded.info));
    // The base is the structure's own (mapped) array, not a copy.
    EXPECT_EQ(snap.owned_base, nullptr);
    EXPECT_EQ(snap.base.data(), planned->elems().data());
    EXPECT_TRUE(Aliases(snap.base.data(), loaded.info));
    EXPECT_EQ(s.SizeInWords(), planned->SizeInWords());
  }
  std::vector<Oracle> oracles = Oracles(lists);
  ChurnAndCheck(loaded.engine, loaded.sets, oracles, 510);
  std::remove(path.c_str());
}

TEST(SnapshotMutableTest, PlainSetsLoadZeroCopy) {
  const std::vector<ElemList> lists = MutableLists(52);
  const std::string path = TempPath("mutable_merge");
  LoadedSnapshot loaded = SaveAndLoadMutable("Merge", lists, path);
  EXPECT_EQ(loaded.info.sets_mutable, lists.size());
  EXPECT_EQ(loaded.info.sets_zero_copy, lists.size());
  for (const PreparedSet& s : loaded.sets) {
    const MutableSetState snap = s.MutableSnapshot();
    const auto* plain = dynamic_cast<const PlainSet*>(snap.structure.get());
    ASSERT_NE(plain, nullptr);
    EXPECT_TRUE(Aliases(plain->elems().data(), loaded.info));
    EXPECT_EQ(snap.owned_base, nullptr);
    EXPECT_EQ(snap.base.data(), plain->elems().data());
  }
  std::vector<Oracle> oracles = Oracles(lists);
  ChurnAndCheck(loaded.engine, loaded.sets, oracles, 520);
  std::remove(path.c_str());
}

TEST(SnapshotMutableTest, StructureWithoutFlatElementsIsRebuilt) {
  // RanGroupScan's ScanSet keeps g-values, not the sorted elements: its
  // mutable records carry elements only and load by re-preparing, with
  // the base held (and counted) separately.
  const std::vector<ElemList> lists = MutableLists(53);
  const std::string path = TempPath("mutable_scan");
  LoadedSnapshot loaded = SaveAndLoadMutable("RanGroupScan", lists, path);
  EXPECT_EQ(loaded.info.sets_mutable, lists.size());
  EXPECT_EQ(loaded.info.sets_zero_copy, 0u);
  for (std::size_t i = 0; i < lists.size(); ++i) {
    const MutableSetState snap = loaded.sets[i].MutableSnapshot();
    ASSERT_NE(snap.owned_base, nullptr);
    EXPECT_FALSE(Aliases(snap.base.data(), loaded.info));
    EXPECT_EQ(loaded.sets[i].SizeInWords(),
              snap.structure->SizeInWords() +
                  (lists[i].size() * sizeof(Elem) + 7) / 8);
  }
  std::vector<Oracle> oracles = Oracles(lists);
  ChurnAndCheck(loaded.engine, loaded.sets, oracles, 530);
  std::remove(path.c_str());
}

TEST(SnapshotMutableTest, PendingDeltaIsFoldedAtSave) {
  const std::vector<ElemList> lists = MutableLists(54);
  std::vector<Oracle> oracles = Oracles(lists);
  Engine engine("Planner:calibration=off");
  std::vector<PreparedSet> prepared;
  Xoshiro256 rng(540);
  for (std::size_t i = 0; i < lists.size(); ++i) {
    prepared.push_back(
        engine.PrepareMutable(lists[i], {.background_compaction = false}));
    for (int op = 0; op < 50; ++op) {
      const Elem x = static_cast<Elem>(rng.Below(kMutableUniverse));
      ASSERT_EQ(prepared[i].Insert(x), oracles[i].insert(x).second);
    }
    const Elem gone = lists[i][lists[i].size() / 2];
    ASSERT_TRUE(prepared[i].Erase(gone));
    oracles[i].erase(gone);
    ASSERT_GT(prepared[i].delta_size(), 0u);
  }
  const std::string path = TempPath("mutable_delta");
  engine.SaveSnapshot(path, std::span<const PreparedSet>(prepared));

  LoadedSnapshot loaded = Engine::LoadSnapshot(path);
  EXPECT_EQ(loaded.info.sets_zero_copy, lists.size());
  for (std::size_t i = 0; i < lists.size(); ++i) {
    EXPECT_EQ(loaded.sets[i].delta_size(), 0u);
    const MutableSetState snap = loaded.sets[i].MutableSnapshot();
    EXPECT_TRUE(Aliases(snap.base.data(), loaded.info));
    EXPECT_EQ(ElemList(snap.base.begin(), snap.base.end()),
              ToList(oracles[i]));
  }
  ChurnAndCheck(loaded.engine, loaded.sets, oracles, 541);
  std::remove(path.c_str());
}

/// Writes `lists` as elements-only kMutable records — the layout every
/// mutable set had before flat mutable records — with the raw container.
void WriteElementsOnlyMutableSnapshot(const std::string& path,
                                      const std::string& spec,
                                      const std::vector<ElemList>& lists) {
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
  for (std::size_t i = 0; i < lists.size(); ++i) {
    records[i].kind = static_cast<std::uint32_t>(storage::SetKind::kMutable);
    records[i].elems = payload.Append(std::span<const Elem>(lists[i]));
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
  writer.AddSection(storage::kSectionPayload, payload.bytes(),
                    storage::kSectionFlagCritical);
  writer.Finish();
}

TEST(SnapshotMutableTest, ElementsOnlyRecordsStillLoad) {
  const std::vector<ElemList> lists = MutableLists(55);
  // Planner and RanGroupScan re-prepare from the elements; for Merge the
  // elements are the PlainSet layout itself, so even old files view them.
  const struct {
    const char* spec;
    bool zero_copy;
  } cases[] = {{"Planner:calibration=off", false},
               {"RanGroupScan", false},
               {"Merge", true}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    const std::string path = TempPath("mutable_elements_only");
    WriteElementsOnlyMutableSnapshot(path, c.spec, lists);
    LoadedSnapshot loaded = Engine::LoadSnapshot(path);
    EXPECT_EQ(loaded.info.spec, c.spec);
    EXPECT_EQ(loaded.info.sets_mutable, lists.size());
    EXPECT_EQ(loaded.info.sets_zero_copy, c.zero_copy ? lists.size() : 0u);
    std::vector<Oracle> oracles = Oracles(lists);
    ChurnAndCheck(loaded.engine, loaded.sets, oracles, 550);
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Compressed sets keep their own image count

/// The image-word count of a loaded compressed set.
int CompressedImages(const PreparedSet& s) {
  const auto* planned = dynamic_cast<const PlannedSet*>(s.raw());
  EXPECT_NE(planned, nullptr);
  EXPECT_NE(planned->cscan(), nullptr);
  return planned == nullptr || planned->cscan() == nullptr
             ? -1
             : planned->cscan()->m();
}

TEST(SnapshotCompressedTest, MixedImageCountsLoadAndResave) {
  // One set as older planner engines wrote it (m = 1 image word per group),
  // one as they write it now (m = 0); a third set takes part uncompressed.
  Xoshiro256 rng(0x1AA6E);
  const auto lists =
      GenerateIntersectingSets({2500, 6000, 9000}, 400, 1u << 20, rng);
  auto query_all = [](const Engine& engine,
                      const std::vector<PreparedSet>& sets) {
    std::vector<ElemList> out;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      for (std::size_t j = i + 1; j < sets.size(); ++j) {
        std::vector<const PreparedSet*> pair = {&sets[i], &sets[j]};
        out.push_back(engine.Query(pair).Materialize());
      }
    }
    out.push_back(engine.Query(sets).Materialize());
    return out;
  };
  std::vector<ElemList> expected;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    for (std::size_t j = i + 1; j < lists.size(); ++j) {
      ElemList both;
      std::set_intersection(lists[i].begin(), lists[i].end(),
                            lists[j].begin(), lists[j].end(),
                            std::back_inserter(both));
      expected.push_back(both);
    }
  }
  ElemList all;
  std::set_intersection(expected[0].begin(), expected[0].end(),
                        lists[2].begin(), lists[2].end(),
                        std::back_inserter(all));
  expected.push_back(all);

  const std::string path = TempPath("compressed_mixed_m");
  test::WriteCompressedPlannerSnapshot(path, {lists[0], lists[1]}, {1, 0});
  LoadedSnapshot loaded = Engine::LoadSnapshot(path);
  ASSERT_EQ(loaded.info.sets_compressed, 2u);
  EXPECT_EQ(CompressedImages(loaded.sets[0]), 1);
  EXPECT_EQ(CompressedImages(loaded.sets[1]), 0);
  std::vector<PreparedSet> sets = loaded.sets;
  sets.push_back(loaded.engine.Prepare(lists[2]));
  EXPECT_EQ(query_all(loaded.engine, sets), expected);

  // Saved again, each set keeps its own image count.
  const std::string resaved = TempPath("compressed_mixed_m_resaved");
  loaded.engine.SaveSnapshot(resaved, std::span<const PreparedSet>(sets));
  LoadedSnapshot reloaded = Engine::LoadSnapshot(resaved);
  ASSERT_EQ(reloaded.info.sets_compressed, 2u);
  EXPECT_EQ(CompressedImages(reloaded.sets[0]), 1);
  EXPECT_EQ(CompressedImages(reloaded.sets[1]), 0);
  EXPECT_EQ(query_all(reloaded.engine, reloaded.sets), expected);
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(SnapshotCompressedTest, NonLowbitsCodecIsCorrupt) {
  // The planner's compressed steps probe Lowbits streams only: a γ- or
  // δ-coded record fails the load instead of the first query.
  Xoshiro256 rng(0xC0DEC);
  const std::vector<ElemList> lists = {SampleSortedSet(3000, 1u << 20, rng)};
  for (ScanCodec codec : {ScanCodec::kGamma, ScanCodec::kDelta}) {
    for (int m : {0, 1}) {
      const std::string path = TempPath("compressed_codec");
      test::WriteCompressedPlannerSnapshot(path, lists, {m}, codec);
      EXPECT_EQ(LoadErrorCode(path), SnapshotErrorCode::kCorrupt)
          << "codec=" << static_cast<int>(codec) << " m=" << m;
      std::remove(path.c_str());
    }
  }
  // The same record as Lowbits loads.
  const std::string path = TempPath("compressed_codec_lowbits");
  test::WriteCompressedPlannerSnapshot(path, lists, {0});
  LoadedSnapshot loaded = Engine::LoadSnapshot(path);
  EXPECT_EQ(loaded.info.sets_compressed, 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Planner calibration stamping

TEST(SnapshotCalibrationTest, LoadedPlannerUsesStampedConstants) {
  Xoshiro256 rng(9);
  const auto lists = GenerateIntersectingSets({500, 900}, 45, 1u << 18, rng);
  Engine engine("Planner");
  std::vector<PreparedSet> prepared;
  for (const auto& l : lists) prepared.push_back(engine.Prepare(l));
  const ElemList expected = engine.Query(prepared).Materialize();

  const std::string path = TempPath("calibration");
  engine.SaveSnapshot(path, std::span<const PreparedSet>(prepared));
  LoadedSnapshot loaded = Engine::LoadSnapshot(path);
  // The load must reuse the stamped constants, not re-measure.
  EXPECT_EQ(loaded.info.calibration_source, "snapshot");
  EXPECT_EQ(loaded.info.spec, "Planner");
  EXPECT_EQ(loaded.engine.Query(loaded.sets).Materialize(), expected);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Errors on misuse

TEST(SnapshotApiTest, RejectsForeignHandles) {
  Engine a("Merge");
  Engine b("Merge");
  PreparedSet pa = a.Prepare({1, 2, 3});
  std::vector<const PreparedSet*> handles{&pa};
  EXPECT_THROW(b.SaveSnapshot(TempPath("foreign"),
                              std::span<const PreparedSet* const>(handles)),
               std::invalid_argument);
}

TEST(SnapshotApiTest, SaveToUnwritablePathThrowsIo) {
  Engine engine("Merge");
  PreparedSet s = engine.Prepare({1, 2, 3});
  std::vector<const PreparedSet*> handles{&s};
  try {
    engine.SaveSnapshot("/nonexistent_dir_fsi/snap",
                        std::span<const PreparedSet* const>(handles));
    FAIL() << "save to unwritable path succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kIo);
  }
}

// ---------------------------------------------------------------------------
// InvertedIndex::Save / Open

std::vector<std::string> Terms(std::initializer_list<const char*> ts) {
  return {ts.begin(), ts.end()};
}

TEST(IndexSnapshotTest, RoundTripsQueriesAndDictionary) {
  InvertedIndex index{Engine("Hybrid")};
  index.AddDocument(1, Terms({"a", "b"}));
  index.AddDocument(2, Terms({"a", "c"}));
  index.AddDocument(5, Terms({"a", "b", "c"}));
  index.AddDocument(9, Terms({"b", "c"}));
  index.Finalize();

  const std::string path = TempPath("index");
  index.Save(path);

  SnapshotInfo info;
  InvertedIndex opened = InvertedIndex::Open(path, {}, &info);
  EXPECT_EQ(info.sets_total, 3u);
  EXPECT_EQ(opened.num_terms(), 3u);
  EXPECT_EQ(opened.num_documents(), 4u);
  EXPECT_FALSE(opened.updatable());
  EXPECT_EQ(opened.DocumentFrequency("a"), 3u);
  EXPECT_EQ(opened.DocumentFrequency("zzz"), 0u);
  const auto ab = Terms({"a", "b"});
  EXPECT_EQ(opened.Query(ab), index.Query(ab));
  EXPECT_EQ(opened.Query(ab), (ElemList{1, 5}));
  const auto abc = Terms({"a", "b", "c"});
  EXPECT_EQ(opened.CountMatching(abc), 1u);
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, UpdatableIndexComesBackUpdatable) {
  InvertedIndex index;
  index.AddDocument(1, Terms({"x", "y"}));
  index.AddDocument(3, Terms({"x"}));
  index.FinalizeUpdatable();
  index.InsertDocument(7, Terms({"x", "y"}));

  const std::string path = TempPath("index_upd");
  index.Save(path);

  InvertedIndex opened = InvertedIndex::Open(path);
  EXPECT_TRUE(opened.updatable());
  const auto xy = Terms({"x", "y"});
  EXPECT_EQ(opened.Query(xy), (ElemList{1, 7}));
  // Updates keep working after the reload.
  opened.InsertDocument(9, xy);
  EXPECT_EQ(opened.Query(xy), (ElemList{1, 7, 9}));
  opened.EraseDocument(1, xy);
  EXPECT_EQ(opened.Query(xy), (ElemList{7, 9}));
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, BadSavedCompactionPolicyIsCorrupt) {
  InvertedIndex index;
  index.AddDocument(1, Terms({"x", "y"}));
  index.FinalizeUpdatable();
  const std::string path = TempPath("index_bad_policy");
  index.Save(path);
  const std::vector<std::byte> saved = ReadFileBytes(path);
  // compact_fill sits after two u64 and two u32 fields of the term
  // table's fixed prefix.
  constexpr std::size_t kCompactFillOffset = 24;
  for (double fill : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()}) {
    std::vector<std::byte> bytes = saved;
    PatchSnapshotSection(&bytes, storage::kSectionTermTable,
                         [fill](std::byte* table) {
                           std::memcpy(table + kCompactFillOffset, &fill,
                                       sizeof(fill));
                         });
    WriteFileBytes(path, bytes);
    try {
      (void)InvertedIndex::Open(path);
      ADD_FAILURE() << "compact_fill=" << fill << " loaded";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), SnapshotErrorCode::kCorrupt)
          << "compact_fill=" << fill;
    }
  }
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, SaveBeforeFinalizeThrows) {
  InvertedIndex index;
  index.AddDocument(1, Terms({"a"}));
  EXPECT_THROW(index.Save(TempPath("unfinalized")), std::logic_error);
}

// ---------------------------------------------------------------------------
// Cross-process: driven by CI in two phases (save in one process, load in
// another) via FSI_SNAPSHOT_CROSS_FILE / FSI_SNAPSHOT_CROSS_PHASE; without
// the env vars, both phases run here (fresh mapping either way).

ElemList CrossLists(std::size_t i) {
  Xoshiro256 rng(0xCAFE + i);
  return SampleSortedSet(2000 + 500 * i, 1u << 20, rng);
}

TEST(SnapshotCrossProcessTest, SaveThenLoad) {
  const char* env_file = std::getenv("FSI_SNAPSHOT_CROSS_FILE");
  const char* env_phase = std::getenv("FSI_SNAPSHOT_CROSS_PHASE");
  const std::string path =
      env_file != nullptr ? env_file : TempPath("cross");
  const std::string phase = env_phase != nullptr ? env_phase : "both";

  ElemList expected;
  if (phase == "save" || phase == "both") {
    Engine engine("Planner");
    std::vector<PreparedSet> prepared;
    for (std::size_t i = 0; i < 3; ++i) {
      prepared.push_back(engine.Prepare(CrossLists(i)));
    }
    expected = engine.Query(prepared).Materialize();
    engine.SaveSnapshot(path, std::span<const PreparedSet>(prepared));
  }
  if (phase == "load" || phase == "both") {
    if (expected.empty()) {
      // Load phase in a fresh process: recompute the ground truth from
      // the deterministic generators.
      Engine ref("Merge");
      std::vector<PreparedSet> prepared;
      for (std::size_t i = 0; i < 3; ++i) {
        prepared.push_back(ref.Prepare(CrossLists(i)));
      }
      expected = ref.Query(prepared).Materialize();
    }
    LoadedSnapshot loaded = Engine::LoadSnapshot(path);
    EXPECT_EQ(loaded.info.sets_total, 3u);
    EXPECT_EQ(loaded.engine.Query(loaded.sets).Materialize(), expected);
    if (phase == "both") std::remove(path.c_str());
  }
}

/// The deterministic mutations the mutable cross-process phases agree on.
void CrossMutate(std::size_t i, PreparedSet* set, Oracle* oracle) {
  Xoshiro256 rng(0xD1CE + i);
  for (int op = 0; op < 64; ++op) {
    const Elem x = static_cast<Elem>(rng.Below(1u << 20));
    if (op % 4 == 3) {
      auto it = oracle->lower_bound(x);
      if (it == oracle->end()) continue;
      const Elem present = *it;
      oracle->erase(it);
      if (set != nullptr) {
        ASSERT_TRUE(set->Erase(present));
      }
    } else {
      const bool fresh = oracle->insert(x).second;
      if (set != nullptr) {
        ASSERT_EQ(set->Insert(x), fresh);
      }
    }
  }
}

TEST(SnapshotCrossProcessTest, MutableSaveThenLoad) {
  const char* env_file = std::getenv("FSI_SNAPSHOT_CROSS_FILE");
  const char* env_phase = std::getenv("FSI_SNAPSHOT_CROSS_PHASE");
  const std::string path = env_file != nullptr
                               ? std::string(env_file) + ".mutable"
                               : TempPath("cross_mutable");
  const std::string phase = env_phase != nullptr ? env_phase : "both";

  // Ground truth from the deterministic generators, in either process.
  std::vector<Oracle> oracles;
  for (std::size_t i = 0; i < 3; ++i) {
    const ElemList list = CrossLists(i);
    oracles.emplace_back(list.begin(), list.end());
    CrossMutate(i, nullptr, &oracles.back());
  }
  if (phase == "save" || phase == "both") {
    Engine engine("Planner");
    std::vector<PreparedSet> prepared;
    for (std::size_t i = 0; i < 3; ++i) {
      const ElemList list = CrossLists(i);
      prepared.push_back(engine.PrepareMutable(list));
      Oracle replay(list.begin(), list.end());
      CrossMutate(i, &prepared.back(), &replay);
    }
    ExpectMatchesOracles(engine, prepared, oracles);
    engine.SaveSnapshot(path, std::span<const PreparedSet>(prepared));
  }
  if (phase == "load" || phase == "both") {
    LoadedSnapshot loaded = Engine::LoadSnapshot(path);
    EXPECT_EQ(loaded.info.sets_total, 3u);
    EXPECT_EQ(loaded.info.sets_mutable, 3u);
    EXPECT_EQ(loaded.info.sets_zero_copy, 3u);
    ChurnAndCheck(loaded.engine, loaded.sets, oracles, 0xC805);
    if (phase == "both") std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace fsi
