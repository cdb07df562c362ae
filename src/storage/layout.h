// Relocatable flat layouts — the vocabulary shared by the in-memory
// structures and the on-disk snapshot format (storage/snapshot.h).
//
// The design rule of the snapshot subsystem is that payload sections ARE
// the in-memory layouts: a structure's arrays are written as 64-byte-
// aligned little-endian blobs addressed by (offset, count) pairs relative
// to the payload section, so a loaded structure's spans can point straight
// into the mmap'ed file with no copy or parse.  Three pieces make that
// work:
//
//   FlatRef      an (offset, count) pair — a pointer that survives
//                relocation because it is relative to the payload base;
//   FlatArray<T> a maybe-owned array: structures store their arrays in it
//                so the same type works freshly built (owning a vector)
//                and snapshot-loaded (borrowing a span of the mapping);
//   PayloadWriter / ResolveSpan<T>
//                the two sides of the contract — append an array and get
//                its FlatRef; resolve a FlatRef against a loaded payload
//                with overflow-safe bounds and alignment checks.
//
// Everything that can go wrong at load time throws SnapshotError, which
// carries a typed code so callers (and the corruption-matrix tests) can
// distinguish "file truncated" from "checksum mismatch" from "built on a
// big-endian machine".  Corrupt data must produce a typed error, never UB
// — but note the threat model: payloads are CRC64-guarded, so the checks
// here defend against corruption and version skew, not against an
// adversary who crafts a file with matching checksums.

#ifndef FSI_STORAGE_LAYOUT_H_
#define FSI_STORAGE_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace fsi::storage {

/// Every array in a payload section starts on a 64-byte boundary: cache-
/// line aligned, and a multiple of every element alignment we store.
inline constexpr std::size_t kFlatAlignment = 64;

/// What failed while reading a snapshot.  See SnapshotError.
enum class SnapshotErrorCode {
  kIo,            // open/stat/map/read failed (errno-level problem)
  kBadMagic,      // not a snapshot file at all
  kBadVersion,    // major version (or critical section) from the future
  kForeignEndian, // written on a big-endian host
  kAbiMismatch,   // element/word width differs from this build
  kTruncated,     // file shorter than its own header/section table claims
  kChecksum,      // CRC64 mismatch on the header or a section
  kCorrupt,       // structurally invalid contents (bad offsets, counts…)
};

/// Thrown by everything in storage/ on a malformed or unreadable file.
/// Derives from std::runtime_error, so callers that only need "the load
/// failed" can catch that.
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  SnapshotErrorCode code() const noexcept { return code_; }

 private:
  SnapshotErrorCode code_;
};

/// A relocatable array reference: `count` elements starting `offset` bytes
/// into the payload section.  offset is byte-granular (always a multiple
/// of kFlatAlignment as written); count is in elements, not bytes.
struct FlatRef {
  std::uint64_t offset = 0;
  std::uint64_t count = 0;
};
static_assert(sizeof(FlatRef) == 16 && std::is_trivially_copyable_v<FlatRef>);

/// Discriminator of a serialized prepared-set record (SetRecord::kind).
enum class SetKind : std::uint32_t {
  kPlain = 0,     // PlainSet: elems
  kScan = 1,      // ScanSet: group_start + images + gvals (+ t, m)
  kPlanned = 2,   // PlannedSet: PlainSet arrays + ScanSet arrays
  kElements = 3,  // raw sorted elements; load re-runs Preprocess()
  kMutable = 4,   // mutable set: elems are its sorted contents, plus the
                  // PlannedSet/PlainSet arrays the base views on load
                  // (elements-only records are re-prepared)
};

/// One prepared set in the snapshot's set table.  Fixed-size POD so the
/// set table is itself a flat array.  Unused refs stay (0, 0).
struct SetRecord {
  std::uint32_t kind = 0;      // SetKind
  std::int32_t t = 0;          // ScanSet log2(#groups)
  std::uint32_t m = 0;         // ScanSet words per group
  std::uint32_t reserved = 0;
  FlatRef elems;               // kPlain/kPlanned/kElements/kMutable
  FlatRef group_start;         // kScan/kPlanned/planner kMutable
  FlatRef images;              // kScan/kPlanned/planner kMutable
  FlatRef gvals;               // kScan/kPlanned/planner kMutable
};
static_assert(sizeof(SetRecord) == 80 &&
              std::is_trivially_copyable_v<SetRecord>);

/// A maybe-owned flat array.  Freshly built structures own their storage
/// (moved-in vector); snapshot-loaded structures borrow a span of the
/// mapped file, whose lifetime the loader guarantees outlives them.
/// Either way readers see one interface: data/size/operator[]/view.
template <typename T>
class FlatArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  FlatArray() = default;

  /// Owning: adopts the vector.
  explicit FlatArray(std::vector<T> owned)
      : owned_(std::move(owned)), view_(owned_), borrowed_(false) {}

  /// Borrowing: aliases `view` without copying.  The caller keeps the
  /// backing bytes (the snapshot mapping) alive for this array's lifetime.
  static FlatArray View(std::span<const T> view) {
    FlatArray a;
    a.view_ = view;
    a.borrowed_ = true;
    return a;
  }

  // An owning FlatArray's view_ points into its own vector, so copies and
  // moves must re-point the view at the destination's storage; a borrowed
  // view is copied verbatim.
  FlatArray(const FlatArray& other)
      : owned_(other.owned_),
        view_(other.borrowed_ ? other.view_ : std::span<const T>(owned_)),
        borrowed_(other.borrowed_) {}
  FlatArray(FlatArray&& other) noexcept
      : owned_(std::move(other.owned_)),
        view_(other.borrowed_ ? other.view_ : std::span<const T>(owned_)),
        borrowed_(other.borrowed_) {
    other.view_ = {};
    other.borrowed_ = false;
  }
  FlatArray& operator=(const FlatArray& other) {
    if (this != &other) {
      owned_ = other.owned_;
      borrowed_ = other.borrowed_;
      view_ = borrowed_ ? other.view_ : std::span<const T>(owned_);
    }
    return *this;
  }
  FlatArray& operator=(FlatArray&& other) noexcept {
    if (this != &other) {
      owned_ = std::move(other.owned_);
      borrowed_ = other.borrowed_;
      view_ = borrowed_ ? other.view_ : std::span<const T>(owned_);
      other.view_ = {};
      other.borrowed_ = false;
    }
    return *this;
  }

  const T* data() const noexcept { return view_.data(); }
  std::size_t size() const noexcept { return view_.size(); }
  bool empty() const noexcept { return view_.empty(); }
  const T& operator[](std::size_t i) const noexcept { return view_[i]; }
  std::span<const T> view() const noexcept { return view_; }
  const T* begin() const noexcept { return view_.data(); }
  const T* end() const noexcept { return view_.data() + view_.size(); }
  const T& front() const noexcept { return view_.front(); }
  const T& back() const noexcept { return view_.back(); }

  /// True when this array aliases external storage (a snapshot mapping).
  bool borrowed() const noexcept { return borrowed_; }

 private:
  std::vector<T> owned_;
  std::span<const T> view_;
  bool borrowed_ = false;
};

/// Accumulates a payload section in memory: each Append pads to a 64-byte
/// boundary, copies the array, and returns its FlatRef.  The finished
/// byte buffer becomes the snapshot's payload section verbatim.
class PayloadWriter {
 public:
  template <typename T>
  FlatRef Append(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t aligned =
        (bytes_.size() + kFlatAlignment - 1) & ~(kFlatAlignment - 1);
    bytes_.resize(aligned, std::byte{0});
    FlatRef ref{aligned, values.size()};
    if (!values.empty()) {
      const std::size_t nbytes = values.size() * sizeof(T);
      bytes_.resize(aligned + nbytes);
      std::memcpy(bytes_.data() + aligned, values.data(), nbytes);
    }
    return ref;
  }

  std::span<const std::byte> bytes() const noexcept { return bytes_; }
  std::size_t size() const noexcept { return bytes_.size(); }

 private:
  std::vector<std::byte> bytes_;
};

/// Resolves a FlatRef against a loaded payload section: bounds- and
/// alignment-checked (overflow-safely), returning a span that aliases
/// `payload`.  Throws SnapshotError(kCorrupt) on any violation.
template <typename T>
std::span<const T> ResolveSpan(std::span<const std::byte> payload,
                               FlatRef ref, const char* what) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (ref.count == 0) return {};
  if (ref.count > std::numeric_limits<std::uint64_t>::max() / sizeof(T)) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        std::string("snapshot: implausible count for ") +
                            what);
  }
  const std::uint64_t nbytes = ref.count * sizeof(T);
  if (ref.offset > payload.size() || nbytes > payload.size() - ref.offset) {
    throw SnapshotError(
        SnapshotErrorCode::kCorrupt,
        std::string("snapshot: ") + what + " reference out of bounds");
  }
  const std::byte* base = payload.data() + ref.offset;
  if (reinterpret_cast<std::uintptr_t>(base) % alignof(T) != 0) {
    throw SnapshotError(
        SnapshotErrorCode::kCorrupt,
        std::string("snapshot: ") + what + " reference misaligned");
  }
  return std::span<const T>(reinterpret_cast<const T*>(base), ref.count);
}

}  // namespace fsi::storage

#endif  // FSI_STORAGE_LAYOUT_H_
