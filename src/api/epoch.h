// Epoch-based reclamation and the mutable-set runtime (PR 6).
//
// Two pieces turn the pure delta-tier values of core/delta_set.h into
// Insert/Erase that run concurrently with lock-free readers:
//
//  * EpochManager — a process-wide epoch-based memory reclaimer.  Readers
//    pin the global epoch in a per-thread slot (EpochGuard, a handful of
//    atomic ops, no locks); writers retire superseded objects tagged with
//    the epoch current at retirement and free one once every pinned slot
//    has advanced past it.  All epoch bumps are RMWs on one counter, so a
//    reader that pins epoch e > r synchronizes (through the RMW release
//    sequence) with every publication that preceded retirement at r — the
//    reader is guaranteed to observe the *new* state, which is exactly
//    why the old one is safe to free.
//
//  * MutableSetCore — one mutable set: an atomically-published
//    MutableSetState (copy-on-write; see core/delta_set.h), a writer
//    mutex serializing mutations, and the compaction policy.  Readers —
//    Snapshot() and Contains() — never block and never take the writer
//    mutex: each pins an epoch and reads one published state, so every
//    answer comes from a single consistent snapshot.
//
// Compaction: when the delta tier outgrows the configured fill fraction
// the core schedules a rebuild that merges the delta into the base
// ((base \ erases) ∪ inserts), re-runs the engine algorithm's
// Preprocess on a process-wide one-thread ThreadPool (api/thread_pool.h;
// created on first use and never destroyed, so static teardown never
// races a rebuild), and publishes the result only if no mutation
// intervened (optimistic version check; a lost race just re-arms the
// trigger).  Readers drain via epoch retirement — no reader ever observes
// a half-swapped structure.

#ifndef FSI_API_EPOCH_H_
#define FSI_API_EPOCH_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "api/engine.h"
#include "core/delta_set.h"

namespace fsi {

/// Process-wide epoch-based reclamation.  Use via EpochGuard (readers) and
/// Retire (writers); the singleton never destructs.
class EpochManager {
 public:
  static EpochManager& Global();

  /// Defers `deleter(object)` until no epoch pinned at Retire() time is
  /// still active.  Thread-safe; eagerly reclaims what it already can.
  void Retire(void* object, void (*deleter)(void*));

  template <typename T>
  void Retire(const T* object) {
    Retire(const_cast<void*>(static_cast<const void*>(object)),
           [](void* p) { delete static_cast<T*>(p); });
  }

  /// Frees every retired object whose epoch has drained.  Called
  /// internally by Retire; exposed for tests and idle housekeeping.
  void TryReclaim();

  /// Number of objects still awaiting reclamation (test introspection).
  std::size_t retired_count() const;

  /// The current global epoch (test introspection).
  std::uint64_t current_epoch() const {
    return global_epoch_.load(std::memory_order_seq_cst);
  }

 private:
  friend class EpochGuard;

  struct alignas(64) ThreadSlot {
    /// 0 = not pinned; otherwise the epoch this thread read when pinning.
    std::atomic<std::uint64_t> pinned{0};
    /// Pin depth of the owning thread (reentrant guards).
    std::uint64_t depth = 0;
    /// Slots are never freed; exited threads release them for reuse.
    std::atomic<bool> in_use{true};
    ThreadSlot* next = nullptr;
  };

  struct RetiredObject {
    void* object;
    void (*deleter)(void*);
    std::uint64_t epoch;
  };

  EpochManager() = default;
  ~EpochManager() = delete;  // leaked singleton

  ThreadSlot* AcquireSlot();
  void Pin(ThreadSlot* slot);
  void Unpin(ThreadSlot* slot);
  /// Smallest epoch pinned by any thread (UINT64_MAX when none).
  std::uint64_t MinPinnedEpoch() const;

  /// Epoch 0 is reserved as the "not pinned" slot value.
  std::atomic<std::uint64_t> global_epoch_{1};
  std::atomic<ThreadSlot*> slots_head_{nullptr};
  mutable std::mutex retired_mutex_;
  std::vector<RetiredObject> retired_;
};

/// RAII epoch pin for the calling thread.  Cheap (three atomic ops on the
/// common path), reentrant, and lock-free.  Hold one across any read of an
/// epoch-protected pointer *and* everything reached through it.
class EpochGuard {
 public:
  EpochGuard();
  ~EpochGuard();
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochManager::ThreadSlot* slot_;
};

/// The runtime of one mutable prepared set.  Created by
/// Engine::PrepareMutable and shared by every PreparedSet copy of the
/// handle.  Readers (Snapshot, Contains, size, ...) are lock-free; writers
/// (Insert, Erase, Compact) serialize on an internal mutex.
class MutableSetCore : public std::enable_shared_from_this<MutableSetCore> {
 public:
  /// Preprocesses `base` (sorted, duplicate-free) with `algorithm` as the
  /// initial published state.  `base` is copied only when the structure
  /// keeps no sorted elements of its own.
  MutableSetCore(std::shared_ptr<const IntersectionAlgorithm> algorithm,
                 std::span<const Elem> base, MutableSetOptions options);

  /// Adopts `structure`, already built by `algorithm` (e.g. viewed out of
  /// a snapshot mapping), as the initial published state; its own sorted
  /// elements become the base.  Throws std::invalid_argument when the
  /// structure keeps none (see StructureElems).
  MutableSetCore(std::shared_ptr<const IntersectionAlgorithm> algorithm,
                 std::shared_ptr<const PreprocessedSet> structure,
                 MutableSetOptions options);
  ~MutableSetCore();

  MutableSetCore(const MutableSetCore&) = delete;
  MutableSetCore& operator=(const MutableSetCore&) = delete;

  /// Adds `value` to the effective set; false when already present.
  bool Insert(Elem value);
  /// Removes `value`; false when not present.
  bool Erase(Elem value);

  /// Lock-free point lookup in the effective set, answered from one
  /// published state (tombstones, insert buffer, then base) — never
  /// blocked by writers or compaction.
  bool Contains(Elem value) const;

  /// A consistent copy of the current published state.  The returned value
  /// owns everything it references (shared_ptr copies), so it remains
  /// valid indefinitely — queries execute entirely against it.
  MutableSetState Snapshot() const;

  std::size_t size() const;        // |effective|
  std::size_t delta_size() const;  // |inserts| + |erases|
  std::uint64_t version() const;

  /// Synchronous compaction: merges the delta into the base and rebuilds
  /// the structure, holding the writer mutex throughout (writers block;
  /// readers do not).  No-op when the delta is empty.
  void Compact();

  /// Blocks until no background compaction for this set is scheduled or
  /// running.  (A mutation racing in after the call can re-arm one.)
  void WaitForCompaction() const;

  const IntersectionAlgorithm& algorithm() const { return *algorithm_; }
  const MutableSetOptions& options() const { return options_; }

 private:
  /// Publishes `next` (release store), retires the superseded state via
  /// the epoch manager, and re-arms the compaction trigger — the only
  /// place state_ changes after construction.  Caller holds writer_mutex_.
  void PublishLocked(MutableSetState next);
  void MaybeScheduleCompactionLocked();
  /// Merges `from`'s delta into its base and preprocesses the result: the
  /// successor state, at version from.version + 1.  Touches no member
  /// state, so it runs off-lock.
  MutableSetState Rebuild(const MutableSetState& from) const;
  /// The background rebuild: snapshot, merge+preprocess off-lock, publish
  /// only if the version is unchanged.
  void RunBackgroundCompaction();

  std::shared_ptr<const IntersectionAlgorithm> algorithm_;
  MutableSetOptions options_;

  /// The published state; readers load-acquire under an EpochGuard,
  /// writers store-release under writer_mutex_.
  std::atomic<const MutableSetState*> state_;

  mutable std::mutex writer_mutex_;
  mutable std::condition_variable compaction_cv_;
  bool compaction_scheduled_ = false;  // guarded by writer_mutex_
};

}  // namespace fsi

#endif  // FSI_API_EPOCH_H_
