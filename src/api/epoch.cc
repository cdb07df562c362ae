#include "api/epoch.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "api/planner.h"
#include "api/thread_pool.h"

namespace fsi {

// ---------------------------------------------------------------------------
// EpochManager
//
// Memory-ordering sketch (all epoch traffic is seq_cst; the proof only
// needs the release-sequence rule, but seq_cst keeps the Dekker-style
// pin-vs-scan race obviously sound and costs nothing off the hot path):
//
//   writer:  publish new state (release)            reader:  pinned := e
//            er := fetch_add(global_epoch)                   g := global_epoch
//            scan pinned slots                               retry if g != e
//            free retired iff every pin > its epoch          ... dereference ...
//
// A reader pinned at p > er read p through the RMW chain headed by the
// fetch_add at er, so it synchronizes with that retirement — and with the
// publication sequenced before it — and therefore observes the *new*
// state; only readers pinned at p <= er can hold the old pointer, and
// those block reclamation.  A reader whose pin store raced behind the
// scan re-reads the bumped global epoch and retries, so its final pin is
// > er and the same argument applies.

EpochManager& EpochManager::Global() {
  static EpochManager* manager = new EpochManager();  // leaked singleton
  return *manager;
}

EpochManager::ThreadSlot* EpochManager::AcquireSlot() {
  struct SlotLease {
    ThreadSlot* slot = nullptr;
    ~SlotLease() {
      if (slot != nullptr) {
        slot->pinned.store(0, std::memory_order_release);
        slot->in_use.store(false, std::memory_order_release);
      }
    }
  };
  thread_local SlotLease lease;
  if (lease.slot != nullptr) return lease.slot;
  // Reuse a slot released by an exited thread, if any.
  for (ThreadSlot* slot = slots_head_.load(std::memory_order_acquire);
       slot != nullptr; slot = slot->next) {
    bool expected = false;
    if (slot->in_use.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
      slot->depth = 0;
      lease.slot = slot;
      return slot;
    }
  }
  // Push a fresh slot; slots are never freed (the list only grows).
  ThreadSlot* slot = new ThreadSlot();
  ThreadSlot* head = slots_head_.load(std::memory_order_relaxed);
  do {
    slot->next = head;
  } while (!slots_head_.compare_exchange_weak(head, slot,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
  lease.slot = slot;
  return slot;
}

void EpochManager::Pin(ThreadSlot* slot) {
  if (slot->depth++ > 0) return;  // reentrant: outer guard already pinned
  std::uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    slot->pinned.store(epoch, std::memory_order_seq_cst);
    std::uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
    if (now == epoch) return;
    epoch = now;  // an epoch bump raced past the pin: re-announce
  }
}

void EpochManager::Unpin(ThreadSlot* slot) {
  if (--slot->depth == 0) {
    slot->pinned.store(0, std::memory_order_release);
  }
}

std::uint64_t EpochManager::MinPinnedEpoch() const {
  std::uint64_t min_pinned = std::numeric_limits<std::uint64_t>::max();
  for (ThreadSlot* slot = slots_head_.load(std::memory_order_acquire);
       slot != nullptr; slot = slot->next) {
    std::uint64_t pinned = slot->pinned.load(std::memory_order_seq_cst);
    if (pinned != 0) min_pinned = std::min(min_pinned, pinned);
  }
  return min_pinned;
}

void EpochManager::Retire(void* object, void (*deleter)(void*)) {
  std::uint64_t epoch = global_epoch_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(retired_mutex_);
    retired_.push_back(RetiredObject{object, deleter, epoch});
  }
  TryReclaim();
}

void EpochManager::TryReclaim() {
  std::uint64_t min_pinned = MinPinnedEpoch();
  std::vector<RetiredObject> ready;
  {
    std::lock_guard<std::mutex> lock(retired_mutex_);
    auto still_pinned = [min_pinned](const RetiredObject& r) {
      return r.epoch >= min_pinned;
    };
    auto split =
        std::stable_partition(retired_.begin(), retired_.end(), still_pinned);
    ready.assign(std::make_move_iterator(split),
                 std::make_move_iterator(retired_.end()));
    retired_.erase(split, retired_.end());
  }
  // Deleters run outside the lock: they may recurse into Retire.
  for (const RetiredObject& r : ready) r.deleter(r.object);
}

std::size_t EpochManager::retired_count() const {
  std::lock_guard<std::mutex> lock(retired_mutex_);
  return retired_.size();
}

EpochGuard::EpochGuard() : slot_(EpochManager::Global().AcquireSlot()) {
  EpochManager::Global().Pin(slot_);
}

EpochGuard::~EpochGuard() { EpochManager::Global().Unpin(slot_); }

// ---------------------------------------------------------------------------
// MutableSetCore

namespace {

/// The process-wide compaction worker: one thread, so rebuilds run one at
/// a time in submission order.  Created on first use and never destroyed.
ThreadPool& CompactionPool() {
  static ThreadPool* pool = new ThreadPool(1);
  return *pool;
}

/// A delta-free state over a freshly built `structure`.  Its base views
/// the structure's own sorted elements when it keeps them; otherwise
/// `own_elements()` supplies the array it was built from.
template <typename OwnElements>
MutableSetState FreshState(std::shared_ptr<const PreprocessedSet> structure,
                           std::uint64_t version, OwnElements own_elements) {
  MutableSetState state;
  if (std::optional<std::span<const Elem>> elems =
          StructureElems(structure.get())) {
    state.base = *elems;
  } else {
    state.owned_base = std::make_shared<const ElemList>(own_elements());
    state.base = *state.owned_base;
  }
  state.structure = std::move(structure);
  state.live_size = state.base.size();
  state.version = version;
  return state;
}

}  // namespace

MutableSetCore::MutableSetCore(
    std::shared_ptr<const IntersectionAlgorithm> algorithm,
    std::span<const Elem> base, MutableSetOptions options)
    : algorithm_(std::move(algorithm)), options_(options) {
  state_.store(new MutableSetState(FreshState(
                   algorithm_->Preprocess(base), 1,
                   [base] { return ElemList(base.begin(), base.end()); })),
               std::memory_order_release);
}

MutableSetCore::MutableSetCore(
    std::shared_ptr<const IntersectionAlgorithm> algorithm,
    std::shared_ptr<const PreprocessedSet> structure,
    MutableSetOptions options)
    : algorithm_(std::move(algorithm)), options_(options) {
  state_.store(new MutableSetState(FreshState(
                   std::move(structure), 1,
                   []() -> ElemList {
                     throw std::invalid_argument(
                         "MutableSetCore: adopted structure keeps no "
                         "sorted elements");
                   })),
               std::memory_order_release);
}

MutableSetCore::~MutableSetCore() {
  // No readers can exist (shared ownership: queries, handles and pending
  // compaction tasks all hold the core alive); superseded states were
  // retired at publication and are reclaimed independently.
  delete state_.load(std::memory_order_relaxed);
}

bool MutableSetCore::Insert(Elem value) {
  // No EpochGuard: writer_mutex_ keeps `current` alive, since only
  // writers holding it retire a published state.
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const MutableSetState* current = state_.load(std::memory_order_acquire);
  std::optional<DeltaSnapshot> next_delta =
      DeltaInsert(current->base, current->delta, value);
  if (!next_delta.has_value()) return false;
  MutableSetState next = *current;
  next.delta = std::move(*next_delta);
  next.live_size = current->live_size + 1;
  next.version = current->version + 1;
  PublishLocked(std::move(next));
  return true;
}

bool MutableSetCore::Erase(Elem value) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const MutableSetState* current = state_.load(std::memory_order_acquire);
  std::optional<DeltaSnapshot> next_delta =
      DeltaErase(current->base, current->delta, value);
  if (!next_delta.has_value()) return false;
  MutableSetState next = *current;
  next.delta = std::move(*next_delta);
  next.live_size = current->live_size - 1;
  next.version = current->version + 1;
  PublishLocked(std::move(next));
  return true;
}

bool MutableSetCore::Contains(Elem value) const {
  EpochGuard guard;
  const MutableSetState* state = state_.load(std::memory_order_acquire);
  return EffectiveContains(state->base, state->delta, value,
                           simd::DispatchedKernels());
}

MutableSetState MutableSetCore::Snapshot() const {
  EpochGuard guard;
  // Copying the state (shared_ptr/span/scalar fields) while pinned yields
  // an owning snapshot that stays consistent forever.
  return *state_.load(std::memory_order_acquire);
}

std::size_t MutableSetCore::size() const {
  EpochGuard guard;
  return state_.load(std::memory_order_acquire)->live_size;
}

std::size_t MutableSetCore::delta_size() const {
  EpochGuard guard;
  return state_.load(std::memory_order_acquire)->delta.size();
}

std::uint64_t MutableSetCore::version() const {
  EpochGuard guard;
  return state_.load(std::memory_order_acquire)->version;
}

void MutableSetCore::PublishLocked(MutableSetState next) {
  const auto* fresh = new MutableSetState(std::move(next));
  const MutableSetState* old =
      state_.exchange(fresh, std::memory_order_acq_rel);
  EpochManager::Global().Retire(old);
  MaybeScheduleCompactionLocked();
}

void MutableSetCore::MaybeScheduleCompactionLocked() {
  if (!options_.background_compaction || compaction_scheduled_) return;
  const MutableSetState* current = state_.load(std::memory_order_relaxed);
  // compact_fill is finite and positive (CheckMutableOptions), but the
  // product can pass SIZE_MAX, where the cast would be undefined.
  const double by_fill =
      options_.compact_fill * static_cast<double>(current->base.size());
  constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
  const std::size_t threshold = std::max<std::size_t>(
      std::max<std::size_t>(options_.compact_min, 1),
      by_fill >= static_cast<double>(kNever)
          ? kNever
          : static_cast<std::size_t>(by_fill));
  if (current->delta.size() < threshold) return;
  compaction_scheduled_ = true;
  std::shared_ptr<MutableSetCore> self = shared_from_this();
  CompactionPool().Submit([self] { self->RunBackgroundCompaction(); });
}

MutableSetState MutableSetCore::Rebuild(const MutableSetState& from) const {
  ElemList effective = MergeEffective(from.base, from.delta);
  std::shared_ptr<const PreprocessedSet> structure =
      algorithm_->Preprocess(effective);
  return FreshState(std::move(structure), from.version + 1,
                    [&effective] { return std::move(effective); });
}

void MutableSetCore::RunBackgroundCompaction() {
  MutableSetState snap = Snapshot();
  std::optional<MutableSetState> next;
  if (!snap.delta.empty()) {
    // The expensive part — merge + Preprocess — runs off-lock: writers
    // stay unblocked for the whole rebuild.
    next = Rebuild(snap);
  }
  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    compaction_scheduled_ = false;
    const MutableSetState* current = state_.load(std::memory_order_acquire);
    if (next.has_value() && current->version == snap.version) {
      PublishLocked(std::move(*next));
    } else {
      MaybeScheduleCompactionLocked();  // a mutation won the race
    }
  }
  compaction_cv_.notify_all();
}

void MutableSetCore::Compact() {
  EpochGuard guard;  // covers the reads of `current` below
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const MutableSetState* current = state_.load(std::memory_order_acquire);
  if (current->delta.empty()) return;
  PublishLocked(Rebuild(*current));
}

void MutableSetCore::WaitForCompaction() const {
  std::unique_lock<std::mutex> lock(writer_mutex_);
  compaction_cv_.wait(lock, [this] { return !compaction_scheduled_; });
}

}  // namespace fsi
