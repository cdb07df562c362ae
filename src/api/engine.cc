#include "api/engine.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>

#include "api/epoch.h"
#include "api/expr.h"
#include "api/planner.h"
#include "api/registry.h"
#include "core/delta_set.h"
#include "util/timer.h"

namespace fsi {
namespace {

void CheckMutableOptions(const MutableSetOptions& options) {
  if (!ValidCompactFill(options.compact_fill)) {
    throw std::invalid_argument(
        "PrepareMutable: compact_fill must be a finite positive number");
  }
}

std::atomic<std::uint64_t> next_set_id{1};

}  // namespace

PreparedSet::PreparedSet(std::shared_ptr<const IntersectionAlgorithm> algorithm,
                         std::shared_ptr<const PreprocessedSet> set)
    : algorithm_(std::move(algorithm)),
      set_(std::move(set)),
      id_(next_set_id++) {}

PreparedSet::PreparedSet(std::shared_ptr<const IntersectionAlgorithm> algorithm,
                         std::shared_ptr<MutableSetCore> core)
    : algorithm_(std::move(algorithm)),
      core_(std::move(core)),
      id_(next_set_id++) {}

std::size_t PreparedSet::size() const {
  if (core_ != nullptr) return core_->size();
  return set_ != nullptr ? set_->size() : 0;
}

std::size_t PreparedSet::SizeInWords() const {
  if (core_ != nullptr) {
    MutableSetState snap = core_->Snapshot();
    // Structure + delta tier + the base array when the structure does not
    // already hold it, in 64-bit words.
    const std::size_t owned = snap.owned_base != nullptr ? snap.base.size() : 0;
    return snap.structure->SizeInWords() +
           ((owned + snap.delta.size()) * sizeof(Elem) + 7) / 8;
  }
  return set_ != nullptr ? set_->SizeInWords() : 0;
}

bool PreparedSet::compressed() const {
  const auto* planned = dynamic_cast<const PlannedSet*>(set_.get());
  return planned != nullptr && !planned->has_plain();
}

void PreparedSet::RequireMutable(const char* operation) const {
  if (core_ == nullptr) {
    throw std::logic_error(
        std::string("PreparedSet::") + operation +
        ": handle is immutable (built by Engine::Prepare); mutation "
        "requires Engine::PrepareMutable");
  }
}

bool PreparedSet::Insert(Elem value) {
  RequireMutable("Insert");
  return core_->Insert(value);
}

bool PreparedSet::Erase(Elem value) {
  RequireMutable("Erase");
  return core_->Erase(value);
}

bool PreparedSet::Contains(Elem value) const {
  RequireMutable("Contains");
  return core_->Contains(value);
}

std::size_t PreparedSet::delta_size() const {
  return core_ != nullptr ? core_->delta_size() : 0;
}

std::uint64_t PreparedSet::version() const {
  return core_ != nullptr ? core_->version() : 0;
}

MutableSetState PreparedSet::MutableSnapshot() const {
  RequireMutable("MutableSnapshot");
  return core_->Snapshot();
}

void PreparedSet::Compact() {
  RequireMutable("Compact");
  core_->Compact();
}

void PreparedSet::WaitForCompaction() const {
  RequireMutable("WaitForCompaction");
  core_->WaitForCompaction();
}

QueryPlan Query::Explain() const {
  if (expr_ != nullptr) return expr_internal::PlanExpr(*expr_, ctx_);
  if (plan_ != nullptr) return *plan_;
  const expr_internal::ConjunctionInputs run(inputs_);
  return expr_internal::PlanConjunction(ctx_, run.views, run.snapshots);
}

ElemList Query::Materialize() {
  ElemList out;
  ExecuteInto(&out);
  return out;
}

QueryStats Query::ExecuteInto(ElemList* out) {
  Timer timer;
  out->clear();
  if (expr_ != nullptr) {
    // Always sorted — which satisfies the Unordered() contract too
    // (unspecified order includes ascending).
    stats_.elements_scanned = expr_internal::Evaluate(*expr_, ctx_, out);
  } else if (plan_ != nullptr) {
    expr_internal::ExecuteConjunction(ctx_, sets_, {}, *plan_, ordered_, out);
  } else {
    // One consistent snapshot per mutable input; planning, the base
    // intersection and the delta fixup all run against it, immune to
    // concurrent mutation and compaction.  Re-planning per run keeps a
    // mutated set's plan fresh (Plan() is a few float ops per step).
    const expr_internal::ConjunctionInputs run(inputs_);
    const QueryPlan plan =
        expr_internal::PlanConjunction(ctx_, run.views, run.snapshots);
    stats_.predicted_micros = plan.predicted_micros;
    run.FillScanStats(&stats_);
    expr_internal::ExecuteConjunction(ctx_, run.views, run.snapshots, plan,
                                      ordered_, out);
  }
  if (limit_ < out->size()) out->resize(limit_);
  stats_.result_size = out->size();
  stats_.wall_micros = timer.ElapsedMillis() * 1000.0;
  return stats_;
}

std::size_t Query::Count() {
  ExecuteInto(&scratch_);
  return stats_.result_size;
}

QueryStats Query::Execute() {
  ExecuteInto(&scratch_);
  if (count_only_) scratch_.clear();
  return stats_;
}

Engine::Engine(std::string_view spec, EngineOptions options)
    : algorithm_(AlgorithmRegistry::Global().Create(spec, options.seed)),
      validate_(ValidationEnabled(options.validation)),
      spec_(spec),
      seed_(options.seed) {
  ResolveCostInfo();
  InitSpaceBudget(options);
  if (options.expr_cache_bytes > 0) {
    expr_cache_ = std::make_shared<ExprCache>(options.expr_cache_bytes);
  }
}

Engine::Engine(std::unique_ptr<IntersectionAlgorithm> algorithm,
               EngineOptions options)
    : algorithm_(std::move(algorithm)),
      validate_(ValidationEnabled(options.validation)),
      seed_(options.seed) {
  if (algorithm_ == nullptr) {
    throw std::invalid_argument("Engine: null algorithm");
  }
  spec_ = std::string(algorithm_->name());
  ResolveCostInfo();
  InitSpaceBudget(options);
  if (options.expr_cache_bytes > 0) {
    expr_cache_ = std::make_shared<ExprCache>(options.expr_cache_bytes);
  }
}

void Engine::InitSpaceBudget(const EngineOptions& options) {
  space_budget_bytes_ = options.space_budget_bytes;
  min_compress_size_ = options.min_compress_size;
  if (space_budget_bytes_ == 0) return;
  if (planner_view_ == nullptr) {
    throw std::invalid_argument(
        "Engine(" + std::string(algorithm_->name()) +
        "): space_budget_bytes requires the planner engine (spec "
        "\"Planner\"/default) — only its composite sets support the "
        "compressed representation");
  }
  space_used_ = std::make_shared<std::atomic<std::uint64_t>>(0);
}

void Engine::ResolveCostInfo() {
  planner_view_ = dynamic_cast<const PlannerAlgorithm*>(algorithm_.get());
  const AlgorithmDescriptor* descriptor =
      AlgorithmRegistry::Global().Find(algorithm_->name());
  cost_hook_ = descriptor == nullptr ? nullptr : descriptor->cost;
}

PreparedSet Engine::Prepare(std::span<const Elem> set) const {
  if (validate_) CheckSortedUnique(set, algorithm_->name());
  return PreparedSet(algorithm_, std::shared_ptr<const PreprocessedSet>(
                                     PrepareStructure(set)));
}

std::unique_ptr<PreprocessedSet> Engine::PrepareStructure(
    std::span<const Elem> set) const {
  if (space_budget_bytes_ == 0 || set.size() < min_compress_size_) {
    std::unique_ptr<PreprocessedSet> s = algorithm_->Preprocess(set);
    if (space_used_) {
      space_used_->fetch_add(s->SizeInWords() * 8,
                             std::memory_order_relaxed);
    }
    return s;
  }
  // Streaming rule: admit uncompressed while the running total fits the
  // budget; past it, fall back to the compressed representation (whose
  // bytes are still counted — the footprint report stays honest, but
  // there is no cheaper representation to fall further back to).  The
  // uncompressed size follows from n, so only the chosen form is built.
  const std::uint64_t bytes = planner_view_->PreprocessWords(set.size()) * 8;
  const std::uint64_t prev =
      space_used_->fetch_add(bytes, std::memory_order_relaxed);
  if (prev + bytes <= space_budget_bytes_) {
    try {
      return algorithm_->Preprocess(set);
    } catch (...) {
      space_used_->fetch_sub(bytes, std::memory_order_relaxed);
      throw;
    }
  }
  space_used_->fetch_sub(bytes, std::memory_order_relaxed);
  std::unique_ptr<PreprocessedSet> c = planner_view_->PreprocessCompressed(set);
  space_used_->fetch_add(c->SizeInWords() * 8, std::memory_order_relaxed);
  return c;
}

std::vector<PreparedSet> Engine::PrepareBatch(
    std::span<const ElemList> lists) const {
  std::vector<PreparedSet> out;
  out.reserve(lists.size());
  if (space_budget_bytes_ == 0) {
    for (const ElemList& list : lists) out.push_back(Prepare(list));
    return out;
  }
  if (validate_) {
    for (const ElemList& list : lists) {
      CheckSortedUnique(list, algorithm_->name());
    }
  }
  // Everything is uncompressed unless the batch blows the budget; only
  // then does any set pay the decode tax.  Both representations' sizes
  // follow from n, so the choice runs on those and each list is built
  // once, in its chosen form.
  std::vector<std::uint64_t> bytes_u(lists.size());
  std::uint64_t total = space_used_->load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < lists.size(); ++i) {
    bytes_u[i] = planner_view_->PreprocessWords(lists[i].size()) * 8;
    total += bytes_u[i];
  }
  std::vector<bool> compress(lists.size(), false);
  if (total > space_budget_bytes_) {
    // Greedy knapsack: flip the sets with the best bytes saved per
    // predicted extra microsecond of future query time (the compressed
    // representation reads at decode_ns instead of merge_ns per element)
    // until the batch fits or every eligible set is compressed.
    const CostConstants& c = planner_view_->constants();
    const double extra_ns = std::max(c.decode_ns - c.merge_ns, 1e-3);
    struct Candidate {
      std::size_t index;
      std::uint64_t saved_bytes;
      double gain;  // bytes per microsecond
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < lists.size(); ++i) {
      if (lists[i].size() < min_compress_size_) continue;
      Candidate cand;
      cand.index = i;
      const std::uint64_t bytes_c =
          planner_view_->PreprocessCompressedWords(lists[i].size()) * 8;
      // Compression lost: keep the fast form.
      if (bytes_c >= bytes_u[i]) continue;
      cand.saved_bytes = bytes_u[i] - bytes_c;
      const double extra_micros =
          extra_ns * static_cast<double>(lists[i].size()) * 1e-3;
      cand.gain = static_cast<double>(cand.saved_bytes) /
                  std::max(extra_micros, 1e-9);
      candidates.push_back(cand);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.gain > b.gain;
                     });
    for (const Candidate& cand : candidates) {
      if (total <= space_budget_bytes_) break;
      total -= cand.saved_bytes;
      compress[cand.index] = true;
    }
  }
  std::uint64_t batch_bytes = 0;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    std::shared_ptr<const PreprocessedSet> s =
        compress[i] ? planner_view_->PreprocessCompressed(lists[i])
                    : algorithm_->Preprocess(lists[i]);
    batch_bytes += s->SizeInWords() * 8;
    out.push_back(PreparedSet(algorithm_, std::move(s)));
  }
  space_used_->fetch_add(batch_bytes, std::memory_order_relaxed);
  return out;
}

PreparedSet Engine::PrepareMutable(std::span<const Elem> set,
                                   MutableSetOptions options) const {
  if (validate_) CheckSortedUnique(set, algorithm_->name());
  CheckMutableOptions(options);
  return PreparedSet(algorithm_,
                     std::make_shared<MutableSetCore>(algorithm_, set, options));
}

PreparedSet Engine::AdoptMutable(
    std::shared_ptr<const PreprocessedSet> structure,
    MutableSetOptions options) const {
  if (validate_) {
    CheckSortedUnique(StructureElems(structure.get()).value_or(
                          std::span<const Elem>()),
                      algorithm_->name());
  }
  CheckMutableOptions(options);
  return PreparedSet(algorithm_, std::make_shared<MutableSetCore>(
                                     algorithm_, std::move(structure),
                                     options));
}

fsi::Query Engine::Query(
    std::initializer_list<const PreparedSet*> sets) const {
  return MakeQuery(std::span<const PreparedSet* const>(sets.begin(),
                                                       sets.size()));
}

fsi::Query Engine::Query(std::span<const PreparedSet* const> sets) const {
  return MakeQuery(sets);
}

fsi::Query Engine::Query(std::span<const PreparedSet> sets) const {
  std::vector<const PreparedSet*> pointers;
  pointers.reserve(sets.size());
  for (const PreparedSet& s : sets) pointers.push_back(&s);
  return MakeQuery(pointers);
}

fsi::Query Engine::MakeQuery(std::span<const PreparedSet* const> sets) const {
  if (sets.size() > algorithm_->max_query_sets()) {
    throw std::invalid_argument(
        std::string(algorithm_->name()) + ": query over " +
        std::to_string(sets.size()) + " sets exceeds max_query_sets() == " +
        std::to_string(algorithm_->max_query_sets()));
  }
  std::vector<PreparedSet> inputs;
  inputs.reserve(sets.size());
  for (const PreparedSet* s : sets) {
    if (s == nullptr || s->empty_handle()) {
      throw std::invalid_argument(std::string(algorithm_->name()) +
                                  ": query over an empty PreparedSet handle");
    }
    if (s->algorithm_.get() != algorithm_.get()) {
      throw std::invalid_argument(
          "Engine(" + std::string(algorithm_->name()) +
          "): PreparedSet was built by a different engine (algorithm '" +
          std::string(s->algorithm_name()) +
          "'); structures are not interchangeable across engines");
    }
    inputs.push_back(*s);
  }
  // A mutable input's snapshot here only feeds the immediate stats; every
  // terminal run takes its own.
  expr_internal::ConjunctionInputs run(inputs);
  QueryStats base;
  base.num_sets = sets.size();
  run.FillScanStats(&base);
  const expr_internal::EvalContext ctx{algorithm_.get(), planner_view_,
                                       nullptr, cost_hook_};
  QueryPlan plan = expr_internal::PlanConjunction(ctx, run.views, run.snapshots);
  base.predicted_micros = plan.predicted_micros;
  std::shared_ptr<const QueryPlan> reused;
  if (run.snapshots.empty()) {
    reused = std::make_shared<const QueryPlan>(std::move(plan));
  } else {
    run.views.clear();
  }
  return fsi::Query(algorithm_, ctx, std::move(inputs), std::move(run.views),
                    std::move(reused), base);
}

ElemList Engine::IntersectLists(std::span<const ElemList> lists) const {
  std::vector<PreparedSet> prepared;
  prepared.reserve(lists.size());
  for (const ElemList& list : lists) prepared.push_back(Prepare(list));
  return Query(prepared).Materialize();
}

}  // namespace fsi
