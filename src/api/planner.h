// The cost-model query planner: fsi::PlannerAlgorithm.
//
// The paper's Figure 7 shows that no single intersection algorithm wins
// everywhere — RanGroupScan took 61.6% of the real-workload queries,
// RanGroup 16%, HashBin 7.7%, and the competitors the rest.  The Hybrid
// facade (core/intersector.h) already chooses between two of them online;
// the planner generalizes that choice to the whole portfolio, the way
// database systems pick operators from a cost model:
//
//   fsi::Engine engine;                       // zero-config: the planner
//   fsi::PreparedSet a = engine.Prepare(...); // builds plain + scan forms
//   fsi::PreparedSet b = engine.Prepare(...);
//   fsi::ElemList r = engine.Query({&a, &b}).Materialize();
//   fsi::QueryPlan plan = engine.Query({&a, &b}).Explain();
//
// What the planner does, per query:
//  (a) orders the k sets smallest-first (optimal under the uniform-density
//      model: the candidate set shrinks by the same expected factor
//      n_j / U at every later step regardless of order, so starting from
//      the smallest candidate minimizes every step's work) and estimates
//      each intermediate result size from the universe density
//      (est *= n_j / U — the "density correction" applied to every
//      cost formula after the first step);
//  (b) selects the algorithm per intersection step from the registry
//      cost hooks (core/cost.h) of Merge, SvS and RanGroupScan, comparing
//      the paper's bounds — O(n1+n2) merge, O(n1 log(n2/n1)) galloping,
//      O(mn/sqrt(w) + r) RanGroupScan (Theorem 3.9) — evaluated with
//      per-machine constants, and compares that chain with running
//      RanGroupScan over all k sets at once;
//  (c) calibrates those constants at startup with a microbenchmark sweep
//      (PlannerCalibration::Measure), overridable with
//      FSI_PLANNER_CALIBRATION=off (pins the built-in defaults, so CI is
//      deterministic) or FSI_PLANNER_CALIBRATION=<file.json> (loads a
//      serialized calibration; see ToJson/FromJson).
//
// Execution: a PreparedSet of a planner engine holds *two* structures —
// the PlainSet sorted array (serves Merge and SvS) and the RanGroupScan
// block layout (serves RanGroupScan).  The all-RanGroupScan plan runs as
// one native k-way call (QueryPlan::uniform).  Every other plan is one
// chain: from the smallest input, each step keeps the candidates present
// in the next input by that step's kernel — SIMD merge or galloping over
// the sorted arrays, after an optional two-set RanGroupScan first step.
// A query with a compressed input (the space-budget dial) runs the same
// chain over g-values, probing or decoding the compressed inputs' groups,
// and inverts only its results.
//
// The registry spec is "Planner" (alias "auto"); fsi::Engine's default
// constructor uses it, making the planner the zero-config path.

#ifndef FSI_API_PLANNER_H_
#define FSI_API_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/registry.h"
#include "baseline/plain_set.h"
#include "core/algorithm.h"
#include "core/compressed_scan.h"
#include "core/cost.h"
#include "core/ran_group_scan.h"

namespace fsi {

/// The calibrated machine constants plus where they came from.
struct PlannerCalibration {
  CostConstants constants;
  /// "default" (FSI_PLANNER_CALIBRATION=off or calibration=off),
  /// "measured" (the startup microbenchmark sweep) or "json" (loaded).
  std::string source = "default";

  /// Serializes the constants to a single-object JSON document.
  std::string ToJson() const;

  /// Parses a document produced by ToJson (unknown keys are ignored;
  /// missing or malformed constants throw std::invalid_argument).
  static PlannerCalibration FromJson(std::string_view json);

  /// The microbenchmark sweep: times each portfolio algorithm on
  /// synthetic workloads shaped to isolate its constant (sparse and
  /// dense balanced pairs for merge_ns / scan_ns / scan_result_ns /
  /// decode_ns, a 16x-skewed pair for gallop_ns), all sized past the L2
  /// cache to match the memory-resident posting-list regime.  hashbin_ns
  /// keeps its built-in default (HashBin is not a planner candidate).
  /// Deterministic inputs; ~110 ms, run once per process (Process()).
  static PlannerCalibration Measure(std::uint64_t seed = 0x5ca1ab1eULL);

  /// The process-wide calibration, resolved once from the environment:
  /// FSI_PLANNER_CALIBRATION=off -> built-in defaults, =<path> -> FromJson
  /// of that file's contents, unset/on -> Measure().  Cached after the
  /// first call; throws std::invalid_argument if a file fails to load.
  static const PlannerCalibration& Process();
};

/// One step of a query plan.  For the first step both sizes are exact; for
/// later steps `left_size` is the density-corrected estimate of the
/// intermediate result (`left_estimated` is then true).
struct PlanStep {
  /// Registry name of the chosen algorithm for this step ("Merge", "SvS" or
  /// "RanGroupScan"); a step into a compressed input is "LowbitsProbe" or
  /// "LowbitsMerge".
  std::string algorithm;
  std::size_t left_size = 0;
  std::size_t right_size = 0;
  bool left_estimated = false;
  /// Estimated result size of this step.
  double est_result = 0.0;
  /// Predicted cost of this step, microseconds.
  double predicted_micros = 0.0;
};

/// The chosen plan for one multi-set query, returned by Query::Explain().
struct QueryPlan {
  /// Input positions in execution order (sorted by set size ascending).
  std::vector<std::size_t> order;
  /// One entry per pairwise step (k-1 entries for a k-set query; empty for
  /// k <= 1 or when an input set is empty).
  std::vector<PlanStep> steps;
  /// True when the query executes as one native k-way RanGroupScan call
  /// over the scan structures (every step is then "RanGroupScan"); false
  /// for a chain.
  bool uniform = false;
  /// Sum of the step predictions, microseconds (the value mirrored into
  /// QueryStats::predicted_micros).
  double predicted_micros = 0.0;
  /// Estimated final result size.
  double est_result = 0.0;
  /// True when the plan came from the planner; false for the single-step
  /// pseudo-plan synthesized for an explicit-spec engine.
  bool planned = false;
  /// How many of the query's inputs hold the block-compressed
  /// representation (EngineOptions::space_budget_bytes) — the Explain()
  /// evidence for the space-budget dial.  0 for all-uncompressed queries.
  std::size_t compressed_inputs = 0;
  /// Plans with a compressed input run as one g-space chain; true when
  /// that chain starts by decoding the (compressed) smallest input.
  bool start_decoded = false;
  /// Expression queries only (Engine::Query(const Expr&)): the rendered
  /// expression tree with per-node cardinality estimates and algorithm
  /// annotations (api/expr.h).  Empty for flat conjunctive plans.
  std::string tree;

  /// Human-readable rendering (the intersect_cli --explain output).
  std::string ToString() const;
};

/// The composite preprocessed form of one set under the planner.  Two
/// representations exist behind this one type:
///  - uncompressed (the default): the PlainSet sorted array plus the
///    RanGroupScan block structure (`has_plain()` is true);
///  - compressed (picked by Engine's space-budget dial): a single
///    CompressedScanSet block stream — no sorted array, ~4x smaller.
/// Callers that need raw elements must check `has_plain()` first.  The
/// planner never decodes a compressed input to raw elements: it joins the
/// query's g-space chain (probed group by group, or decoded to g-values
/// and merged), and only the results are inverted.
class PlannedSet : public PreprocessedSet {
 public:
  PlannedSet(std::unique_ptr<PreprocessedSet> plain,
             std::unique_ptr<PreprocessedSet> scan)
      : plain_(std::move(plain)), scan_(std::move(scan)) {}

  /// The compressed representation (space-budget dial).
  explicit PlannedSet(std::unique_ptr<CompressedScanSet> cscan)
      : cscan_(std::move(cscan)) {}

  std::size_t size() const override {
    return plain_ ? plain_->size() : cscan_->size();
  }
  std::size_t SizeInWords() const override {
    return plain_ ? plain_->SizeInWords() + scan_->SizeInWords()
                  : cscan_->SizeInWords();
  }
  std::uint64_t NumGroups() const override {
    return plain_ ? scan_->NumGroups() : cscan_->NumGroups();
  }

  /// True for the uncompressed two-structure representation; false when
  /// this set holds only the compressed block stream.
  bool has_plain() const { return plain_ != nullptr; }

  const PreprocessedSet* plain() const { return plain_.get(); }
  const PreprocessedSet* scan() const { return scan_.get(); }
  const CompressedScanSet* cscan() const { return cscan_.get(); }
  /// The sorted raw elements (the PlainSet view).  Only valid when
  /// has_plain(); compressed sets must be decoded instead.
  std::span<const Elem> elems() const {
    return static_cast<const PlainSet*>(plain_.get())->elems();
  }
  /// The largest element, available for both representations (drives the
  /// planner's universe estimate without decoding).
  Elem max_elem() const {
    if (!plain_) return cscan_->max_elem();
    std::span<const Elem> e = elems();
    return e.empty() ? 0 : e.back();
  }

  /// Appends both component structures to `payload` (kind kPlanned: the
  /// PlainSet's elems ref plus the ScanSet's three refs and t/m).
  void WriteFlat(storage::PayloadWriter& payload,
                 storage::SetRecord& record) const {
    static_cast<const PlainSet*>(plain_.get())->WriteFlat(payload, record);
    static_cast<const ScanSet*>(scan_.get())->WriteFlat(payload, record);
    record.kind = static_cast<std::uint32_t>(storage::SetKind::kPlanned);
  }

  /// Reconstructs a PlannedSet whose spans alias `payload` (zero-copy;
  /// the backing bytes must outlive it).  Throws
  /// storage::SnapshotError(kCorrupt) when the components disagree on the
  /// set size.
  static std::unique_ptr<PlannedSet> ViewFlat(
      std::span<const std::byte> payload, const storage::SetRecord& record) {
    if (record.elems.count != record.gvals.count) {
      throw storage::SnapshotError(
          storage::SnapshotErrorCode::kCorrupt,
          "PlannedSet: element and g-value counts differ");
    }
    return std::make_unique<PlannedSet>(PlainSet::ViewFlat(payload, record),
                                        ScanSet::ViewFlat(payload, record));
  }

 private:
  std::unique_ptr<PreprocessedSet> plain_;
  std::unique_ptr<PreprocessedSet> scan_;
  /// Compressed representation; mutually exclusive with plain_/scan_.
  std::unique_ptr<CompressedScanSet> cscan_;
};

/// The sorted element array a structure keeps, when it keeps one: an
/// uncompressed PlannedSet or a PlainSet.  nullopt for grouped, hashed and
/// compressed structures, whose elements must be decoded instead.
std::optional<std::span<const Elem>> StructureElems(const PreprocessedSet* set);

/// The exclusive upper bound of a structure's elements, the universe of
/// the density estimates: the largest element + 1 of a PlainSet or a
/// PlannedSet in either representation (0 when empty), else 2^32, the
/// full element domain — grouped and hashed structures store permuted
/// values, whose maximum says nothing about the raw density.
double ElemBound(const PreprocessedSet* set);

/// The planner, packaged as a registry algorithm ("Planner", alias
/// "auto") so every Engine/BatchRunner/InvertedIndex feature works
/// unchanged on top of it.  Thread-compatible like every algorithm: a
/// const instance may be shared across threads.
class PlannerAlgorithm : public IntersectionAlgorithm {
 public:
  struct Options {
    /// Options of the internal RanGroupScan instance (seed, m, group
    /// width, simd mode); the seed also feeds the compressed
    /// representation, which shares the scan structure's permutation.
    RanGroupScanIntersection::Options scan;
    /// Machine constants; when unset, PlannerCalibration::Process() (the
    /// env-governed startup calibration) decides.
    std::optional<CostConstants> constants;
    /// false pins the built-in CostConstants defaults regardless of the
    /// environment (registry option "calibration=off").
    bool calibration = true;
  };

  PlannerAlgorithm() : PlannerAlgorithm(Options()) {}
  explicit PlannerAlgorithm(const Options& options);

  std::string_view name() const override { return "Planner"; }

  std::unique_ptr<PreprocessedSet> Preprocess(
      std::span<const Elem> set) const override;

  /// Builds the compressed representation of one set (the space-budget
  /// dial's long-tail choice): a PlannedSet holding only a Lowbits
  /// CompressedScanSet — ~4x smaller than Preprocess's two structures,
  /// probed group by group (or decoded to g-values) at query time.
  std::unique_ptr<PreprocessedSet> PreprocessCompressed(
      std::span<const Elem> set) const;

  /// SizeInWords() of Preprocess's and PreprocessCompressed's sets for an
  /// n-element list.  Both layouts' sizes follow from n alone, so the
  /// space-budget dial picks a representation before building either.
  std::size_t PreprocessWords(std::size_t n) const {
    return PlainSet::SizeInWordsFor(n) + scan_.PreprocessWords(n);
  }
  std::size_t PreprocessCompressedWords(std::size_t n) const {
    return cscan_.PreprocessWords(n);
  }

  void Intersect(std::span<const PreprocessedSet* const> sets,
                 ElemList* out) const override;

  void IntersectUnordered(std::span<const PreprocessedSet* const> sets,
                          ElemList* out) const override;

  /// Plans a query without executing it (every pointer must come from this
  /// instance's Preprocess).  Pure and cheap — a few float operations per
  /// candidate per step.
  QueryPlan Plan(std::span<const PreprocessedSet* const> sets) const;

  /// Executes a plan previously produced by Plan() over the *same* sets —
  /// what fsi::Query uses so each query is planned exactly once (the raw
  /// Intersect entry points plan internally).  Steps past the k - 1
  /// intersections (the DeltaMerge step of a query over mutable sets) are
  /// left to the caller.
  void ExecutePlan(std::span<const PreprocessedSet* const> sets,
                   const QueryPlan& plan, bool ordered, ElemList* out) const;

  /// The machine constants this instance plans with.
  const CostConstants& constants() const { return constants_; }
  /// The internal RanGroupScan instance whose permutation every
  /// PlannedSet's scan structure shares — the t-of-k threshold fast path
  /// (api/expr.h, core/threshold.h) count-merges through it.
  const RanGroupScanIntersection& scan_algorithm() const { return scan_; }
  /// The internal compressed-scan instance behind PreprocessCompressed
  /// (same seed-derived permutation as scan_algorithm(), Lowbits, m = 0
  /// with the group index).
  const CompressedScanIntersection& compressed_algorithm() const {
    return cscan_;
  }
  /// Where the constants came from ("default", "measured", "json",
  /// "explicit" or "snapshot").
  std::string_view calibration_source() const { return calibration_source_; }

  /// Replaces the machine constants after construction — the snapshot
  /// load path, which constructs with calibration=off (skipping the
  /// ~110 ms startup measurement) and then installs the constants stamped
  /// into the snapshot.  Not thread-safe: call before the instance is
  /// shared.
  void OverrideConstants(const CostConstants& constants, std::string source) {
    constants_ = constants;
    calibration_source_ = std::move(source);
  }

 private:
  CostConstants constants_;
  std::string calibration_source_;
  RanGroupScanIntersection scan_;
  CompressedScanIntersection cscan_;
  /// Kernel table for the chain's merge/gallop steps.
  const simd::Kernels* kernels_;
  /// Registry descriptors of the chain's candidates (cost hook present),
  /// resolved once at construction: Merge, SvS, RanGroupScan.
  std::vector<const AlgorithmDescriptor*> candidates_;
};

/// The explicit-spec pseudo-plan: one step per intersection, all under
/// `algorithm`, carrying the predictions of `hook` — the registry
/// descriptor's cost hook, which the Engine resolves once at construction
/// so query building never takes the registry mutex (predicted_micros == 0
/// when it is null).  Explicit engines' Query::Explain() and
/// QueryStats::predicted_micros come from this.
QueryPlan PlanExplicit(const IntersectionAlgorithm& algorithm,
                       std::span<const PreprocessedSet* const> sets,
                       StepCostFn hook);

}  // namespace fsi

#endif  // FSI_API_PLANNER_H_
