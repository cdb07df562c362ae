#include "api/planner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "baseline/merge.h"
#include "baseline/svs.h"
#include "util/rng.h"
#include "util/timer.h"

namespace fsi {

namespace {

// ---------------------------------------------------------------------------
// Calibration.
// ---------------------------------------------------------------------------

/// A sorted, duplicate-free set of `n` elements with mean gap ~(max_gap+1)/2.
ElemList MakeCalibrationSet(std::size_t n, std::uint32_t max_gap,
                            Xoshiro256& rng) {
  ElemList set;
  set.reserve(n);
  std::uint32_t x = 0;
  for (std::size_t i = 0; i < n; ++i) {
    x += 1 + static_cast<std::uint32_t>(rng.Below(max_gap));
    set.push_back(x);
  }
  return set;
}

/// Median over kSamples timed spans of `alg` intersecting `a` and `b`, in
/// nanoseconds per call, plus the result size (for subtracting the
/// per-result term).  Each span repeats the call until it lasts
/// kMinSpanMs: a single ~0.1 ms call is at the mercy of one scheduler
/// tick or cache refill, and the median drops the spans a burst of host
/// noise lands in.
std::pair<double, std::size_t> TimeIntersect(const IntersectionAlgorithm& alg,
                                             const ElemList& a,
                                             const ElemList& b) {
  constexpr int kSamples = 5;
  constexpr double kMinSpanMs = 2.0;
  std::unique_ptr<PreprocessedSet> pa = alg.Preprocess(a);
  std::unique_ptr<PreprocessedSet> pb = alg.Preprocess(b);
  const PreprocessedSet* views[2] = {pa.get(), pb.get()};
  std::span<const PreprocessedSet* const> span(views, 2);
  ElemList out;
  std::vector<double> per_call_ns;
  for (int sample = 0; sample < kSamples; ++sample) {
    std::size_t calls = 0;
    double elapsed_ms = 0.0;
    Timer timer;
    do {
      out.clear();
      alg.Intersect(span, &out);
      ++calls;
      elapsed_ms = timer.ElapsedMillis();
    } while (elapsed_ms < kMinSpanMs);
    per_call_ns.push_back(elapsed_ms * 1e6 / static_cast<double>(calls));
  }
  auto mid = per_call_ns.begin() + per_call_ns.size() / 2;
  std::nth_element(per_call_ns.begin(), mid, per_call_ns.end());
  return {*mid, out.size()};
}

/// (measured - result_ns * r) / units, clamped to a sane range so a timer
/// hiccup can never produce a zero or absurd constant.
double Constant(double measured_ns, std::size_t result, double result_ns,
                double units) {
  double net = measured_ns - result_ns * static_cast<double>(result);
  return std::clamp(net / units, 0.02, 500.0);
}

void AppendJsonField(std::string* out, const char* key, double value,
                     const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6g%s", key, value, suffix);
  *out += buf;
}

double ParseJsonNumber(std::string_view json, std::string_view key) {
  std::string quoted = "\"" + std::string(key) + "\"";
  std::string_view::size_type at = json.find(quoted);
  if (at == std::string_view::npos) {
    throw std::invalid_argument("PlannerCalibration: missing key " + quoted);
  }
  at = json.find(':', at + quoted.size());
  if (at == std::string_view::npos) {
    throw std::invalid_argument("PlannerCalibration: no value for " + quoted);
  }
  std::string rest(json.substr(at + 1));
  char* end = nullptr;
  double value = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str() || !std::isfinite(value) || value <= 0.0) {
    throw std::invalid_argument(
        "PlannerCalibration: malformed value for " + quoted +
        " (expects a positive number)");
  }
  return value;
}

constexpr std::string_view kMergeName = "Merge";
constexpr std::string_view kSvsName = "SvS";
constexpr std::string_view kScanName = "RanGroupScan";

/// The g-space chain's steps over a compressed input: probe its groups
/// for each candidate (FilterGvals), or decode it whole (DecodeGvals) and
/// merge — the cheaper one once the candidates touch most groups.
constexpr std::string_view kProbeName = "LowbitsProbe";
constexpr std::string_view kDecodeMergeName = "LowbitsMerge";

/// Sorts the inverted results of a g-space chain into document order.  An
/// LSD radix sort on 11-bit digits, running only the passes below the
/// maximum's top bit and skipping a pass whose digit is constant; short
/// lists go to std::sort.
void SortResults(ElemList* v) {
  const std::size_t n = v->size();
  if (n < 256) {
    std::sort(v->begin(), v->end());
    return;
  }
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const Elem max = *std::max_element(v->begin(), v->end());
  const int passes = (std::bit_width(max) + kDigitBits - 1) / kDigitBits;
  std::uint32_t count[3][kBuckets];
  for (int p = 0; p < passes; ++p) std::fill_n(count[p], kBuckets, 0u);
  for (const Elem x : *v) {
    for (int p = 0; p < passes; ++p) {
      ++count[p][(x >> (p * kDigitBits)) & (kBuckets - 1)];
    }
  }
  thread_local ElemList scratch;  // grown to the largest result sorted
  if (scratch.size() < n) scratch.resize(n);
  Elem* src = v->data();
  Elem* dst = scratch.data();
  for (int p = 0; p < passes; ++p) {
    std::uint32_t* c = count[p];
    const int shift = p * kDigitBits;
    if (c[(src[0] >> shift) & (kBuckets - 1)] == n) continue;
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t here = c[b];
      c[b] = sum;
      sum += here;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[c[(src[i] >> shift) & (kBuckets - 1)]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != v->data()) std::copy(src, src + n, v->data());
}

/// Per element of a whole-stream Lowbits decode (DecodeGvals): a share of
/// a group header plus one fixed-width field extraction — a scan-rate
/// pass that costs about two scan_ns.
double LowbitsDecodeNs(const CostConstants& c) { return 2.0 * c.scan_ns; }

/// Per result of a g-space chain: one g^-1 (four Feistel rounds) plus the
/// radix sort's share, about two appends' worth.
double GspaceResultNs(const CostConstants& c) { return 2.0 * c.result_ns; }

/// A LowbitsProbe step (FilterGvals): q.small_size candidates, uniform in
/// g-space, into a compressed set of 2^t groups.  Each group the
/// candidates touch costs a skip-directory seek plus unpacking its fields
/// (~8 per group); each candidate then compares against those fields.
double LowbitsProbeNs(const StepCostQuery& q, int t, const CostConstants& c) {
  constexpr double kGroupFields = 8.0;
  const double groups = std::ldexp(1.0, t);
  const double cands = static_cast<double>(q.small_size);
  const double touched = groups * -std::expm1(-cands / groups);
  return touched * (c.gallop_ns + kGroupFields * LowbitsDecodeNs(c)) +
         cands * kGroupFields * c.merge_ns;
}

/// A LowbitsMerge step: decode all q.large_size g-values, then merge.
double LowbitsMergeNs(const StepCostQuery& q, const CostConstants& c) {
  return LowbitsDecodeNs(c) * static_cast<double>(q.large_size) +
         MergeIntersection::StepCost(q, c);
}

bool Chainable(std::string_view algorithm) {
  // Steps after the first, and every step in g-space, intersect a sorted
  // array of candidates with the next input's sorted array; only the
  // merge/gallop families run on that shape.
  return algorithm == kMergeName || algorithm == kSvsName;
}

/// The planner's compressed representation: Lowbits (the paper's own
/// codec — O(1) group skips, SIMD fixed-width unpack) sharing the scan
/// structure's seed so the permutation matches.  No image words: the
/// g-space chain never reads them.  A per-group header index instead, so
/// a LowbitsProbe reaches each candidate's group with one lookup.
CompressedScanIntersection::Options CompressedOptions(
    const RanGroupScanIntersection::Options& scan) {
  CompressedScanIntersection::Options o;
  o.seed = scan.seed;
  o.universe_bits = scan.universe_bits;
  o.m = 0;
  o.codec = ScanCodec::kLowbits;
  o.group_index = true;
  o.simd = scan.simd;
  return o;
}

}  // namespace

std::optional<std::span<const Elem>> StructureElems(
    const PreprocessedSet* set) {
  if (const auto* planned = dynamic_cast<const PlannedSet*>(set)) {
    if (!planned->has_plain()) return std::nullopt;
    return planned->elems();
  }
  if (const auto* plain = dynamic_cast<const PlainSet*>(set)) {
    return plain->elems();
  }
  return std::nullopt;
}

double ElemBound(const PreprocessedSet* set) {
  if (set->size() == 0) return 0.0;
  if (const auto* planned = dynamic_cast<const PlannedSet*>(set)) {
    return static_cast<double>(planned->max_elem()) + 1.0;
  }
  if (const auto* plain = dynamic_cast<const PlainSet*>(set)) {
    return static_cast<double>(plain->elems().back()) + 1.0;
  }
  return 4294967296.0;
}

std::string PlannerCalibration::ToJson() const {
  std::string out = "{";
  AppendJsonField(&out, "merge_ns", constants.merge_ns, ", ");
  AppendJsonField(&out, "gallop_ns", constants.gallop_ns, ", ");
  AppendJsonField(&out, "scan_ns", constants.scan_ns, ", ");
  AppendJsonField(&out, "hashbin_ns", constants.hashbin_ns, ", ");
  AppendJsonField(&out, "result_ns", constants.result_ns, ", ");
  AppendJsonField(&out, "scan_result_ns", constants.scan_result_ns, ", ");
  AppendJsonField(&out, "decode_ns", constants.decode_ns, ", ");
  out += "\"source\": \"" + source + "\"}";
  return out;
}

PlannerCalibration PlannerCalibration::FromJson(std::string_view json) {
  PlannerCalibration cal;
  cal.constants.merge_ns = ParseJsonNumber(json, "merge_ns");
  cal.constants.gallop_ns = ParseJsonNumber(json, "gallop_ns");
  cal.constants.scan_ns = ParseJsonNumber(json, "scan_ns");
  cal.constants.hashbin_ns = ParseJsonNumber(json, "hashbin_ns");
  cal.constants.result_ns = ParseJsonNumber(json, "result_ns");
  cal.constants.scan_result_ns = ParseJsonNumber(json, "scan_result_ns");
  // decode_ns joined the format later; files written before the compressed
  // representation keep the built-in default.
  if (json.find("\"decode_ns\"") != std::string_view::npos) {
    cal.constants.decode_ns = ParseJsonNumber(json, "decode_ns");
  }
  cal.source = "json";
  return cal;
}

PlannerCalibration PlannerCalibration::Measure(std::uint64_t seed) {
  PlannerCalibration cal;
  cal.source = "measured";
  const double result_ns = cal.constants.result_ns;
  Xoshiro256 rng(seed);
  // Set sizes are chosen to bust the L2 cache (the balanced pair totals
  // ~512 KiB, the skewed pair's large side ~1 MiB): posting lists in the
  // paper's workloads are memory-resident, not cache-resident, and the
  // constants differ by 3-4x between those regimes.
  const std::size_t kBalanced = std::size_t{1} << 16;
  const double balanced_elems = static_cast<double>(2 * kBalanced);

  // Sparse balanced pair (~0.2% mutual density): the result terms are
  // negligible, so the per-element scan constants fall out directly.
  ElemList a = MakeCalibrationSet(kBalanced, 1024, rng);
  ElemList b = MakeCalibrationSet(kBalanced, 1024, rng);

  auto [merge_t, merge_r] =
      TimeIntersect(MergeIntersection(), a, b);
  cal.constants.merge_ns =
      Constant(merge_t, merge_r, result_ns, balanced_elems);

  auto [scan_t, scan_r] =
      TimeIntersect(RanGroupScanIntersection(), a, b);
  cal.constants.scan_ns = Constant(scan_t, scan_r, result_ns, balanced_elems);

  // Same sparse pair through the compressed Lowbits structure: the extra
  // per-element cost over scan_ns is the block decode (SIMD bit-unpack +
  // group filter through the bit cursor).
  auto [dec_t, dec_r] =
      TimeIntersect(CompressedScanIntersection(), a, b);
  cal.constants.decode_ns = Constant(
      dec_t, dec_r, CostConstants{}.scan_result_ns, balanced_elems);

  // Dense balanced pair (~12% density): with the element term pinned
  // above, the remainder isolates the partition family's per-result cost —
  // g^-1 inversions, the document-order sort, and the surviving-group
  // merges that image filtering can no longer skip.
  ElemList ad = MakeCalibrationSet(kBalanced, 16, rng);
  ElemList bd = MakeCalibrationSet(kBalanced, 16, rng);
  auto [dense_t, dense_r] =
      TimeIntersect(RanGroupScanIntersection(), ad, bd);
  cal.constants.scan_result_ns = std::clamp(
      (dense_t - cal.constants.scan_ns * balanced_elems) /
          static_cast<double>(std::max<std::size_t>(dense_r, 1)),
      1.0, 2000.0);

  // Skewed pair (the galloping regime): the small side is a 1-in-16
  // *random* sample of the large one, so the gallop distances are
  // geometric — the branchy, prefetch-hostile access pattern of a real
  // skewed query (a fixed-stride sample measures 3-4x too fast: perfectly
  // predicted branches).  One sampled x in 3 is probed as itself, the
  // others as x + 1 (a member only when the gap after x is 1), so about
  // 3/8 of the probes land: the share of an SvS step's candidates that
  // survive it on the fig07 stand-in log (0.36, weighted by step cost).
  // The result_ns term then absorbs what it absorbs in a real step; with
  // every probe landing it took over half of the block-skip kernel's time
  // and gallop_ns came out 2-3x low.  Ratio 16 sits in the merge-vs-gallop
  // crossover regime, which is exactly where the constant has to be right
  // for the planner to call 2-keyword queries correctly; at extreme ratios
  // every log-bound algorithm wins by orders of magnitude and precision
  // stops mattering.  hashbin_ns keeps its built-in default: HashBin is
  // not a planner candidate (its step cost exceeds SvS's whenever
  // hashbin_ns > gallop_ns and scan_result_ns > result_ns), and explicit
  // engines price with the built-in constants.
  const std::size_t kLarge = std::size_t{1} << 18;
  ElemList large = MakeCalibrationSet(kLarge, 16, rng);
  ElemList small;
  for (Elem x : large) {
    if (rng.Below(16) != 0) continue;
    const Elem probe = rng.Below(3) == 0 ? x : x + 1;
    if (small.empty() || small.back() != probe) small.push_back(probe);
  }
  const double skew_units =
      static_cast<double>(small.size()) * std::log2(2.0 + 16.0);

  auto [svs_t, svs_r] =
      TimeIntersect(SvsIntersection(), small, large);
  cal.constants.gallop_ns = Constant(svs_t, svs_r, result_ns, skew_units);

  return cal;
}

const PlannerCalibration& PlannerCalibration::Process() {
  static const PlannerCalibration calibration = [] {
    const char* env = std::getenv("FSI_PLANNER_CALIBRATION");
    std::string_view value = (env == nullptr) ? std::string_view() : env;
    if (value == "off") return PlannerCalibration{};
    if (!value.empty() && value != "on") {
      std::ifstream in{std::string(value)};
      if (!in) {
        throw std::invalid_argument(
            "FSI_PLANNER_CALIBRATION: cannot open calibration file '" +
            std::string(value) + "' (expected off, on, or a JSON file path)");
      }
      std::ostringstream contents;
      contents << in.rdbuf();
      return FromJson(contents.str());
    }
    return Measure();
  }();
  return calibration;
}

// ---------------------------------------------------------------------------
// Plans.
// ---------------------------------------------------------------------------

std::string QueryPlan::ToString() const {
  char buf[160];
  std::string out;
  if (!tree.empty()) {
    // Expression query (Engine::Query(const Expr&)): the rendered tree is
    // the whole story — there is no flat set order.
    std::snprintf(buf, sizeof(buf),
                  "expression plan: predicted %.1f us  est result: %.0f\n",
                  predicted_micros, est_result);
    out = buf;
    out += tree;
    return out;
  }
  if (!planned) {
    out = "plan: explicit algorithm";
    if (!steps.empty()) out += " '" + steps[0].algorithm + "'";
    out += "\n";
  } else {
    out = "plan:\n";
  }
  std::snprintf(buf, sizeof(buf),
                "  sets: %zu  order: [", order.size());
  out += buf;
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%zu", i == 0 ? "" : " ", order[i]);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "]  predicted: %.1f us  est result: %.0f\n",
                predicted_micros, est_result);
  out += buf;
  if (compressed_inputs > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  representation: %zu of %zu inputs compressed "
                  "(space budget)\n",
                  compressed_inputs, order.size());
    out += buf;
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& s = steps[i];
    std::snprintf(buf, sizeof(buf),
                  "  step %zu: %-12s left %s%zu  right n=%zu  est r=%.0f  "
                  "predicted %.1f us\n",
                  i + 1, s.algorithm.c_str(), s.left_estimated ? "~" : "n=",
                  s.left_size, s.right_size, s.est_result, s.predicted_micros);
    out += buf;
  }
  if (planned && compressed_inputs > 0) {
    out += start_decoded
               ? "  executed in g-space from a Lowbits decode of the smallest "
                 "input; g^-1 over the results\n"
               : "  executed in g-space from the smallest input's g-values; "
                 "g^-1 over the results\n";
  }
  if (planned && uniform) {
    out += "  executed as one native RanGroupScan call over all " +
           std::to_string(order.size()) + " sets\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// PlannerAlgorithm.
// ---------------------------------------------------------------------------

PlannerAlgorithm::PlannerAlgorithm(const Options& options)
    : scan_(options.scan),
      cscan_(CompressedOptions(options.scan)),
      kernels_(&simd::Select(options.scan.simd)) {
  if (options.constants.has_value()) {
    constants_ = *options.constants;
    calibration_source_ = "explicit";
  } else if (!options.calibration) {
    constants_ = CostConstants{};
    calibration_source_ = "default";
  } else {
    const PlannerCalibration& process = PlannerCalibration::Process();
    constants_ = process.constants;
    calibration_source_ = process.source;
  }
  for (std::string_view name : {kMergeName, kSvsName, kScanName}) {
    const AlgorithmDescriptor* d = AlgorithmRegistry::Global().Find(name);
    if (d != nullptr && d->cost != nullptr) candidates_.push_back(d);
  }
}

std::unique_ptr<PreprocessedSet> PlannerAlgorithm::Preprocess(
    std::span<const Elem> set) const {
  return std::make_unique<PlannedSet>(std::make_unique<PlainSet>(set),
                                      scan_.Preprocess(set));
}

std::unique_ptr<PreprocessedSet> PlannerAlgorithm::PreprocessCompressed(
    std::span<const Elem> set) const {
  std::unique_ptr<PreprocessedSet> cs = cscan_.Preprocess(set);
  return std::make_unique<PlannedSet>(std::unique_ptr<CompressedScanSet>(
      static_cast<CompressedScanSet*>(cs.release())));
}

QueryPlan PlannerAlgorithm::Plan(
    std::span<const PreprocessedSet* const> sets) const {
  QueryPlan plan;
  plan.planned = true;
  const std::size_t k = sets.size();
  plan.order.resize(k);
  std::iota(plan.order.begin(), plan.order.end(), std::size_t{0});
  std::stable_sort(plan.order.begin(), plan.order.end(),
                   [&](std::size_t i, std::size_t j) {
                     return sets[i]->size() < sets[j]->size();
                   });
  if (k == 0) return plan;
  for (const PreprocessedSet* s : sets) {
    if (!As<PlannedSet>(*s).has_plain()) ++plan.compressed_inputs;
  }

  const std::size_t n1 = sets[plan.order[0]]->size();
  if (n1 == 0) return plan;  // an empty input: trivially empty, no steps
  plan.start_decoded = !As<PlannedSet>(*sets[plan.order[0]]).has_plain();
  if (k == 1) {
    plan.est_result = static_cast<double>(n1);
    plan.predicted_micros =
        (plan.start_decoded
             ? (LowbitsDecodeNs(constants_) + GspaceResultNs(constants_)) *
                   static_cast<double>(n1)
             : constants_.merge_ns * static_cast<double>(n1)) *
        1e-3;
    return plan;
  }

  // Universe estimate for the density correction: the intersection of two
  // uniform sets over [0, U) has expected size n_a * n_b / U.
  // max_elem() serves both representations without decoding.
  double universe = 1.0;
  for (const PreprocessedSet* s : sets) {
    universe = std::max(
        universe, static_cast<double>(As<PlannedSet>(*s).max_elem()) + 1.0);
  }

  // The chain: each step intersects the running candidates with the next
  // input by its cheapest kernel — any candidate for the first step of an
  // uncompressed query (both inputs have prepared structures), merge or
  // gallop after it, LowbitsProbe or LowbitsMerge into a compressed input.
  // A compressed input runs the chain in g-space, which adds the decode
  // of a compressed smallest input and g^-1 plus the sort over the
  // survivors.  The intermediate-size estimates are algorithm-independent
  // (every algorithm computes the same set).
  const bool gspace = plan.compressed_inputs > 0;
  const std::size_t steps = k - 1;
  plan.steps.resize(steps);
  std::vector<double> native_ns(steps, HUGE_VAL);
  double chain_total = 0.0;
  double native_total = 0.0;
  double est_left = static_cast<double>(n1);
  for (std::size_t j = 0; j < steps; ++j) {
    const PlannedSet& right = As<PlannedSet>(*sets[plan.order[j + 1]]);
    StepCostQuery q;
    q.small_size = static_cast<std::size_t>(std::llround(est_left));
    q.large_size = right.size();
    q.est_result =
        std::min(est_left * static_cast<double>(q.large_size) / universe,
                 std::min(est_left, static_cast<double>(q.large_size)));
    PlanStep& step = plan.steps[j];
    double ns = HUGE_VAL;
    if (right.has_plain()) {
      for (const AlgorithmDescriptor* d : candidates_) {
        const double cost = d->cost(q, constants_);
        if (d->name == kScanName) native_ns[j] = cost;
        if ((j > 0 || gspace) && !Chainable(d->name)) continue;
        if (cost < ns) {
          ns = cost;
          step.algorithm = d->name;
        }
      }
    } else {
      const double probe = LowbitsProbeNs(q, right.cscan()->t(), constants_);
      const double merge = LowbitsMergeNs(q, constants_);
      step.algorithm = std::string(merge < probe ? kDecodeMergeName : kProbeName);
      ns = std::min(probe, merge);
    }
    if (j == 0 && plan.start_decoded) {
      ns += LowbitsDecodeNs(constants_) * static_cast<double>(n1);
    }
    if (gspace && j + 1 == steps) {
      ns += GspaceResultNs(constants_) * q.est_result;
    }
    step.left_size = q.small_size;
    step.right_size = q.large_size;
    step.left_estimated = j > 0;
    step.est_result = q.est_result;
    step.predicted_micros = ns * 1e-3;
    chain_total += ns;
    native_total += native_ns[j];
    est_left = q.est_result;
  }
  plan.est_result = est_left;

  // The all-RanGroupScan plan runs as one native k-way call over the scan
  // structures; it replaces the chain unless the chain is cheaper.
  plan.uniform = !gspace && native_total <= chain_total;
  for (std::size_t j = 0; j < steps; ++j) {
    PlanStep& step = plan.steps[j];
    if (plan.uniform) {
      step.algorithm = std::string(kScanName);
      step.predicted_micros = native_ns[j] * 1e-3;
    }
    plan.predicted_micros += step.predicted_micros;
  }
  return plan;
}

void PlannerAlgorithm::Intersect(std::span<const PreprocessedSet* const> sets,
                                 ElemList* out) const {
  ExecutePlan(sets, Plan(sets), /*ordered=*/true, out);
}

void PlannerAlgorithm::IntersectUnordered(
    std::span<const PreprocessedSet* const> sets, ElemList* out) const {
  ExecutePlan(sets, Plan(sets), /*ordered=*/false, out);
}

void PlannerAlgorithm::ExecutePlan(
    std::span<const PreprocessedSet* const> sets, const QueryPlan& plan,
    bool ordered, ElemList* out) const {
  if (sets.empty()) return;
  const PlannedSet& first = As<PlannedSet>(*sets[plan.order[0]]);
  if (first.size() == 0) return;
  if (plan.uniform) {
    std::vector<const PreprocessedSet*> views;
    views.reserve(sets.size());
    for (const PreprocessedSet* s : sets) {
      views.push_back(As<PlannedSet>(*s).scan());
    }
    if (ordered) {
      scan_.Intersect(views, out);
    } else {
      scan_.IntersectUnordered(views, out);
    }
    return;
  }

  // The chain.  The running candidates ascend: document ids, or g-values
  // when an input is compressed (a plain input then contributes its
  // ScanSet array).  They start as the smallest input's array (zero-copy),
  // its decode into *out when it is compressed, or the result of a
  // RanGroupScan first step; every step keeps those present in the next
  // input, so after it they live in *out.
  const bool gspace = plan.compressed_inputs > 0;
  auto operand = [gspace](const PlannedSet& p) {
    return gspace ? As<ScanSet>(*p.scan()).gvals() : p.elems();
  };
  std::span<const Elem> current;
  std::size_t j = 0;
  if (!first.has_plain()) {
    out->resize(first.size());
    cscan_.DecodeGvals(*first.cscan(), out->data());
    current = *out;
  } else if (!plan.steps.empty() && plan.steps[0].algorithm == kScanName) {
    const PreprocessedSet* views[2] = {
        first.scan(), As<PlannedSet>(*sets[plan.order[1]]).scan()};
    scan_.Intersect(std::span<const PreprocessedSet* const>(views, 2), out);
    current = *out;
    j = 1;
  } else {
    current = operand(first);
  }
  ElemList next;
  for (; j + 1 < sets.size() && !current.empty(); ++j) {
    const PlannedSet& p = As<PlannedSet>(*sets[plan.order[j + 1]]);
    const std::string_view step = plan.steps[j].algorithm;
    if (step == kProbeName) {
      if (current.data() != out->data()) out->resize(current.size());
      out->resize(cscan_.FilterGvals(*p.cscan(), current, out->data()));
    } else {
      std::span<const Elem> right;
      if (p.has_plain()) {
        right = operand(p);
      } else {
        // LowbitsMerge; per-thread decode buffer, grown to the largest
        // merged set.
        thread_local ElemList decoded;
        if (decoded.size() < p.size()) decoded.resize(p.size());
        cscan_.DecodeGvals(*p.cscan(), decoded.data());
        right = std::span<const Elem>(decoded.data(), p.size());
      }
      if (step == kSvsName) {
        // Filters in place when the candidates live in *out.
        if (current.data() != out->data()) out->resize(current.size());
        out->resize(kernels_->intersect_skewed(current.data(), current.size(),
                                               right.data(), right.size(),
                                               out->data()));
      } else {
        // Straight into *out unless the candidates live there.
        ElemList* dst = current.data() == out->data() ? &next : out;
        dst->clear();
        kernels_->intersect_pair(current.data(), current.size(), right.data(),
                                 right.size(), dst);
        if (dst == &next) out->swap(next);
      }
    }
    current = *out;
  }
  if (current.data() != out->data()) {
    out->assign(current.begin(), current.end());
  }
  if (!gspace) return;
  // g^-1 only over the r survivors; document order only when asked for.
  cscan_.InvertGvals(*out);
  if (ordered) SortResults(out);
}

QueryPlan PlanExplicit(const IntersectionAlgorithm& algorithm,
                       std::span<const PreprocessedSet* const> sets,
                       StepCostFn cost) {
  QueryPlan plan;
  plan.planned = false;
  const std::size_t k = sets.size();
  plan.order.resize(k);
  std::iota(plan.order.begin(), plan.order.end(), std::size_t{0});
  std::stable_sort(plan.order.begin(), plan.order.end(),
                   [&](std::size_t i, std::size_t j) {
                     return sets[i]->size() < sets[j]->size();
                   });
  if (k == 0) return plan;
  const std::size_t n1 = sets[plan.order[0]]->size();
  if (n1 == 0) return plan;
  if (k == 1) {
    plan.est_result = static_cast<double>(n1);
    return plan;
  }

  // Built-in constants, deliberately not the calibrated ones: an
  // explicit-spec engine must never trigger the calibration sweep just to
  // annotate its stats.
  const CostConstants constants;

  // Universe estimate: every input is non-empty here, so it is >= 1.
  double universe = 0.0;
  for (const PreprocessedSet* s : sets) {
    universe = std::max(universe, ElemBound(s));
  }

  double est_left = static_cast<double>(n1);
  for (std::size_t j = 1; j < k; ++j) {
    const std::size_t right = sets[plan.order[j]]->size();
    StepCostQuery q;
    q.small_size = static_cast<std::size_t>(std::llround(est_left));
    q.large_size = right;
    q.est_result = std::min(est_left * static_cast<double>(right) / universe,
                            std::min(est_left, static_cast<double>(right)));
    PlanStep step;
    step.algorithm = std::string(algorithm.name());
    step.left_size = q.small_size;
    step.right_size = right;
    step.left_estimated = j > 1;
    step.est_result = q.est_result;
    if (cost != nullptr) {
      step.predicted_micros = cost(q, constants) * 1e-3;
      plan.predicted_micros += step.predicted_micros;
    }
    plan.steps.push_back(std::move(step));
    est_left = q.est_result;
  }
  plan.est_result = est_left;
  return plan;
}

}  // namespace fsi
