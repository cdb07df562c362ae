// The algorithm registry: descriptor-based construction by name.
//
// Every intersection algorithm in the library registers one
// AlgorithmDescriptor — its paper name, whether it operates on compressed
// structures, its query-arity limit, and a factory that understands the
// algorithm's option keys.  Algorithms are then instantiated from a *spec*
// string
//
//   "RanGroupScan"               defaults
//   "RanGroupScan:m=2,w=4"       2 hash images, expected group width 4
//   "Hybrid:skew_threshold=32"   restore the paper's online choice
//   "IntGroup:s=16,seed=42"      wider groups, explicit seed
//
// so benchmarks, tests and operational tools (intersect_cli --list) can
// sweep configurations without recompiling.  Unknown names and unknown or
// malformed option keys are checked errors (std::invalid_argument), never
// silent fallbacks.
//
// New algorithms self-register: define a descriptor and a file-scope
// AlgorithmRegistrar (or call AlgorithmRegistry::Global().Register()
// directly).

#ifndef FSI_API_REGISTRY_H_
#define FSI_API_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "core/cost.h"

namespace fsi {

/// Parsed options of one algorithm spec, handed to the descriptor factory.
/// Factories *consume* the keys they understand via the Take* getters; the
/// registry rejects the spec if any key is left unconsumed, so option typos
/// surface as errors instead of silently ignored settings.
class AlgorithmOptions {
 public:
  /// The seed for this instantiation: the `seed=` option key when present,
  /// otherwise the seed passed to AlgorithmRegistry::Create.
  std::uint64_t seed() const { return seed_; }

  /// Consumes and returns the raw value of `key`, if present.
  std::optional<std::string_view> Take(std::string_view key);

  /// Typed variants; throw std::invalid_argument on malformed values.
  int TakeInt(std::string_view key, int def);
  std::size_t TakeSize(std::string_view key, std::size_t def);
  double TakeDouble(std::string_view key, double def);
  bool TakeBool(std::string_view key, bool def);

  /// Keys never consumed by a Take* call (registry error reporting).
  std::vector<std::string_view> UnconsumedKeys() const;

  /// Algorithm name the options belong to (error message context).
  std::string_view algorithm() const { return algorithm_; }

 private:
  friend class AlgorithmRegistry;
  AlgorithmOptions(std::string_view algorithm, std::uint64_t seed,
                   std::vector<std::pair<std::string, std::string>> kv)
      : algorithm_(algorithm), seed_(seed), kv_(std::move(kv)),
        consumed_(kv_.size(), false) {}

  [[noreturn]] void BadValue(std::string_view key, std::string_view value,
                             std::string_view expected) const;

  std::string algorithm_;
  std::uint64_t seed_;
  std::vector<std::pair<std::string, std::string>> kv_;
  std::vector<bool> consumed_;
};

/// One registered algorithm.
struct AlgorithmDescriptor {
  /// Registry name, matching the paper's figures (e.g. "RanGroupScan").
  std::string name;
  /// True for the Section 4.1 compressed-structure variants.
  bool compressed = false;
  /// Maximum k the algorithm supports (IntGroup: 2; most: unlimited).
  std::size_t max_query_sets = SIZE_MAX;
  /// Human-readable option-key summary for --list output and error
  /// messages, e.g. "m=<int>,w=<int>,memoize=<bool>".  Empty: no options
  /// beyond "seed".
  std::string options_help;
  /// Aliases (e.g. "RanGroupScan2") are registered hidden: creatable by
  /// name but excluded from the default Names() listing.
  bool hidden = false;
  /// Cost hook for the planner (core/cost.h): predicted nanoseconds for one
  /// pairwise intersection step.  nullptr when the algorithm publishes no
  /// cost model — the planner then never selects it, and intersect_cli
  /// --list shows it without a cost column entry.
  StepCostFn cost = nullptr;
  /// Builds an instance; must consume every option key it supports.
  std::function<std::unique_ptr<IntersectionAlgorithm>(AlgorithmOptions&)>
      make;
};

/// Thread-safe process-wide registry.  Registration only appends;
/// descriptors live for the process lifetime, so the string_views returned
/// by Names() remain valid.
class AlgorithmRegistry {
 public:
  /// The global registry, with every built-in algorithm pre-registered.
  static AlgorithmRegistry& Global();

  /// Registers a descriptor; throws std::invalid_argument on a duplicate
  /// or empty name, or a missing factory.
  void Register(AlgorithmDescriptor descriptor);

  /// Looks up a descriptor by exact name (no option suffix); nullptr when
  /// absent.  The pointer stays valid for the registry's lifetime.
  const AlgorithmDescriptor* Find(std::string_view name) const;

  /// Instantiates an algorithm from a spec string "Name[:k=v[,k=v]...]".
  /// Throws std::invalid_argument for unknown names, unknown option keys
  /// and malformed values.
  std::unique_ptr<IntersectionAlgorithm> Create(
      std::string_view spec,
      std::uint64_t seed = kDefaultAlgorithmSeed) const;

  /// Registered names in registration order; hidden aliases only when
  /// `include_hidden`.
  std::vector<std::string_view> Names(bool include_hidden = false) const;

  /// Names filtered on the compressed flag (the Section 4 / Section 4.1
  /// casts); hidden aliases are always excluded.
  std::vector<std::string_view> Names(bool compressed,
                                      bool include_hidden) const;

  /// Descriptors in registration order (for --list style output).
  std::vector<const AlgorithmDescriptor*> Descriptors(
      bool include_hidden = false) const;

 private:
  mutable std::mutex mutex_;
  std::deque<AlgorithmDescriptor> descriptors_;  // stable addresses
  std::unordered_map<std::string_view, const AlgorithmDescriptor*> index_;
};

/// Registers a descriptor at static-initialization time:
///
///   namespace {
///   const fsi::AlgorithmRegistrar kRegisterMine({
///       .name = "Mine", .make = [](fsi::AlgorithmOptions& o) { ... }});
///   }  // namespace
struct AlgorithmRegistrar {
  explicit AlgorithmRegistrar(AlgorithmDescriptor descriptor) {
    AlgorithmRegistry::Global().Register(std::move(descriptor));
  }
};

}  // namespace fsi

#endif  // FSI_API_REGISTRY_H_
