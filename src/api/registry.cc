#include "api/registry.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "api/planner.h"
#include "baseline/adaptive.h"
#include "baseline/baeza_yates.h"
#include "baseline/bpp.h"
#include "baseline/compressed_baselines.h"
#include "baseline/hash_intersect.h"
#include "baseline/lookup.h"
#include "baseline/merge.h"
#include "baseline/skip_list_intersect.h"
#include "baseline/small_adaptive.h"
#include "baseline/svs.h"
#include "core/compressed_scan.h"
#include "core/int_group.h"
#include "core/intersector.h"
#include "core/ran_group.h"
#include "core/ran_group_scan.h"
#include "simd/intersect_kernels.h"

namespace fsi {

namespace {

struct ParsedSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> kv;
};

ParsedSpec ParseSpec(std::string_view spec) {
  ParsedSpec parsed;
  std::string_view::size_type colon = spec.find(':');
  parsed.name = std::string(spec.substr(0, colon));
  if (parsed.name.empty()) {
    throw std::invalid_argument("AlgorithmRegistry: empty algorithm name");
  }
  if (colon == std::string_view::npos) return parsed;
  std::string_view rest = spec.substr(colon + 1);
  while (!rest.empty()) {
    std::string_view::size_type comma = rest.find(',');
    std::string_view item = rest.substr(0, comma);
    rest = (comma == std::string_view::npos) ? std::string_view()
                                             : rest.substr(comma + 1);
    if (item.empty()) continue;
    std::string_view::size_type eq = item.find('=');
    std::string_view key = item.substr(0, eq);
    // A bare key is shorthand for key=1 (flag style: "memoize").
    std::string_view value =
        (eq == std::string_view::npos) ? std::string_view("1")
                                       : item.substr(eq + 1);
    if (key.empty()) {
      throw std::invalid_argument(parsed.name +
                                  ": empty option key in spec '" +
                                  std::string(spec) + "'");
    }
    parsed.kv.emplace_back(std::string(key), std::string(value));
  }
  return parsed;
}

std::uint64_t ParseUint64(const AlgorithmOptions& /*ctx*/,
                          std::string_view key, std::string_view value,
                          std::string_view algorithm) {
  std::string buf(value);
  char* end = nullptr;
  unsigned long long v = std::strtoull(buf.c_str(), &end, 0);
  if (end == buf.c_str() || *end != '\0') {
    throw std::invalid_argument(std::string(algorithm) + ": option '" +
                                std::string(key) + "' expects an integer, got '" +
                                buf + "'");
  }
  return static_cast<std::uint64_t>(v);
}

/// Consumes the shared "simd" option key (auto|off; also on/1/scalar/0),
/// defaulting to the CPU-dispatched kernels.
simd::Mode TakeSimd(AlgorithmOptions& o) {
  std::optional<std::string_view> raw = o.Take("simd");
  if (!raw) return simd::Mode::kAuto;
  try {
    return simd::ParseMode(*raw);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(std::string(o.algorithm()) +
                                ": option 'simd' expects auto|off, got '" +
                                std::string(*raw) + "'");
  }
}

}  // namespace

void AlgorithmOptions::BadValue(std::string_view key, std::string_view value,
                                std::string_view expected) const {
  throw std::invalid_argument(algorithm_ + ": option '" + std::string(key) +
                              "' expects " + std::string(expected) +
                              ", got '" + std::string(value) + "'");
}

std::optional<std::string_view> AlgorithmOptions::Take(std::string_view key) {
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    if (kv_[i].first == key) {
      consumed_[i] = true;
      return std::string_view(kv_[i].second);
    }
  }
  return std::nullopt;
}

int AlgorithmOptions::TakeInt(std::string_view key, int def) {
  std::optional<std::string_view> raw = Take(key);
  if (!raw) return def;
  std::string buf(*raw);
  char* end = nullptr;
  long v = std::strtol(buf.c_str(), &end, 0);
  if (end == buf.c_str() || *end != '\0') BadValue(key, *raw, "an integer");
  return static_cast<int>(v);
}

std::size_t AlgorithmOptions::TakeSize(std::string_view key, std::size_t def) {
  std::optional<std::string_view> raw = Take(key);
  if (!raw) return def;
  std::string buf(*raw);
  char* end = nullptr;
  unsigned long long v = std::strtoull(buf.c_str(), &end, 0);
  if (end == buf.c_str() || *end != '\0' || buf[0] == '-') {
    BadValue(key, *raw, "a non-negative integer");
  }
  return static_cast<std::size_t>(v);
}

double AlgorithmOptions::TakeDouble(std::string_view key, double def) {
  std::optional<std::string_view> raw = Take(key);
  if (!raw) return def;
  std::string buf(*raw);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str() || *end != '\0') BadValue(key, *raw, "a number");
  return v;
}

bool AlgorithmOptions::TakeBool(std::string_view key, bool def) {
  std::optional<std::string_view> raw = Take(key);
  if (!raw) return def;
  std::string_view v = *raw;
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  BadValue(key, v, "a boolean (0/1/true/false/on/off)");
}

std::vector<std::string_view> AlgorithmOptions::UnconsumedKeys() const {
  std::vector<std::string_view> keys;
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    if (!consumed_[i]) keys.push_back(kv_[i].first);
  }
  return keys;
}

AlgorithmRegistry& AlgorithmRegistry::Global() {
  static AlgorithmRegistry* registry = [] {
    auto* r = new AlgorithmRegistry();

    // --- The Section 4 cast (uncompressed), in its historical listing
    // order (Names(/*compressed=*/false, false)). --------------------------
    r->Register({.name = "Merge",
                 .options_help = "simd=auto|off",
                 .cost = &MergeIntersection::StepCost,
                 .make = [](AlgorithmOptions& o) {
                   return std::make_unique<MergeIntersection>(TakeSimd(o));
                 }});
    r->Register({.name = "SkipList",
                 .make = [](AlgorithmOptions& o) {
                   return std::make_unique<SkipListIntersection>(o.seed());
                 }});
    r->Register({.name = "Hash",
                 .make = [](AlgorithmOptions& o) {
                   return std::make_unique<HashIntersection>(o.seed());
                 }});
    r->Register({.name = "BPP",
                 .max_query_sets = 2,
                 .make = [](AlgorithmOptions& o) {
                   return std::make_unique<BppIntersection>(o.seed());
                 }});
    r->Register({.name = "Lookup",
                 .options_help = "bucket=<power of two>",
                 .make = [](AlgorithmOptions& o) {
                   return std::make_unique<LookupIntersection>(
                       o.TakeInt("bucket", 32));
                 }});
    r->Register({.name = "SvS",
                 .options_help = "simd=auto|off",
                 .cost = &SvsIntersection::StepCost,
                 .make = [](AlgorithmOptions& o) {
                   return std::make_unique<SvsIntersection>(TakeSimd(o));
                 }});
    r->Register({.name = "Adaptive",
                 .make = [](AlgorithmOptions&) {
                   return std::make_unique<AdaptiveIntersection>();
                 }});
    r->Register({.name = "BaezaYates",
                 .options_help = "simd=auto|off",
                 .make = [](AlgorithmOptions& o) {
                   return std::make_unique<BaezaYatesIntersection>(TakeSimd(o));
                 }});
    r->Register({.name = "SmallAdaptive",
                 .make = [](AlgorithmOptions&) {
                   return std::make_unique<SmallAdaptiveIntersection>();
                 }});
    r->Register({.name = "IntGroup",
                 .max_query_sets = 2,
                 .options_help = "s=<group size>,simd=auto|off",
                 .make = [](AlgorithmOptions& o) {
                   IntGroupIntersection::Options opts;
                   opts.seed = o.seed();
                   opts.group_size = o.TakeSize("s", opts.group_size);
                   opts.simd = TakeSimd(o);
                   return std::make_unique<IntGroupIntersection>(opts);
                 }});
    r->Register({.name = "RanGroup",
                 .options_help = "two_set_optimal=<bool>,single_resolution=<bool>",
                 .make = [](AlgorithmOptions& o) {
                   RanGroupIntersection::Options opts;
                   opts.seed = o.seed();
                   opts.two_set_optimal =
                       o.TakeBool("two_set_optimal", opts.two_set_optimal);
                   opts.single_resolution =
                       o.TakeBool("single_resolution", opts.single_resolution);
                   return std::make_unique<RanGroupIntersection>(opts);
                 }});
    auto make_scan = [](AlgorithmOptions& o, int default_m) {
      RanGroupScanIntersection::Options opts;
      opts.seed = o.seed();
      opts.m = o.TakeInt("m", default_m);
      opts.group_width = o.TakeSize("w", opts.group_width);
      opts.memoize = o.TakeBool("memoize", opts.memoize);
      opts.simd = TakeSimd(o);
      return std::make_unique<RanGroupScanIntersection>(opts);
    };
    r->Register({.name = "RanGroupScan",
                 .options_help =
                     "m=<images>,w=<group width>,memoize=<bool>,simd=auto|off",
                 .cost = &RanGroupScanIntersection::StepCost,
                 .make = [make_scan](AlgorithmOptions& o) {
                   return make_scan(o, 4);
                 }});
    r->Register({.name = "RanGroupScan2",
                 .options_help =
                     "m=<images>,w=<group width>,memoize=<bool>,simd=auto|off",
                 .hidden = true,  // alias: RanGroupScan with m = 2
                 .cost = &RanGroupScanIntersection::StepCost,
                 .make = [make_scan](AlgorithmOptions& o) {
                   return make_scan(o, 2);
                 }});
    r->Register({.name = "HashBin",
                 .cost = &HashBinIntersection::StepCost,
                 .make = [](AlgorithmOptions& o) {
                   HashBinIntersection::Options opts;
                   opts.seed = o.seed();
                   return std::make_unique<HashBinIntersection>(opts);
                 }});
    r->Register({.name = "Hybrid",
                 .options_help =
                     "skew_threshold=<ratio>,m=<images>,w=<group width>,"
                     "memoize=<bool>,simd=auto|off",
                 .cost = &HybridIntersection::StepCost,
                 .make = [](AlgorithmOptions& o) {
                   HybridIntersection::Options opts;
                   opts.scan.seed = o.seed();
                   opts.scan.m = o.TakeInt("m", opts.scan.m);
                   opts.scan.group_width =
                       o.TakeSize("w", opts.scan.group_width);
                   opts.scan.memoize = o.TakeBool("memoize", opts.scan.memoize);
                   opts.scan.simd = TakeSimd(o);
                   opts.skew_threshold =
                       o.TakeDouble("skew_threshold", opts.skew_threshold);
                   return std::make_unique<HybridIntersection>(opts);
                 }});

    // --- The cost-model planner (api/planner.h): the zero-config default
    // path of fsi::Engine, also reachable as the spec "Planner" or the
    // hidden alias "auto". ------------------------------------------------
    auto make_planner = [](AlgorithmOptions& o) {
      PlannerAlgorithm::Options opts;
      opts.scan.seed = o.seed();
      opts.scan.m = o.TakeInt("m", opts.scan.m);
      opts.scan.group_width = o.TakeSize("w", opts.scan.group_width);
      opts.scan.simd = TakeSimd(o);
      opts.calibration = o.TakeBool("calibration", opts.calibration);
      return std::make_unique<PlannerAlgorithm>(opts);
    };
    r->Register({.name = "Planner",
                 .options_help =
                     "calibration=on|off,m=<images>,w=<group width>,"
                     "simd=auto|off",
                 .make = make_planner});
    r->Register({.name = "auto",
                 .options_help =
                     "calibration=on|off,m=<images>,w=<group width>,"
                     "simd=auto|off",
                 .hidden = true,  // alias for "Planner"
                 .make = make_planner});

    // --- The Section 4.1 cast (compressed structures). --------------------
    r->Register({.name = "Merge_Gamma",
                 .compressed = true,
                 .cost = &CompressedMergeIntersection::StepCost,
                 .make = [](AlgorithmOptions&) {
                   return std::make_unique<CompressedMergeIntersection>(
                       EliasCodec::kGamma);
                 }});
    r->Register({.name = "Merge_Delta",
                 .compressed = true,
                 .cost = &CompressedMergeIntersection::StepCost,
                 .make = [](AlgorithmOptions&) {
                   return std::make_unique<CompressedMergeIntersection>(
                       EliasCodec::kDelta);
                 }});
    r->Register({.name = "Lookup_Gamma",
                 .compressed = true,
                 .cost = &CompressedLookupIntersection::StepCost,
                 .make = [](AlgorithmOptions&) {
                   return std::make_unique<CompressedLookupIntersection>(
                       EliasCodec::kGamma);
                 }});
    r->Register({.name = "Lookup_Delta",
                 .compressed = true,
                 .cost = &CompressedLookupIntersection::StepCost,
                 .make = [](AlgorithmOptions&) {
                   return std::make_unique<CompressedLookupIntersection>(
                       EliasCodec::kDelta);
                 }});
    auto make_compressed_scan = [](AlgorithmOptions& o, ScanCodec codec) {
      CompressedScanIntersection::Options opts;
      opts.seed = o.seed();
      opts.codec = codec;
      opts.m = o.TakeInt("m", opts.m);
      if (opts.m < 1) {
        // The Algorithm-5 scan filters groups on their images.
        throw std::invalid_argument(std::string(o.algorithm()) +
                                    ": m must be >= 1");
      }
      opts.simd = TakeSimd(o);
      return std::make_unique<CompressedScanIntersection>(opts);
    };
    r->Register({.name = "RanGroupScan_Lowbits",
                 .compressed = true,
                 .options_help = "m=<images>,simd=auto|off",
                 .cost = &CompressedScanIntersection::StepCost,
                 .make = [make_compressed_scan](AlgorithmOptions& o) {
                   return make_compressed_scan(o, ScanCodec::kLowbits);
                 }});
    r->Register({.name = "RanGroupScan_Gamma",
                 .compressed = true,
                 .options_help = "m=<images>,simd=auto|off",
                 .cost = &CompressedScanIntersection::StepCost,
                 .make = [make_compressed_scan](AlgorithmOptions& o) {
                   return make_compressed_scan(o, ScanCodec::kGamma);
                 }});
    r->Register({.name = "RanGroupScan_Delta",
                 .compressed = true,
                 .options_help = "m=<images>,simd=auto|off",
                 .cost = &CompressedScanIntersection::StepCost,
                 .make = [make_compressed_scan](AlgorithmOptions& o) {
                   return make_compressed_scan(o, ScanCodec::kDelta);
                 }});
    return r;
  }();
  return *registry;
}

void AlgorithmRegistry::Register(AlgorithmDescriptor descriptor) {
  if (descriptor.name.empty()) {
    throw std::invalid_argument("AlgorithmRegistry: descriptor needs a name");
  }
  if (!descriptor.make) {
    throw std::invalid_argument("AlgorithmRegistry: descriptor '" +
                                descriptor.name + "' needs a factory");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_.contains(std::string_view(descriptor.name))) {
    throw std::invalid_argument("AlgorithmRegistry: duplicate algorithm '" +
                                descriptor.name + "'");
  }
  descriptors_.push_back(std::move(descriptor));
  const AlgorithmDescriptor& stored = descriptors_.back();
  index_.emplace(std::string_view(stored.name), &stored);
}

const AlgorithmDescriptor* AlgorithmRegistry::Find(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : it->second;
}

std::unique_ptr<IntersectionAlgorithm> AlgorithmRegistry::Create(
    std::string_view spec, std::uint64_t seed) const {
  ParsedSpec parsed = ParseSpec(spec);
  const AlgorithmDescriptor* descriptor = Find(parsed.name);
  if (descriptor == nullptr) {
    throw std::invalid_argument(
        "AlgorithmRegistry: unknown algorithm '" + parsed.name +
        "' (run intersect_cli --list for the registered names)");
  }
  AlgorithmOptions options(parsed.name, seed, std::move(parsed.kv));
  if (std::optional<std::string_view> s = options.Take("seed")) {
    options.seed_ = ParseUint64(options, "seed", *s, parsed.name);
  }
  std::unique_ptr<IntersectionAlgorithm> algorithm = descriptor->make(options);
  std::vector<std::string_view> leftover = options.UnconsumedKeys();
  if (!leftover.empty()) {
    std::string message = parsed.name + ": unknown option '" +
                          std::string(leftover.front()) + "'";
    message += descriptor->options_help.empty()
                   ? " (this algorithm takes only 'seed')"
                   : " (supported: seed=<int>," + descriptor->options_help +
                         ")";
    throw std::invalid_argument(message);
  }
  return algorithm;
}

std::vector<std::string_view> AlgorithmRegistry::Names(
    bool include_hidden) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string_view> names;
  names.reserve(descriptors_.size());
  for (const AlgorithmDescriptor& d : descriptors_) {
    if (d.hidden && !include_hidden) continue;
    names.emplace_back(d.name);
  }
  return names;
}

std::vector<std::string_view> AlgorithmRegistry::Names(
    bool compressed, bool include_hidden) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string_view> names;
  for (const AlgorithmDescriptor& d : descriptors_) {
    if (d.compressed != compressed) continue;
    if (d.hidden && !include_hidden) continue;
    names.emplace_back(d.name);
  }
  return names;
}

std::vector<const AlgorithmDescriptor*> AlgorithmRegistry::Descriptors(
    bool include_hidden) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const AlgorithmDescriptor*> out;
  out.reserve(descriptors_.size());
  for (const AlgorithmDescriptor& d : descriptors_) {
    if (d.hidden && !include_hidden) continue;
    out.push_back(&d);
  }
  return out;
}

}  // namespace fsi
