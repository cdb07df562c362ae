// Cold-start: preparing an engine from raw lists vs mmap-loading a saved
// snapshot (docs/PERSISTENCE.md).
//
// "coldstart/prepare" is what a process restart costs without
// persistence: pre-process every list into its structure (the planner's
// startup calibration is disabled so the comparison isolates structure
// construction — with calibration the gap is larger still).
// "coldstart/load" is Engine::LoadSnapshot on the same image: validate
// the header, CRC the sections, alias the flat arrays straight out of
// the mapping.  CI gates the ratio (bench_summary.py's
// cold_start_speedup, threshold in scripts/bench_gates.py).  "coldstart/prepare_mutable" and
// "coldstart/load_mutable" are the same pair over the same lists through
// PrepareMutable: a loaded mutable set's base views its structure's mapped
// elements, so its load is as cheap as an immutable one (reported, not
// gated).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace {

using namespace fsi;
using namespace fsi::bench;

// Calibration-free planner spec: both sides build/load the same
// structures, and the prepare side is not billed for the one-off
// planner measurement.
constexpr const char kSpec[] = "Planner:calibration=off";

std::size_t NumLists() { return FullScale() ? 64 : 32; }
std::size_t ListSize() { return FullScale() ? 1 << 20 : 1 << 17; }

const std::vector<ElemList>& Lists() {
  static const std::vector<ElemList>* lists = [] {
    Xoshiro256 rng(0xC01D57A27ULL);
    auto* out = new std::vector<ElemList>;
    for (std::size_t i = 0; i < NumLists(); ++i) {
      out->push_back(SampleSortedSet(
          ListSize(), 8 * static_cast<std::uint64_t>(ListSize()), rng));
    }
    return out;
  }();
  return *lists;
}

std::string TmpSnapshotPath() {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/fsi_coldstart.snap";
}

/// Every list through `engine`: Prepare, or PrepareMutable when `mutable_sets`.
std::vector<PreparedSet> PrepareAll(const Engine& engine, bool mutable_sets) {
  std::vector<PreparedSet> prepared;
  prepared.reserve(Lists().size());
  for (const ElemList& l : Lists()) {
    prepared.push_back(mutable_sets ? engine.PrepareMutable(l)
                                    : engine.Prepare(l));
  }
  return prepared;
}

/// Saved images, indexed by mutable_sets; null until first used.
const std::string* saved_paths[2] = {nullptr, nullptr};

/// The saved image of every list (immutable or mutable sets); written once.
const std::string& SnapshotPath(bool mutable_sets) {
  const std::string*& path = saved_paths[mutable_sets ? 1 : 0];
  if (path == nullptr) {
    auto* p = new std::string(TmpSnapshotPath() +
                              (mutable_sets ? ".mutable" : ""));
    Engine engine(kSpec);
    const std::vector<PreparedSet> prepared = PrepareAll(engine, mutable_sets);
    engine.SaveSnapshot(*p, std::span<const PreparedSet>(prepared));
    path = p;
  }
  return *path;
}

void BM_Prepare(benchmark::State& state, bool mutable_sets) {
  std::size_t elements = 0;
  for (const auto& l : Lists()) elements += l.size();
  for (auto _ : state) {
    Engine engine(kSpec);
    std::vector<PreparedSet> prepared = PrepareAll(engine, mutable_sets);
    benchmark::DoNotOptimize(prepared.data());
  }
  state.counters["sets"] = static_cast<double>(Lists().size());
  state.counters["elements"] = static_cast<double>(elements);
}

void BM_Load(benchmark::State& state, bool mutable_sets) {
  const std::string& path = SnapshotPath(mutable_sets);
  std::size_t mapped = 0;
  std::size_t zero_copy = 0;
  for (auto _ : state) {
    LoadedSnapshot loaded = Engine::LoadSnapshot(path);
    mapped = loaded.info.mapped_bytes;
    zero_copy = loaded.info.sets_zero_copy;
    benchmark::DoNotOptimize(loaded.sets.data());
  }
  state.counters["sets"] = static_cast<double>(Lists().size());
  state.counters["mapped_MiB"] = static_cast<double>(mapped) / (1 << 20);
  state.counters["zero_copy"] = static_cast<double>(zero_copy);
}

void RegisterAll() {
  for (const bool mutable_sets : {false, true}) {
    const std::string suffix = mutable_sets ? "_mutable" : "";
    benchmark::RegisterBenchmark(("coldstart/prepare" + suffix).c_str(),
                                 BM_Prepare, mutable_sets)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(FullScale() ? 1 : 4);
    benchmark::RegisterBenchmark(("coldstart/load" + suffix).c_str(), BM_Load,
                                 mutable_sets)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(FullScale() ? 4 : 16);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  for (const std::string* path : saved_paths) {
    if (path != nullptr) std::remove(path->c_str());
  }
  return 0;
}
