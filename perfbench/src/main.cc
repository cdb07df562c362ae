// fsi end-to-end benchmark.
//
//   perfbench --workload <bing_and|bing_compressed|bing_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Generates the fig07 stand-in from the seed, sets the workload's engine
// up kSetupReps times (setup_s is the median), saves and reloads a
// snapshot (restart_s is the median of the reloads), and runs one
// closed-loop client for `--seconds`, checking every result against the
// oracle.  The latency, rate and CPU metrics take each log entry at its
// best pass (see Phase in bench.h); the as-measured whole-phase rate is
// printed too.  Half of the setups and reloads run before the client and
// half after it, and the client runs in kStretches stretches with one
// more reload after each, so the medians span the whole run rather than
// one moment of the host's load.  --trace 1 splits every stretch into an
// untraced half and a half with spans around every call into the
// library, then runs the layer probes, and reports the per-layer metrics
// instead of the end-to-end ones.  The last line of stdout is one JSON
// object: correct, attempted, failed, metrics.  Exits 1 when any operation
// failed.

#include <cpuid.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr std::size_t kLogSize = 2000;
constexpr int kSetupReps = 12;
constexpr int kStretches = 10;

const char* const kEndToEnd[] = {"query_p50_us", "query_p99_us", "qps", "setup_s",
                                 "restart_s", "bytes_per_posting", "cpu_us_per_query"};

const char* const kPerLayer[] = {
    "prepare.calibration_ms", "prepare.build_ms", "planner.plan_us",
    "planner.predicted_within_2x", "planner.vs_best_static", "intersect.exec_us",
    "intersect.scanned_per_result", "intersect.groups_probed", "paper.rgs_vs_merge",
    "paper.rgs_win_share", "simd.intersect_ns_per_elem", "simd.intersect_speedup",
    "simd.decode_ns_per_elem", "simd.decode_speedup", "compressed.set_share",
    "compressed.query_share", "compressed.slowdown", "delta.fill_at_read",
    "delta.fixup_ratio_ordered", "delta.fixup_ratio_unordered", "compaction.cycles",
    "expr.optimize_us", "expr.cache_hit_ratio", "expr.cache_evictions", "expr.repeat_share",
    "serve.shard_max_us", "serve.overhead_us", "serve.shard_imbalance",
    "serve.posting_share_max", "snapshot.load_ms", "snapshot.mapped_MiB",
    "snapshot.zero_copy_share", "trace.overhead_ratio", "trace.query_p50_us",
    "trace.client_self_us", "trace.spans"};

std::string CpuModel() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                     &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, RunOptions* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      o->trace = value == "1";
    } else if (key == "--workdir") {
      o->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

void AddPhaseMetrics(const Phase& ph, double setup_s, double restart_s, double bytes,
                     Metrics* m) {
  m->Set("query_p50_us", ph.P50(), "us");
  m->Set("query_p99_us", ph.P99(), "us");
  m->Set("qps", ph.Qps(), "1/s");
  m->Set("setup_s", setup_s, "s");
  m->Set("restart_s", restart_s, "s");
  m->Set("bytes_per_posting", bytes, "B");
  m->Set("cpu_us_per_query", ph.CpuPerQueryUs(), "us");
}

int Main(int argc, char** argv) {
  RunOptions o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--workdir <dir>]\n");
    return 2;
  }
  if (o.workdir.empty()) o.workdir = ".";
  std::filesystem::create_directories(o.workdir);

  const std::int64_t gen0 = NowNs();
  const Inputs in = MakeInputs(o.seed, kLogSize);
  std::unique_ptr<Workload> w = MakeWorkload(o.workload, in);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  std::printf("# inputs: %zu lists, %zu log entries, generated in %.2f s (not timed)\n",
              in.lists.size(), in.log.size(), static_cast<double>(NowNs() - gen0) * 1e-9);

  Trace trace;
  Trace* tr = o.trace ? &trace : nullptr;
  Tally tally;
  Metrics m;

  const std::string snap = (std::filesystem::path(o.workdir) / ("snapshot-" + o.workload)).string();
  std::vector<double> setups, restarts;
  auto set_up = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) setups.push_back(w->Setup(tr));
    for (int rep = 0; rep < reps; ++rep) restarts.push_back(w->Restart(snap, tr, &tally));
  };
  set_up(kSetupReps / 2);
  const double bytes = w->BytesPerPosting();
  const std::uint64_t fingerprint = w->PlanFingerprint();
  const fsi::SnapshotInfo info = w->LoadInfo();

  Phase warm(in.log.size()), ph(in.log.size()), plain(in.log.size());
  w->Run(std::min(1.0, 0.1 * o.seconds), nullptr, &tally, &warm);  // discarded
  // The timed phase runs in stretches with a reload between them, so the
  // reloads sample the host's load over the whole run.  The traced run
  // gives each stretch's first half to the untraced phase.
  for (int stretch = 0; stretch < kStretches; ++stretch) {
    const double seconds = o.seconds / kStretches;
    if (o.trace) w->Run(seconds / 2, nullptr, &tally, &plain);
    w->Run(o.trace ? seconds / 2 : seconds, tr, &tally, &ph);
    restarts.push_back(w->Restart(snap, tr, &tally));
  }
  set_up(kSetupReps - kSetupReps / 2);

  if (!o.trace) {
    AddPhaseMetrics(ph, Median(setups), Median(restarts), bytes, &m);
  } else {
    const double traced_p50 = ph.P50();
    double self_ns[kSpanCount];
    std::size_t count[kSpanCount];
    trace.SelfTimes(self_ns, count);
    std::vector<double> prepare_ms, load_ms;
    for (const Span& s : trace.spans()) {
      const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      if (s.name == kSpanPrepare) prepare_ms.push_back(ms);
      if (s.name == kSpanLoad) load_ms.push_back(ms);
    }
    auto per_span_us = [&](SpanName n) {
      return count[n] > 0 ? self_ns[n] * 1e-3 / static_cast<double>(count[n]) : 0.0;
    };
    m.Set("prepare.build_ms", Median(prepare_ms), "ms");
    m.Set("snapshot.load_ms", Median(load_ms), "ms");
    m.Set("snapshot.mapped_MiB", static_cast<double>(info.mapped_bytes) / (1 << 20), "MiB");
    m.Set("snapshot.zero_copy_share",
          static_cast<double>(info.sets_zero_copy) / static_cast<double>(std::max<std::size_t>(1, info.sets_total)),
          "ratio");
    m.Set("trace.overhead_ratio", traced_p50 / plain.P50(), "ratio");
    m.Set("trace.query_p50_us", traced_p50, "us");
    m.Set("trace.client_self_us", per_span_us(kSpanQuery), "us");
    m.Set("trace.spans", static_cast<double>(trace.spans().size()), "count");
    m.Set("planner.plan_us", per_span_us(kSpanPlan), "us");
    m.Set("intersect.exec_us", per_span_us(kSpanTerminal), "us");
    const std::string csv = (std::filesystem::path(o.workdir) / ("trace-" + o.workload + ".csv")).string();
    if (!trace.WriteCsv(csv)) std::fprintf(stderr, "cannot write %s\n", csv.c_str());
    std::printf("# spans: %zu written to %s\n# self time per span:", trace.spans().size(), csv.c_str());
    for (int n = 0; n < kSpanCount; ++n) {
      if (count[n] > 0) {
        std::printf(" %s %.3f us (x%zu)", SpanNameString(static_cast<SpanName>(n)),
                    per_span_us(static_cast<SpanName>(n)), count[n]);
      }
    }
    std::printf("\n");

    w->Probe(&m);
    ProbeCalibration(&m);
    ProbePaper(in, &m, &tally);
    const std::vector<int> widths = ProbeCompressed(in, w->budget(), &m, &tally);
    ProbeSimd(in, widths, &m);
    ProbeDelta(in, &m, &tally);
    const ServeLog serve_log = MakeServeLog(in);
    ProbeServe(in, serve_log, &m, &tally);
    ProbeOptimize(in, serve_log, &m);
  }
  for (const auto& entry : std::filesystem::directory_iterator(o.workdir)) {
    if (entry.path().filename().string().rfind("snapshot-" + o.workload, 0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }

  // Human-readable lines, then the record, then the result.
  const double failed_frac =
      static_cast<double>(tally.failed) / static_cast<double>(std::max<std::uint64_t>(1, tally.attempted));
  std::printf("# workload %s  seed %" PRIu64 "  queries %zu over %zu log entries, %.2f passes  "
              "(p50/p99 of the entries' best latencies; p99 has %zu entries beyond it)\n",
              o.workload.c_str(), o.seed, ph.queries(), ph.entries(),
              static_cast<double>(ph.queries()) / static_cast<double>(in.log.size()),
              ph.entries() / 100);
  std::printf("# as measured over the whole phase: %.1f qps, %.2f us process CPU per query\n",
              ph.RawQps(), ph.RawCpuPerQueryUs());
  if (!ph.write_us.empty()) {
    std::printf("# write_p50_us %.3f us  write_p99_us %.3f us  (%zu writes)\n",
                Percentile(ph.write_us, 0.5), Percentile(ph.write_us, 0.99), ph.write_us.size());
  }
  std::printf("# setup reps (s):");
  for (double v : setups) std::printf(" %.4f", v);
  std::printf("\n# restart reps (s):");
  for (double v : restarts) std::printf(" %.4f", v);
  std::printf("\n");
  std::printf("# failed_frac %.6f ratio  (%" PRIu64 " of %" PRIu64 " ops)\n", failed_frac,
              tally.failed, tally.attempted);
  std::printf("# plan_fingerprint %016" PRIx64 "\n", fingerprint);

  const fsi::PlannerCalibration& cal = fsi::PlannerCalibration::Process();
  const char* cal_file = std::getenv("FSI_PLANNER_CALIBRATION");
  std::printf(
      "record {\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d, \"cpu\": \"%s\", "
      "\"simd\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"calibration_source\": \"%s\", \"calibration_file\": \"%s\", "
      "\"k_share\": {\"2\": %.4f, \"3\": %.4f, \"4\": %.4f, \"5\": %.4f}, "
      "\"serve.posting_share_max\": %.6f, %s, \"plan_fingerprint\": \"%016" PRIx64 "\", "
      "\"query_samples\": %zu, \"write_samples\": %zu, \"failed_frac\": %.6f}\n",
      o.workload.c_str(), o.seed, o.trace ? 1 : 0, JsonEscape(CpuModel()).c_str(),
      std::string(fsi::simd::LevelName(fsi::simd::ActiveLevel())).c_str(),
      std::thread::hardware_concurrency(), JsonEscape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      cal.source.c_str(), JsonEscape(cal_file ? cal_file : "").c_str(), in.k_share[0],
      in.k_share[1], in.k_share[2], in.k_share[3],
      PostingShareMax(in), w->RecordFields().c_str(),
      fingerprint, ph.queries(), ph.write_us.size(), failed_frac);

  std::string metrics;
  auto emit = [&](const char* name) {
    char buf[256];
    const Metric& metric = m.Get(name);
    std::printf("# %-30s %.6g %s\n", name, metric.value, metric.unit.c_str());
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, metric.value, metric.unit.c_str());
    metrics += buf;
  };
  if (o.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed, metrics.c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
