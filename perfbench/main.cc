// locat_perfbench: the end-to-end LOCAT benchmark binary (see README.md).
//
//   locat_perfbench --workload tune-cold|tune-baselines|serve-drift
//                   --seed N --seconds S --trace 0|1
//
// --trace 0 runs one untraced pass and prints the end-to-end metrics;
// --trace 1 runs an untraced and a traced pass, checks that they agree,
// prints the per-layer table and the per-layer metrics. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit code 0 only when every check passed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "math/kern/kern.h"
#include "obs/trace.h"

extern char** environ;

namespace perfbench {
namespace {

/// setup_s: kSetupBlocks blocks of set-ups (Workload::Prepare and the
/// pass's destruction), the first kSetupBlocksBefore before the passes and
/// the rest after them, so they sample the host at both ends of the run. A
/// block repeats whole set-ups until it has lasted kSetupBlockSeconds and
/// is timed as one unit; setup_s is the median block's time per set-up.
/// One set-up takes well under a millisecond on the tune workloads, too
/// short to time steadily on its own. The first block also pays the
/// process's first heap growth; the median leaves it out.
constexpr int kSetupBlocks = 9;
constexpr int kSetupBlocksBefore = 5;
constexpr double kSetupBlockSeconds = 0.2;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*value == '\0' || *end != '\0' || args->seconds < 1) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] - '0';
    } else {
      return false;
    }
  }
  return !args->workload.empty() && have_seed && args->seconds > 0 &&
         args->trace >= 0;
}

/// Measures the shipped program: every LOCAT_* knob (GP mode, SIMD level,
/// simulator engine and cache, cache directory) is unset before anything
/// reads it.
void PinShippedDefaults() {
  std::vector<std::string> knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("LOCAT_", 0) == 0) {
      knobs.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& knob : knobs) ::unsetenv(knob.c_str());
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::vector<Metric>;

void PrintResult(bool correct, int attempted, int failed,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

/// Counts the outcomes of `pass` that differ from those of `ref`.
int CompareOutcomes(const PassResult& ref, const PassResult& pass,
                    const char* what, std::vector<std::string>* problems) {
  if (pass.outcomes.size() != ref.outcomes.size()) {
    problems->push_back(std::string(what) + ": different outcome count");
    return 1;
  }
  int mismatches = 0;
  for (size_t i = 0; i < ref.outcomes.size(); ++i) {
    if (pass.outcomes[i] != ref.outcomes[i]) {
      ++mismatches;
      problems->push_back(std::string(what) + ": " + ref.outcomes[i].first +
                          " differs from the first pass");
    }
  }
  return mismatches;
}

/// Per-layer metric names and units, in output order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"traced.wall_s", "s"},
    {"dagp.refits", "count"},
    {"dagp.refit_s", "s"},
    {"dagp.n_max", "count"},
    {"dagp.refit_s.n_lt64", "s"},
    {"dagp.refit_s.n_64_127", "s"},
    {"dagp.refit_s.n_128_239", "s"},
    {"dagp.refit_s.n_ge240", "s"},
    {"mcmc.density_evals", "count"},
    {"acq.s", "s"},
    {"acq.candidates", "count"},
    {"qcsa.s", "s"},
    {"iicp.s", "s"},
    {"rqa.query_share", "share"},
    {"session.evals", "count"},
    {"session.failed_evals", "count"},
    {"session.s", "s"},
    {"sim.runs", "count"},
    {"sim.query_runs", "count"},
    {"sim.s", "s"},
    {"baselines.model_s", "s"},
    {"tune.self_s", "s"},
    {"measure.s", "s"},
    {"registry.lookups", "count"},
    {"registry.hit_ratio", "share"},
    {"registry.coalesced", "count"},
    {"registry.evictions", "count"},
    {"registry.warm_starts", "count"},
    {"registry.report_p50_us", "us"},
    {"registry.report_p99_us", "us"},
    {"registry.tick_s", "s"},
    {"service.tuning_passes", "count"},
    {"service.failed_reports", "count"},
    {"obs.trace_overhead", "share"},
    {"gen.sim_s", "s"},
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: locat_perfbench --workload "
                 "tune-cold|tune-baselines|serve-drift --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  PinShippedDefaults();
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::unique_ptr<Workload> workload;
  if (args.workload == "tune-cold") {
    workload = MakeTuneWorkload(false, args.seed);
  } else if (args.workload == "tune-baselines") {
    workload = MakeTuneWorkload(true, args.seed);
  } else if (args.workload == "serve-drift") {
    workload = MakeServeWorkload(args.seed);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  // Lazy process-wide set-up (SIMD dispatch, the tuner thread pool) runs
  // here, before anything is timed.
  std::printf("# perfbench workload=%s seed=%llu seconds=%d trace=%d "
              "build=%s simd=%s tuner_pool=%d nproc=%u\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, PERFBENCH_BUILD_TYPE,
              locat::math::kern::ActiveBackendName(),
              locat::common::ThreadPool::Global()->num_threads(),
              std::thread::hardware_concurrency());

  std::vector<double> setups;
  auto time_setups = [&workload, &setups](int blocks) {
    for (int b = 0; b < blocks; ++b) {
      const Clock::time_point t0 = Clock::now();
      int n = 0;
      double elapsed = 0.0;
      do {
        workload->Prepare();
        ++n;
        elapsed = SecondsSince(t0);
      } while (elapsed < kSetupBlockSeconds);
      setups.push_back(elapsed / n);
    }
  };
  time_setups(kSetupBlocksBefore);

  // Untraced passes of the fixed work, each from a fresh set-up. Another
  // pass starts only while one as long as the longest so far still ends
  // within --seconds, so a run lasts about --seconds (at least one pass).
  // Every repeat must reproduce the first pass's outcomes exactly.
  const locat::obs::ObsContext untraced;
  std::vector<PassResult> passes;
  const Clock::time_point start = Clock::now();
  double longest_pass_s = 0.0;
  do {
    const Clock::time_point p0 = Clock::now();
    passes.push_back(workload->Prepare()->Run(untraced));
    longest_pass_s = std::max(longest_pass_s, SecondsSince(p0));
  } while (SecondsSince(start) + longest_pass_s <= args.seconds);
  time_setups(kSetupBlocks - kSetupBlocksBefore);

  std::printf("# set-up blocks (ms per set-up):");
  for (double v : setups) std::printf(" %.4f", v * 1e3);
  std::printf("\n");

  const PassResult& first = passes.front();
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;
  std::vector<double> walls;
  std::vector<double> fast_s;
  std::vector<double> slow_s;
  auto absorb = [&](const PassResult& pass, const char* what) {
    attempted += pass.attempted;
    failed += pass.failed;
    problems.insert(problems.end(), pass.problems.begin(),
                    pass.problems.end());
    failed += CompareOutcomes(first, pass, what, &problems);
  };
  for (const PassResult& pass : passes) {
    absorb(pass, "repeated pass");
    walls.push_back(pass.wall_s);
    fast_s.insert(fast_s.end(), pass.fast_s.begin(), pass.fast_s.end());
    slow_s.insert(slow_s.end(), pass.slow_s.begin(), pass.slow_s.end());
  }
  const double wall_s = Quantile(walls, 0.5);
  std::printf("# tune-op quantiles (ms):");
  for (double q : {0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99}) {
    std::printf(" p%.0f=%.2f", q * 100, Quantile(slow_s, q) * 1e3);
  }
  std::printf("\n");
  std::printf("# passes=%zu samples: fast=%zu tune=%zu speedup=%zu opt=%zu; "
              "pass walls (s):",
              passes.size(), fast_s.size(), slow_s.size(),
              first.speedups.size(), first.opt_seconds.size());
  for (double w : walls) std::printf(" %.3f", w);
  std::printf("\n");

  // The centre of the fast and tune samples. On serve-drift it is their
  // median. On tune-* there is one sample per cell, and the cells' times
  // differ up to a hundredfold between tuners and apps, in clusters with
  // gaps between them: a median over cells sat in such a gap and jumped
  // between two tuner families when two cells swapped places (on
  // tune-baselines its spread over ten seeds reached 0.36 of the median).
  // There it is the geomean over cells, which every cell moves a little.
  const bool per_cell = args.workload != "serve-drift";
  auto centre = [per_cell](const std::vector<double>& samples) {
    return per_cell ? Geomean(samples) : Quantile(samples, 0.5);
  };

  Metrics metrics;
  if (args.trace == 0) {
    const double ok_frac =
        attempted > 0 ? 1.0 - static_cast<double>(failed) / attempted : 0.0;
    metrics = {
        {"setup_s", Quantile(setups, 0.5), "s"},
        {"wall_s", wall_s, "s"},
        {"opt_sim_h", Geomean(first.opt_seconds) / 3600.0, "h"},
        {"speedup", Geomean(first.speedups), "x"},
        {"fast_p50_us", centre(fast_s) * 1e6, "us"},
        {"fast_p90_us", Quantile(fast_s, 0.90) * 1e6, "us"},
        {"tune_p50_ms", centre(slow_s) * 1e3, "ms"},
        {"tune_p90_ms", Quantile(slow_s, 0.90) * 1e3, "ms"},
        {"ok_frac", ok_frac, "share"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    locat::obs::Tracer tracer;
    LayerObserver observer;
    locat::obs::ObsContext ctx;
    ctx.tracer = &tracer;
    ctx.observer = &observer;
    const PassResult traced = workload->Prepare()->Run(ctx);
    // The hooks are observational: the traced pass must agree exactly.
    absorb(traced, "traced pass");
    const LayerReport report =
        AnalyzeLayers(tracer.snapshot(), observer, traced, wall_s);
    std::fputs(report.table.c_str(), stdout);
    for (const LayerMetric& lm : kLayerMetrics) {
      const auto it = report.metrics.find(lm.name);
      metrics.push_back(
          {lm.name, it != report.metrics.end() ? it->second : 0.0, lm.unit});
    }
  }

  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
