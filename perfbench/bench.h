// Shared types of the end-to-end LOCAT benchmark (see README.md).
//
// A workload is prepared (its inputs built from the workload seed; this is
// what setup_s times) and then run as one pass. A pass drives the
// program's public entry points, times those calls itself and checks what
// they return. A traced pass additionally wires an obs::Tracer and a
// TunerObserver through the program's existing hooks; the per-layer
// numbers come from the spans and events those hooks emit.
#ifndef LOCAT_PERFBENCH_BENCH_H_
#define LOCAT_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "math/stats.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// math::Quantile (linear interpolation, q in [0, 1]); 0 for an empty
/// sample.
inline double Quantile(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : locat::math::Quantile(values, q);
}

/// Geometric mean of strictly positive values; 0 for an empty sample.
double Geomean(const std::vector<double>& values);

/// FNV-1a over the bit patterns of doubles, for exact cross-pass checks.
class Digest {
 public:
  void Add(double v);
  void Add(const std::string& s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Sums of the per-iteration and per-phase events LOCAT's observer hook
/// emits during a traced pass.
class LayerObserver : public locat::obs::TunerObserver {
 public:
  void OnIteration(const locat::obs::BoIterationEvent& event) override;
  void OnPhase(const locat::obs::PhaseEvent& event) override;

  double acq_seconds = 0.0;
  double proposals = 0.0;   // iterations that scored a candidate pool
  double candidates = 0.0;
  double csq_queries = 0.0;    // configuration-sensitive (RQA) queries
  double total_queries = 0.0;  // csq + ciq over every QCSA analysis

 private:
  std::string last_phase_;
  int last_iteration_ = -1;
};

/// A stream seed derived from the workload seed and a tag, so every
/// simulator and tuner gets its own stream.
uint64_t Mix(uint64_t seed, const std::string& tag);

/// Everything one pass of a workload produces.
struct PassResult {
  double wall_s = 0.0;           // host time of the workload's fixed work
  std::vector<double> fast_s;    // lookups that ran no tuning pass, or
                                 // a Tune call's seconds per evaluation
  std::vector<double> slow_s;    // operations that waited for a tuning pass
  std::vector<double> speedups;  // default / tuned (or served) seconds
  std::vector<double> opt_seconds;  // simulated optimization seconds
  int attempted = 0;
  int failed = 0;  // operations that errored or failed a check
  std::vector<std::string> problems;

  /// Exact per-unit results (a tune cell, or the whole served-conf
  /// stream) compared between the untraced and the traced pass.
  std::vector<std::pair<std::string, uint64_t>> outcomes;

  // Layer numbers the benchmark times or counts itself.
  double measure_s = 0.0;     // MeasureFinal calls
  int64_t sim_query_runs = 0;       // query runs on the tuning simulators
  int64_t session_evals = 0;
  int64_t session_failed_evals = 0;
  std::vector<double> report_s;  // ReportRun / ReportFailedRun calls
  double tick_s = 0.0;           // AdvanceTick calls
  double gen_sim_s = 0.0;        // the benchmark's own production runs
  std::map<std::string, double> registry;  // GetStats()/AppRows() counters

  void Fail(const std::string& what);
};

/// One pass over prepared inputs. A pass runs once.
class Pass {
 public:
  virtual ~Pass() = default;
  /// `ctx` holds the tracer and observer of a traced pass; it is empty in
  /// an untraced one.
  virtual PassResult Run(const locat::obs::ObsContext& ctx) = 0;
};

/// A named workload: builds a pass's inputs from the workload seed.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::unique_ptr<Pass> Prepare() const = 0;
};

/// "tune-cold" (LOCAT) and "tune-baselines" (the four SOTA baselines).
std::unique_ptr<Workload> MakeTuneWorkload(bool baselines, uint64_t seed);

/// "serve-drift": one client driving a ServiceRegistry.
std::unique_ptr<Workload> MakeServeWorkload(uint64_t seed);

/// Per-layer numbers of a traced pass, keyed by metric name, and the
/// printable layer table.
struct LayerReport {
  std::map<std::string, double> metrics;
  std::string table;
};

/// Attributes the traced pass's wall time to layers: span self times
/// (duration minus child spans on the same thread), span counts and
/// arguments, observer sums, and the benchmark's own timings.
LayerReport AnalyzeLayers(const std::vector<locat::obs::TraceEvent>& spans,
                          const LayerObserver& observer,
                          const PassResult& traced, double untraced_wall_s);

}  // namespace perfbench

#endif  // LOCAT_PERFBENCH_BENCH_H_
