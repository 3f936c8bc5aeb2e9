// tune-cold and tune-baselines: one cold tune per cell, the cells being
// the five Table-1 apps on both clusters. A cell is Tuner::Tune on a fresh
// simulator and session, then TuningSession::MeasureFinal of the tuned and
// of the default configuration.
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/locat_tuner.h"
#include "core/tuning.h"
#include "harness/experiments.h"
#include "sparksim/simulator.h"

namespace perfbench {
namespace {

using namespace locat;

/// Full-app runs that judge a configuration; the mean of the noisy runs
/// keeps the speedup steady.
constexpr int kJudgeRuns = 20;

const char* const kApps[] = {"TPC-DS", "TPC-H", "Join", "Scan",
                             "Aggregation"};
const char* const kClusters[] = {"arm", "x86"};

/// tune-cold runs the 10-cell grid twice with independent salts: a LOCAT
/// cell's work still depends on its data (slice-sampler steps), and 20
/// cells average that out where 10 did not.
constexpr int kLocatReplicas = 2;

struct CellSpec {
  std::string tuner;
  std::string app;
  std::string cluster;
  double datasize_gb = 0.0;
  int replica = 0;
  uint64_t seed = 0;

  std::string Label() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s/%s/%s/%.0fGB/r%d", tuner.c_str(),
                  app.c_str(), cluster.c_str(), datasize_gb, replica);
    return buf;
  }
};

/// A cell's program objects, built in setup.
struct Cell {
  CellSpec spec;
  std::unique_ptr<sparksim::ClusterSimulator> sim;
  std::unique_ptr<core::TuningSession> session;
  std::unique_ptr<core::Tuner> tuner;
};

/// Judges `conf` with kJudgeRuns uncharged full-app runs; returns their
/// mean simulated seconds (0 when a run failed).
double Judge(core::TuningSession* session, const sparksim::SparkConf& conf,
             double ds, const obs::ObsContext& ctx, PassResult* out,
             const std::string& label) {
  ++out->attempted;
  double sum = 0.0;
  bool ok = true;
  const Clock::time_point t0 = Clock::now();
  {
    obs::ScopedSpan span(ctx.tracer, "bench/measure", "bench");
    for (int r = 0; r < kJudgeRuns; ++r) {
      const sparksim::AppRunResult run = session->MeasureFinal(conf, ds);
      ok = ok && !run.failed && run.total_seconds > 0.0;
      sum += run.total_seconds;
    }
  }
  out->measure_s += SecondsSince(t0);
  if (!ok) {
    out->Fail(label + ": a MeasureFinal run failed");
    return 0.0;
  }
  return sum / kJudgeRuns;
}

/// Each cell's tuner gets its own salt from the workload seed, so cells
/// draw independent proposals (one shared salt makes every cell start from
/// the same Latin-hypercube points and nothing averages across cells).
///
/// The baselines come from harness::MakeTuner; they have fixed budgets.
/// LOCAT is built here, from the shipped LocatTuner::Options with two
/// changes: the cell's salt is the seed, and the EI stop rule always fires
/// at the shipped iteration floor. So every cell runs the reduced-space BO
/// for exactly min_iterations (25) iterations, 58 evaluations, on every
/// seed; with the shipped rule a cell stops anywhere between 58 and 88
/// evaluations, which moved a pass's wall time by a fifth between seeds.
/// max_iterations keeps its shipped value, so the exploit-only switch
/// (at 3/5 of it, iteration 33) is never reached, as in any shipped tune
/// that converges before iteration 33.
std::unique_ptr<core::Tuner> MakeCellTuner(const CellSpec& spec) {
  const uint64_t salt = Mix(spec.seed, "tuner|" + spec.Label());
  if (spec.tuner != "LOCAT") return harness::MakeTuner(spec.tuner, salt);
  core::LocatTuner::Options opts;
  opts.seed = salt;
  opts.ei_stop = std::numeric_limits<double>::infinity();
  return std::make_unique<core::LocatTuner>(opts);
}

class TunePass : public Pass {
 public:
  explicit TunePass(const std::vector<CellSpec>& specs) {
    cells_.reserve(specs.size());
    for (const CellSpec& spec : specs) {
      Cell cell;
      cell.spec = spec;
      cell.sim = std::make_unique<sparksim::ClusterSimulator>(
          harness::MakeCluster(spec.cluster),
          Mix(spec.seed, "sim|" + spec.Label()));
      cell.session = std::make_unique<core::TuningSession>(
          cell.sim.get(), harness::MakeApp(spec.app));
      cell.tuner = MakeCellTuner(spec);
      cells_.push_back(std::move(cell));
    }
  }

  PassResult Run(const obs::ObsContext& ctx) override {
    PassResult out;
    if (ctx.any()) {
      for (Cell& cell : cells_) {
        cell.sim->set_tracer(ctx.tracer);
        cell.session->SetObservability(ctx);
        cell.tuner->SetObservability(ctx);
      }
    }
    const Clock::time_point start = Clock::now();
    for (Cell& cell : cells_) RunCell(&cell, ctx, &out);
    out.wall_s = SecondsSince(start);
    for (const Cell& cell : cells_) {
      out.sim_query_runs += cell.sim->runs_performed();
      out.session_evals += cell.session->evaluations();
      for (const core::EvalRecord& rec : cell.session->history()) {
        if (rec.failed) ++out.session_failed_evals;
      }
    }
    return out;
  }

 private:
  static void RunCell(Cell* cell, const obs::ObsContext& ctx,
                      PassResult* out) {
    const CellSpec& spec = cell->spec;
    const std::string label = spec.Label();
    core::TuningSession* session = cell->session.get();
    const sparksim::ConfigSpace& space = session->space();

    ++out->attempted;
    const Clock::time_point t0 = Clock::now();
    core::TuningResult tr;
    {
      obs::ScopedSpan span(ctx.tracer, "bench/tune", "bench");
      tr = cell->tuner->Tune(session, spec.datasize_gb);
    }
    const double tune_s = SecondsSince(t0);
    out->slow_s.push_back(tune_s);
    // The tuner's overhead per evaluated configuration (the host-side
    // counterpart of Figs 11/12) fills the fast-operation metrics, which
    // tune-* has no lookups for. The judges are not used there: their time
    // is mostly the thread pool waking up for 104-query fan-outs of
    // microsecond tasks, and its run-to-run spread on a shared host
    // reaches the 0.25 bound.
    if (tr.evaluations > 0) out->fast_s.push_back(tune_s / tr.evaluations);

    if (!(space.Repair(tr.best_conf) == tr.best_conf)) {
      out->Fail(label + ": tuned conf is changed by ConfigSpace::Repair");
    }
    if (tr.evaluations != session->evaluations() ||
        tr.optimization_seconds != session->optimization_seconds() ||
        !(tr.optimization_seconds > 0.0)) {
      out->Fail(label + ": tuning result disagrees with its session");
    }

    const double tuned =
        Judge(session, tr.best_conf, spec.datasize_gb, ctx, out, label);
    const double dflt = Judge(session, space.Repair(space.DefaultConf()),
                              spec.datasize_gb, ctx, out, label);
    if (tuned > 0.0 && dflt > 0.0) out->speedups.push_back(dflt / tuned);
    out->opt_seconds.push_back(tr.optimization_seconds);
    if (ctx.tracer != nullptr) {
      std::fprintf(stderr,
                   "# cell %s tune_s=%.3f evals=%d opt_h=%.3f speedup=%.3f\n",
                   label.c_str(), tune_s, tr.evaluations,
                   tr.optimization_seconds / 3600.0,
                   tuned > 0.0 ? dflt / tuned : 0.0);
    }

    Digest d;
    d.Add(static_cast<double>(tr.evaluations));
    d.Add(tr.optimization_seconds);
    for (double v : tr.best_conf.values()) d.Add(v);
    out->outcomes.emplace_back(label, d.value());
  }

  std::vector<Cell> cells_;
};

class TuneWorkload : public Workload {
 public:
  TuneWorkload(bool baselines, uint64_t seed) {
    const std::vector<std::string> tuners =
        baselines ? harness::SotaTunerNames()
                  : std::vector<std::string>{"LOCAT"};
    // Each cluster runs every size of {100..500} GB once, in a fixed Latin
    // assignment (reversed on x86). The seed drives the tuners' RNG salts
    // and the simulators' noise streams; drawing the sizes from it as well
    // moved the geomean tuned speedup by 15% between seeds, because the
    // default conf degrades with size far more than the tuned one.
    const int replicas = baselines ? 1 : kLocatReplicas;
    for (int rep = 0; rep < replicas; ++rep) {
      for (int c = 0; c < 2; ++c) {
        for (int a = 0; a < 5; ++a) {
          for (const std::string& tuner : tuners) {
            CellSpec spec;
            spec.tuner = tuner;
            spec.app = kApps[a];
            spec.cluster = kClusters[c];
            spec.datasize_gb = 100.0 * (c == 0 ? a + 1 : 5 - a);
            spec.replica = rep;
            spec.seed = seed;
            specs_.push_back(spec);
          }
        }
      }
    }
  }

  std::unique_ptr<Pass> Prepare() const override {
    return std::make_unique<TunePass>(specs_);
  }

 private:
  std::vector<CellSpec> specs_;
};

}  // namespace

std::unique_ptr<Workload> MakeTuneWorkload(bool baselines, uint64_t seed) {
  return std::make_unique<TuneWorkload>(baselines, seed);
}

}  // namespace perfbench
