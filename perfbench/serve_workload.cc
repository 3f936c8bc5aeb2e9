// serve-drift: one client, one request at a time, drives a
// core::ServiceRegistry serving synthetic apps whose data sizes drift from
// round to round. After each Lookup the benchmark runs the app's
// production run on its own simulator (light faults) and reports it back;
// AdvanceTick runs between rounds. Capacity is below the app count, so LRU
// eviction and warm-start re-admission happen.
//
// The traffic is taken from the repository rather than invented:
//   - `locat serve`: its tuner budgets, its default 6 rounds, one request
//     per app and round, and its data-size schedule, where an app's size
//     in round r is kServeSizes[(r + offset) % 5];
//   - bench/micro_service: its synthetic apps (family i % 5 with CPU and
//     memory cost factors from the index i) and its capacity, 3/4 of the
//     app count.
// TTL stays at `locat serve`'s default, off.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/online_service.h"
#include "core/service_registry.h"
#include "core/tuning.h"
#include "harness/experiments.h"
#include "sparksim/faults.h"
#include "sparksim/simulator.h"

namespace perfbench {
namespace {

using namespace locat;

constexpr int kApps = 200;
constexpr size_t kCapacity = 3 * kApps / 4;
constexpr int kRounds = 6;
constexpr int kProbeSweeps = 20;

/// `locat serve`'s data-size schedule: 100/120 and 300/330 sit within the
/// service's 25% reuse gap, every other step re-tunes.
constexpr double kServeSizes[] = {100.0, 120.0, 300.0, 330.0, 500.0};

const char* const kFamilies[] = {"TPC-DS", "TPC-H", "Join", "Scan",
                                 "Aggregation"};

/// `locat serve`'s shipped tuner budgets. Each app's tuner gets its own
/// seed (`salt`), so apps draw independent proposals.
core::OnlineTuningService::Options ServeOptions(uint64_t salt) {
  core::OnlineTuningService::Options opts;
  opts.tuner.n_qcsa = 8;
  opts.tuner.n_iicp = 6;
  opts.tuner.lhs_init = 2;
  opts.tuner.min_iterations = 3;
  opts.tuner.max_iterations = 5;
  opts.tuner.warm_iterations = 3;
  opts.tuner.candidates = 60;
  opts.tuner.seed = 31 + salt;
  return opts;
}

/// One served app. The tuning simulator survives eviction (it is the
/// cluster, which does not forget an app); the production and reference
/// simulators belong to the benchmark's load generator.
struct ServedApp {
  std::string name;
  sparksim::SparkSqlApp app;
  std::unique_ptr<sparksim::ClusterSimulator> tune_sim;
  std::unique_ptr<sparksim::ClusterSimulator> prod_sim;
  std::unique_ptr<sparksim::ClusterSimulator> ref_sim;
};

struct Request {
  int app = 0;
  double datasize_gb = 0.0;
};

/// bench/micro_service's app #i: family i % 5 with its cost perturbation.
struct AppPlan {
  std::string name;
  const char* family = nullptr;
  double cpu_factor = 1.0;
  double mem_factor = 1.0;
};

AppPlan PlanApp(int i) {
  AppPlan plan;
  char name[32];
  std::snprintf(name, sizeof(name), "app-%03d", i);
  plan.name = name;
  plan.family = kFamilies[i % 5];
  plan.cpu_factor = 1.0 + 0.03 * static_cast<double>(i % 7);
  plan.mem_factor = 1.0 + 0.02 * static_cast<double>((i / 7) % 5);
  return plan;
}

/// What evicted backends leave behind, plus per-app simulated tuning time.
struct Carry {
  bool closing = false;  // registry teardown, not an eviction
  int64_t tuning_passes = 0;
  int64_t failed_reports = 0;
  int64_t session_evals = 0;
  int64_t session_failed_evals = 0;
  std::map<std::string, double> opt_seconds;
};

class Backend : public core::AppBackend {
 public:
  Backend(ServedApp* host, const core::OnlineTuningService::Options& opts,
          const obs::ObsContext& ctx, Carry* carry)
      : host_(host),
        carry_(carry),
        session_(host->tune_sim.get(), host->app),
        service_(&session_, opts) {
    session_.SetObservability(ctx);
  }

  ~Backend() override {
    carry_->session_evals += session_.evaluations();
    for (const core::EvalRecord& rec : session_.history()) {
      if (rec.failed) ++carry_->session_failed_evals;
    }
    carry_->opt_seconds[host_->name] += session_.optimization_seconds();
    if (!carry_->closing) {
      carry_->tuning_passes += service_.tuning_passes();
      carry_->failed_reports += service_.failed_reports();
    }
  }

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  core::OnlineTuningService* service() override { return &service_; }
  const sparksim::SparkSqlApp& app() const override { return host_->app; }

 private:
  ServedApp* host_;
  Carry* carry_;
  core::TuningSession session_;
  core::OnlineTuningService service_;
};

class ServePass : public Pass {
 public:
  ServePass(uint64_t seed, const std::vector<AppPlan>& plans,
            const std::vector<std::vector<Request>>& rounds)
      : rounds_(rounds), space_(harness::MakeCluster("x86")) {
    default_conf_ = space_.Repair(space_.DefaultConf());
    const sparksim::FaultSpec faults = sparksim::FaultSpec::Light(seed);
    const sparksim::ClusterSpec cluster = harness::MakeCluster("x86");
    apps_.resize(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      ServedApp& a = apps_[i];
      a.name = plans[i].name;
      a.app = harness::MakeApp(plans[i].family);
      a.app.name = a.name;
      for (sparksim::QueryProfile& q : a.app.queries) {
        q.cpu_per_gb *= plans[i].cpu_factor;
        q.mem_per_task_factor *= plans[i].mem_factor;
      }
      a.tune_sim = std::make_unique<sparksim::ClusterSimulator>(
          cluster, Mix(seed, "tune|" + a.name));
      a.prod_sim = std::make_unique<sparksim::ClusterSimulator>(
          cluster, Mix(seed, "prod|" + a.name));
      a.prod_sim->set_faults(faults);
      a.ref_sim = std::make_unique<sparksim::ClusterSimulator>(
          cluster, Mix(seed, "ref|" + a.name));
      by_name_[a.name] = &a;
    }
    core::ServiceRegistry::Options ropts;
    ropts.retune_threshold = ServeOptions(0).retune_threshold;
    ropts.capacity = kCapacity;
    ropts.tune_threads = 1;
    registry_ = std::make_unique<core::ServiceRegistry>(
        [this, seed](const std::string& name)
            -> std::unique_ptr<core::AppBackend> {
          const auto it = by_name_.find(name);
          if (it == by_name_.end()) return nullptr;
          return std::make_unique<Backend>(
              it->second, ServeOptions(Mix(seed, "tuner|" + name)), ctx_,
              &carry_);
        },
        ropts);
  }

  PassResult Run(const obs::ObsContext& ctx) override {
    ctx_ = ctx;
    PassResult out;
    if (ctx.any()) {
      registry_->SetObservability(ctx);
      for (ServedApp& a : apps_) a.tune_sim->set_tracer(ctx.tracer);
    }
    Digest served;
    uint64_t retunes = 0;
    for (const std::vector<Request>& round : rounds_) {
      std::vector<Request> probes;
      for (const Request& req : round) {
        Serve(req, &served, &retunes, &probes, &out);
      }
      Probe(probes, retunes, &out);
      const Clock::time_point t0 = Clock::now();
      {
        obs::ScopedSpan span(ctx.tracer, "bench/tick", "bench");
        registry_->AdvanceTick();
      }
      const double dt = SecondsSince(t0);
      out.tick_s += dt;
      out.wall_s += dt;
    }
    out.outcomes.emplace_back("served confs", served.value());

    const core::ServiceRegistry::Stats stats = registry_->GetStats();
    const double lookups = static_cast<double>(
        stats.lookups_hit + stats.lookups_miss + stats.lookups_coalesced);
    out.registry["lookups"] = lookups;
    out.registry["hit_ratio"] =
        lookups > 0 ? static_cast<double>(stats.lookups_hit) / lookups : 0.0;
    out.registry["coalesced"] = static_cast<double>(stats.lookups_coalesced);
    out.registry["evictions"] =
        static_cast<double>(stats.evictions_ttl + stats.evictions_capacity);
    out.registry["warm_starts"] = static_cast<double>(stats.warm_start_hits);
    int64_t passes = carry_.tuning_passes;
    int64_t failed_reports = carry_.failed_reports;
    for (const core::ServiceRegistry::AppRow& row : registry_->AppRows()) {
      passes += row.snapshot.tuning_passes;
      failed_reports += row.snapshot.failed_reports;
    }
    out.registry["tuning_passes"] = static_cast<double>(passes);
    out.registry["failed_reports"] = static_cast<double>(failed_reports);
    if (static_cast<uint64_t>(passes) !=
        stats.retunes_cold + stats.retunes_drift) {
      out.Fail("service tuning passes disagree with registry re-tunes");
    }

    // Tear the registry down so every live backend reports its session.
    carry_.closing = true;
    registry_.reset();
    out.session_evals = carry_.session_evals;
    out.session_failed_evals = carry_.session_failed_evals;
    for (const auto& [name, seconds] : carry_.opt_seconds) {
      if (seconds > 0.0) out.opt_seconds.push_back(seconds);
    }
    for (const ServedApp& a : apps_) {
      out.sim_query_runs += a.tune_sim->runs_performed();
    }
    return out;
  }

 private:
  uint64_t Retunes() const {
    const core::ServiceRegistry::Stats stats = registry_->GetStats();
    return stats.retunes_cold + stats.retunes_drift;
  }

  /// bench/micro_service's warm probe, at every round barrier: one sweep
  /// over this round's requests whose production run succeeded, then
  /// kProbeSweeps timed sweeps. Each lookup is a lock-free hit at a size
  /// the app was just served at. (After a failed run the service may drop
  /// the size, so such a lookup could re-tune.) A timed sweep gives one
  /// hit-latency sample, its mean time per lookup: single warm lookups
  /// take well under a microsecond, and their own p90 jumped twofold
  /// whenever the host was busy. The hits on the request path are timed in
  /// wall_s only: the production runs between them leave the caches cold,
  /// and their latency followed the host's memory contention, moving the
  /// median by a quarter between sets of runs a few minutes apart.
  void Probe(const std::vector<Request>& probes, uint64_t retunes,
             PassResult* out) {
    if (probes.empty()) return;
    obs::ScopedSpan span(ctx_.tracer, "bench/probe", "bench");
    for (int sweep = 0; sweep <= kProbeSweeps; ++sweep) {
      const Clock::time_point t0 = Clock::now();
      for (const Request& req : probes) {
        const std::string& name = apps_[static_cast<size_t>(req.app)].name;
        ++out->attempted;
        const StatusOr<sparksim::SparkConf> conf_or =
            registry_->Lookup(name, req.datasize_gb);
        if (!conf_or.ok()) {
          out->Fail(name + ": probe Lookup: " + conf_or.status().ToString());
        }
      }
      const double dt = SecondsSince(t0);
      out->wall_s += dt;
      if (sweep > 0) {
        out->fast_s.push_back(dt / static_cast<double>(probes.size()));
      }
    }
    if (Retunes() != retunes) out->Fail("a probe Lookup ran a tuning pass");
  }

  void Serve(const Request& req, Digest* served, uint64_t* retunes,
             std::vector<Request>* probes, PassResult* out) {
    ServedApp& a = apps_[static_cast<size_t>(req.app)];
    const double ds = req.datasize_gb;
    ++out->attempted;

    const Clock::time_point t0 = Clock::now();
    StatusOr<sparksim::SparkConf> conf_or = Status::Internal("not looked up");
    {
      obs::ScopedSpan span(ctx_.tracer, "bench/lookup", "bench");
      conf_or = registry_->Lookup(a.name, ds);
    }
    const double lookup_s = SecondsSince(t0);
    out->wall_s += lookup_s;
    const uint64_t now_retunes = Retunes();
    if (now_retunes > *retunes) out->slow_s.push_back(lookup_s);
    *retunes = now_retunes;
    if (!conf_or.ok()) {
      out->Fail(a.name + ": Lookup: " + conf_or.status().ToString());
      return;
    }
    const sparksim::SparkConf& conf = conf_or.value();
    if (!(space_.Repair(conf) == conf)) {
      out->Fail(a.name + ": served conf is changed by ConfigSpace::Repair");
    }
    served->Add(ds);
    for (double v : conf.values()) served->Add(v);

    const Clock::time_point g0 = Clock::now();
    const sparksim::AppRunResult run = a.prod_sim->RunApp(a.app, conf, ds);
    const sparksim::AppRunResult ref =
        a.ref_sim->RunApp(a.app, default_conf_, ds);
    out->gen_sim_s += SecondsSince(g0);

    const Clock::time_point r0 = Clock::now();
    Status report;
    {
      obs::ScopedSpan span(ctx_.tracer, "bench/report", "bench");
      report = run.failed ? registry_->ReportFailedRun(a.name, ds, conf,
                                                       run.total_seconds)
                          : registry_->ReportRun(a.name, ds, conf,
                                                 run.total_seconds);
    }
    const double report_s = SecondsSince(r0);
    out->report_s.push_back(report_s);
    out->wall_s += report_s;
    if (!report.ok()) {
      out->Fail(a.name + ": report: " + report.ToString());
      return;
    }
    // A production run the injected faults killed is handled by the
    // program (censored report) and has no runtime to compare.
    if (!run.failed) probes->push_back(req);
    if (!run.failed && !ref.failed && run.total_seconds > 0.0) {
      out->speedups.push_back(ref.total_seconds / run.total_seconds);
    }
  }

  std::vector<std::vector<Request>> rounds_;
  sparksim::ConfigSpace space_;
  sparksim::SparkConf default_conf_;
  std::vector<ServedApp> apps_;
  std::map<std::string, ServedApp*> by_name_;
  obs::ObsContext ctx_;
  Carry carry_;
  std::unique_ptr<core::ServiceRegistry> registry_;
};

class ServeWorkload : public Workload {
 public:
  /// The seed deals the schedule offsets: each family's apps get every
  /// offset of the 5-size cycle equally often, so the mix of families,
  /// offsets and cost factors is the same on every seed and only which
  /// app drifts how changes. It also orders each round's requests (one
  /// client serving the apps in an arbitrary order) and, in the pass,
  /// seeds every tuner, simulator and the fault draws.
  explicit ServeWorkload(uint64_t seed) : seed_(seed) {
    static_assert(kApps % 25 == 0, "every family needs each offset equally");
    Rng rng(Mix(seed, "deal"));
    std::vector<int> offset(kApps);
    for (int f = 0; f < 5; ++f) {
      const std::vector<int> perm = rng.Permutation(kApps / 5);
      for (int j = 0; j < kApps / 5; ++j) {
        offset[static_cast<size_t>(5 * j + f)] =
            perm[static_cast<size_t>(j)] % 5;
      }
    }
    for (int i = 0; i < kApps; ++i) plans_.push_back(PlanApp(i));
    for (int r = 0; r < kRounds; ++r) {
      std::vector<Request> round;
      for (int i = 0; i < kApps; ++i) {
        round.push_back(
            {i, kServeSizes[(r + offset[static_cast<size_t>(i)]) % 5]});
      }
      rng.Shuffle(&round);
      rounds_.push_back(std::move(round));
    }
  }

  std::unique_ptr<Pass> Prepare() const override {
    return std::make_unique<ServePass>(seed_, plans_, rounds_);
  }

 private:
  uint64_t seed_;
  std::vector<AppPlan> plans_;
  std::vector<std::vector<Request>> rounds_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(uint64_t seed) {
  return std::make_unique<ServeWorkload>(seed);
}

}  // namespace perfbench
