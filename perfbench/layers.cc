// Statistics helpers and the per-layer attribution of a traced pass.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Digest::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h_ ^= (bits >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

void Digest::Add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  h_ ^= 0xff;  // terminator, so "ab"+"c" differs from "a"+"bc"
  h_ *= 1099511628211ULL;
}

uint64_t Mix(uint64_t seed, const std::string& tag) {
  Digest d;
  d.Add(static_cast<double>(seed));
  d.Add(tag);
  return d.value();
}

void PassResult::Fail(const std::string& what) {
  ++failed;
  if (problems.size() < 20) problems.push_back(what);
}

void LayerObserver::OnIteration(const locat::obs::BoIterationEvent& event) {
  // A proposal (an event that scored a candidate pool) carries its own
  // scoring time. The recommend step ranks once and then emits one event
  // per confirmation run, each repeating that ranking time: count only a
  // recommend step's first event. A step starts when the phase changes to
  // "recommend" or the iteration index restarts (a new tune pass).
  if (event.candidate_pool > 0) {
    acq_seconds += event.acq_seconds;
    proposals += 1.0;
    candidates += event.candidate_pool;
  } else if (event.phase == "recommend" &&
             (last_phase_ != "recommend" ||
              event.iteration <= last_iteration_)) {
    acq_seconds += event.acq_seconds;
  }
  last_phase_ = event.phase;
  last_iteration_ = event.iteration;
}

void LayerObserver::OnPhase(const locat::obs::PhaseEvent& event) {
  if (event.phase != "qcsa") return;
  double csq = 0.0;
  double ciq = 0.0;
  for (const auto& [key, value] : event.fields) {
    if (key == "csq") csq = value;
    if (key == "ciq") ciq = value;
  }
  csq_queries += csq;
  total_queries += csq + ciq;
}

namespace {

using locat::obs::TraceEvent;

/// Which table row a span's self time belongs to.
const char* LayerOf(const std::string& name) {
  auto starts = [&name](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (starts("dagp/")) return "dagp";
  if (starts("qcsa/")) return "qcsa";
  if (starts("iicp/")) return "iicp";
  if (starts("session/")) return "session";
  if (starts("sim/")) return "sim";
  if (name == "tune" || starts("tune/")) return "tune";
  if (starts("bo_search/") || starts("dac/") || starts("tuneful/") ||
      starts("qtune/") || starts("frontend/")) {
    return "baselines";
  }
  if (starts("service/")) return "service";
  if (name == "bench/tune") return "tuner.outside_spans";
  if (name == "bench/measure") return "measure";
  if (starts("bench/")) return "registry";
  return "unattributed";
}

/// Numeric argument `key` of a span's args string ("\"n\":66,..."); NaN
/// when absent.
double SpanArg(const std::string& args, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = args.find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(args.c_str() + at + needle.size(), nullptr);
}

struct Open {
  uint64_t end_ns;
  size_t index;
};

/// Self time of every wall-lane span: its duration minus the part its
/// direct children on the same thread cover.
std::vector<double> SelfSeconds(const std::vector<TraceEvent>& spans) {
  std::map<int, std::vector<size_t>> by_tid;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].pid == locat::obs::kWallPid) {
      by_tid[spans[i].tid].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (auto& [tid, idx] : by_tid) {
    // Parents sort before the children they contain.
    std::sort(idx.begin(), idx.end(), [&spans](size_t a, size_t b) {
      if (spans[a].start_ns != spans[b].start_ns) {
        return spans[a].start_ns < spans[b].start_ns;
      }
      return spans[a].dur_ns > spans[b].dur_ns;
    });
    std::vector<Open> stack;
    for (size_t i : idx) {
      const TraceEvent& ev = spans[i];
      while (!stack.empty() && stack.back().end_ns <= ev.start_ns) {
        stack.pop_back();
      }
      self[i] = static_cast<double>(ev.dur_ns) * 1e-9;
      if (!stack.empty()) {
        self[stack.back().index] -= static_cast<double>(ev.dur_ns) * 1e-9;
      }
      stack.push_back({ev.start_ns + ev.dur_ns, i});
    }
  }
  return self;
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

LayerReport AnalyzeLayers(const std::vector<TraceEvent>& spans,
                          const LayerObserver& observer,
                          const PassResult& traced, double untraced_wall_s) {
  const std::vector<double> self = SelfSeconds(spans);
  // Every workload's table lists the same rows; a layer that did not run
  // reads 0.
  std::map<std::string, double> row_s;
  std::map<std::string, double> row_n;
  for (const char* layer :
       {"dagp", "acq", "tune", "qcsa", "iicp", "session", "sim", "baselines",
        "service", "registry", "measure", "tuner.outside_spans"}) {
    row_s[layer] = 0.0;
    row_n[layer] = 0.0;
  }
  double refit_s = 0.0;
  double refits = 0.0;
  double n_max = 0.0;
  double density_evals = 0.0;
  double buckets[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceEvent& ev = spans[i];
    if (ev.pid != locat::obs::kWallPid) continue;
    const std::string layer = LayerOf(ev.name);
    row_s[layer] += self[i];
    row_n[layer] += 1.0;
    if (layer == "dagp") {
      const double dur = static_cast<double>(ev.dur_ns) * 1e-9;
      refit_s += dur;
      refits += 1.0;
      const double n = SpanArg(ev.args, "n");
      if (!std::isnan(n)) {
        n_max = std::max(n_max, n);
        buckets[n < 64 ? 0 : n < 128 ? 1 : n < 240 ? 2 : 3] += dur;
      }
      const double evals = SpanArg(ev.args, "density_evals");
      if (!std::isnan(evals)) density_evals += evals;
    }
  }
  // Acquisition runs inside the tune spans without a span of its own.
  row_s["tune"] -= observer.acq_seconds;
  row_s["acq"] = observer.acq_seconds;
  row_n["acq"] = observer.proposals;

  const double wall = traced.wall_s;
  LayerReport report;
  std::map<std::string, double>& m = report.metrics;
  m["traced.wall_s"] = wall;
  m["dagp.refits"] = refits;
  m["dagp.refit_s"] = refit_s;
  m["dagp.n_max"] = n_max;
  m["dagp.refit_s.n_lt64"] = buckets[0];
  m["dagp.refit_s.n_64_127"] = buckets[1];
  m["dagp.refit_s.n_128_239"] = buckets[2];
  m["dagp.refit_s.n_ge240"] = buckets[3];
  m["mcmc.density_evals"] = density_evals;
  m["acq.s"] = observer.acq_seconds;
  m["acq.candidates"] = observer.candidates;
  m["qcsa.s"] = row_s["qcsa"];
  m["iicp.s"] = row_s["iicp"];
  m["rqa.query_share"] = observer.total_queries > 0
                             ? observer.csq_queries / observer.total_queries
                             : 0.0;
  m["session.evals"] = static_cast<double>(traced.session_evals);
  m["session.failed_evals"] =
      static_cast<double>(traced.session_failed_evals);
  m["session.s"] = row_s["session"];
  m["sim.runs"] = row_n["sim"];
  m["sim.query_runs"] = static_cast<double>(traced.sim_query_runs);
  m["sim.s"] = row_s["sim"];
  m["baselines.model_s"] = row_s["baselines"];
  m["tune.self_s"] = row_s["tune"];
  m["measure.s"] = traced.measure_s;
  for (const char* key : {"lookups", "hit_ratio", "coalesced", "evictions",
                          "warm_starts"}) {
    const auto it = traced.registry.find(key);
    m[std::string("registry.") + key] =
        it != traced.registry.end() ? it->second : 0.0;
  }
  m["registry.report_p50_us"] = Quantile(traced.report_s, 0.50) * 1e6;
  m["registry.report_p99_us"] = Quantile(traced.report_s, 0.99) * 1e6;
  m["registry.tick_s"] = traced.tick_s;
  for (const char* key : {"tuning_passes", "failed_reports"}) {
    const auto it = traced.registry.find(key);
    m[std::string("service.") + key] =
        it != traced.registry.end() ? it->second : 0.0;
  }
  m["obs.trace_overhead"] =
      untraced_wall_s > 0.0 ? wall / untraced_wall_s - 1.0 : 0.0;
  m["gen.sim_s"] = traced.gen_sim_s;

  // The table: self time per layer; the rows partition the traced wall.
  auto share = [wall](double seconds) {
    return Fmt("  %6.2f%%", wall > 0.0 ? 100.0 * seconds / wall : 0.0);
  };
  std::string& t = report.table;
  t += "# layer                  self_s    share   count\n";
  double covered = 0.0;
  for (const auto& [layer, seconds] : row_s) {
    covered += seconds;
    char name[32];
    std::snprintf(name, sizeof(name), "# %-22s", layer.c_str());
    t += name + Fmt("%8.3f", seconds) + share(seconds) +
         Fmt("  %6.0f", row_n[layer]) + "\n";
  }
  t += "# outside bench spans    " + Fmt("%8.3f", wall - covered) +
       share(wall - covered) + "\n";
  t += "# traced wall            " + Fmt("%8.3f", wall) + "\n";
  t += "# dagp refit time by history length n: <64 " +
       Fmt("%.3f s", buckets[0]) + ", 64-127 " + Fmt("%.3f s", buckets[1]) +
       ", 128-239 " + Fmt("%.3f s", buckets[2]) + ", >=240 " +
       Fmt("%.3f s", buckets[3]) + "; n_max " + Fmt("%.0f", n_max) + "\n";
  return report;
}

}  // namespace perfbench
