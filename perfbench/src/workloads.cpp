// The three workloads and the helper invocations run.py makes:
//   cold-pass   one service-cold pass in a fresh process (service, direct
//               or traced replay of the corpus)
//   cold-check  the service-cold checks that need the facades
//   warm        service-warm: set-up, timed loop and checks
//   simulate    simulate: set-up, timed loop and checks
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>

#include "analysis/plan_audit.hpp"
#include "bench.hpp"
#include "designs/dp_plan.hpp"
#include "designs/uniform_plan.hpp"
#include "direct.hpp"
#include "family.hpp"
#include "ir/canonical.hpp"
#include "partition/dp_tiling.hpp"
#include "partition/tile_plan.hpp"
#include "service/session.hpp"
#include "service_load.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "synth/design_cache.hpp"
#include "synth/report.hpp"
#include "systolic/plan_cache.hpp"
#include "trace.hpp"

namespace perfbench {

using nusys::BatchProblem;

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;

nusys::ServiceConfig service_config() {
  nusys::ServiceConfig config;
  config.workers = kWorkers;
  return config;
}

/// Collects failures; the first few are reported.
struct Errors {
  std::size_t count = 0;
  std::vector<std::string> first;
  void add(const std::string& error) {
    if (error.empty()) return;
    ++count;
    if (first.size() < 8) first.push_back(error);
  }
  [[nodiscard]] JsonValue json() const {
    JsonValue out = JsonValue::Array{};
    for (const auto& e : first) out.push_back(e);
    return out;
  }
};

JsonValue plan_cache_json() {
  const auto stats = nusys::wavefront_plan_cache().stats();
  JsonValue out;
  out.set("systolic.plan_cache_hits", stats.hits);
  out.set("systolic.plan_cache_misses", stats.misses);
  out.set("systolic.plan_cache_bytes", stats.bytes);
  out.set("systolic.plan_cache_evictions", stats.evictions);
  return out;
}

void write_trace(const std::string& path, const Tracer& tracer,
                 const JsonValue& other) {
  std::ofstream out(path);
  tracer.write_chrome(out, other);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

/// Untimed rounds run after set-up and before timing: the first one or two
/// seconds of a loop run up to 70% slower than the rest (median round time
/// per half-second window), and would otherwise land in the p90.
constexpr double kWarmupSeconds = 2.0;

/// Traced runs record at most this many traced operations; later rounds
/// run untraced and unrecorded, so trace files stay a few MB.
constexpr std::size_t kMaxTracedOps = 4000;

JsonValue ready_event() {
  JsonValue ready;
  ready.set("event", "ready");
  return ready;
}

/// The distinct design-cache keys of a workload's problems, computed the
/// way the service keys them.
std::size_t distinct_keys(const Workload& w) {
  nusys::ServiceConfig config = service_config();
  config.synthesis.parallelism.threads = 1;
  config.pipeline.parallelism.threads = 1;
  std::set<std::string> keys;
  for (const auto& p : w.problems) {
    const auto net = nusys::batch_interconnect(p.batch);
    keys.insert(nusys::batch_uses_pipeline(p.batch)
                    ? nusys::pipeline_cache_key(nusys::batch_spec(p.batch),
                                                net, config.pipeline)
                    : nusys::synthesis_cache_key(
                          nusys::canonicalize_recurrence(
                              nusys::batch_recurrence(p.batch)),
                          net, config.synthesis));
  }
  return keys.size();
}

/// A problem synthesized through the facade without a cache, with its
/// best design checked.
struct Synthesized {
  BatchProblem problem;
  nusys::DesignReport report;
  std::optional<nusys::Design> uniform;
  std::optional<nusys::DPArrayDesign> dp;
  DesignCheck check;
};

Synthesized synthesize_problem(const BatchProblem& problem, Tracer& tracer) {
  Synthesized out;
  out.problem = problem;
  const auto net = nusys::batch_interconnect(problem);
  const SpanGuard span(tracer, "synth.search");
  if (nusys::batch_uses_pipeline(problem)) {
    nusys::NonUniformSynthesisOptions options;
    options.parallelism.threads = 1;
    const auto spec = nusys::batch_spec(problem);
    const auto result = nusys::synthesize_nonuniform(spec, net, options);
    tracer.add_stages(span.id(), result.telemetry,
                      {{"coarse-schedule", "chains.coarse"},
                       {"module-schedule", "modules.schedule_search"},
                       {"module-space", "modules.space_search"}});
    out.report = nusys::make_pipeline_report(spec, result);
    if (!result.found()) {
      out.check.error = problem.name + ": no design found";
      return out;
    }
    out.dp = result.best();
    out.check = check_pipeline_best(problem, result.best(),
                                    result.schedule_makespan,
                                    result.cell_counts.front());
  } else {
    nusys::SynthesisOptions options;
    options.parallelism.threads = 1;
    const auto rec = nusys::batch_recurrence(problem);
    const auto result = nusys::synthesize(rec, net, options);
    tracer.add_stages(span.id(), result.telemetry,
                      {{"schedule", "schedule.search"},
                       {"space", "space.search"}});
    out.report = nusys::make_design_report(rec, result);
    if (!result.found()) {
      out.check.error = problem.name + ": no design found";
      return out;
    }
    out.uniform = result.best();
    out.check = check_uniform_best(problem, result.best());
  }
  if (!out.check.error.empty()) {
    out.check.error = problem.name + ": " + out.check.error;
  }
  return out;
}

/// Acquires (building when absent) and audits the flat plan of a best
/// design. Empty when the audit certifies every obligation.
std::string audit_flat_plan(const Synthesized& s, Tracer& tracer) {
  const SpanGuard span(tracer, "analysis.plan_audit");
  if (s.dp) {
    const auto acquired =
        nusys::detail::acquire_dp_plan(*s.dp, s.problem.n, 1, 0);
    const auto report =
        nusys::audit_dp_plan(*acquired.plan, *s.dp, 0, s.problem.name);
    return report.ok() ? "" : s.problem.name + ": " + report.first_violation();
  }
  if (!s.uniform) return "";
  const auto rec = nusys::batch_recurrence(s.problem);
  const auto& d = *s.uniform;
  const auto acquired =
      nusys::acquire_uniform_plan(rec, d.timing, d.space, d.net);
  const auto report = nusys::audit_uniform_plan(*acquired.plan, rec, d.timing,
                                                d.space, d.net,
                                                s.problem.name);
  return report.ok() ? "" : s.problem.name + ": " + report.first_violation();
}

/// Runs the best design flat on the instance the service executes for the
/// problem (seeded from its name, as the service does) and compares the
/// output with the frontends and the naive reference, so the verdict does
/// not rest on the service's own execution_match flag alone.
std::string check_service_execution(const Synthesized& s, Tracer& tracer) {
  nusys::Rng rng(1 ^ nusys::fnv1a64(s.problem.name));
  const nusys::TileOptions flat;
  std::optional<Execution> ex;
  if (s.dp) {
    ex = execute_dp(tracer, s.problem, *s.dp, flat, rng);
  } else if (s.uniform) {
    ex = execute_uniform(tracer, s.problem, *s.uniform, flat, rng);
  } else {
    return "";  // No design: synthesize_problem reported it.
  }
  std::string error = naive_mismatch(*ex);
  if (error.empty() && !ex->match) {
    error = "array output differs from the frontends reference";
  }
  return error.empty() ? "" : s.problem.name + ": " + error;
}

/// What the checks found for one problem, keyed by Problem::key.
struct CheckedProblem {
  nusys::DesignReport report;
  i64 makespan = 0;
  i64 cells = 0;
};
using CheckMemo = std::map<std::string, CheckedProblem>;

/// Checks shared by the service workloads on their distinct problems:
/// every best design, the executed instance's reference, the plan audit,
/// and figure2 < figure1 cells for pipeline pairs at the same n. Problems
/// already in `memo` are not checked again. Returns the sums of the best
/// designs' makespans and cells over the workload's problems.
std::pair<double, double> check_problems(const Workload& w, CheckMemo& memo,
                                         Errors& errors, Tracer& tracer) {
  double makespan_sum = 0.0;
  double cells_sum = 0.0;
  std::map<std::pair<i64, std::string>, i64> pipeline_cells;
  for (const auto& p : w.problems) {
    auto it = memo.find(p.key);
    if (it == memo.end()) {
      const Synthesized s = synthesize_problem(p.batch, tracer);
      errors.add(s.check.error);
      errors.add(check_service_execution(s, tracer));
      errors.add(audit_flat_plan(s, tracer));
      it = memo.emplace(p.key, CheckedProblem{s.report, s.check.makespan,
                                              s.check.cells})
               .first;
    }
    makespan_sum += static_cast<double>(it->second.makespan);
    cells_sum += static_cast<double>(it->second.cells);
    if (p.batch.kind == BatchProblem::Kind::kPipeline) {
      pipeline_cells[{p.batch.n, p.batch.net}] = it->second.cells;
    }
  }
  for (const auto& [key, cells] : pipeline_cells) {
    if (key.second != "figure2") continue;
    const auto fig1 = pipeline_cells.find({key.first, "figure1"});
    if (fig1 != pipeline_cells.end() && cells >= fig1->second) {
      errors.add("pipeline n=" + std::to_string(key.first) +
                 ": figure2 uses " + std::to_string(cells) +
                 " cells, not fewer than figure1's " +
                 std::to_string(fig1->second));
    }
  }
  return {makespan_sum, cells_sum};
}

/// service-cold pass check: every response ok and executed against its
/// reference, and every response of one problem carrying one report.
class ColdRecorder {
 public:
  explicit ColdRecorder(const Workload& w) : w_(w) {}

  std::string operator()(const Request& request,
                         const nusys::ServiceResponse& response) {
    const Problem& problem = w_.problems.at(request.problem);
    const auto& name = problem.batch.name;
    if (response.status != nusys::ResponseStatus::kOk) {
      return name + ": " + nusys::response_status_name(response.status) +
             " " + response.error;
    }
    if (response.results.size() != 1) return name + ": wrong result count";
    const auto& got = response.results.front();
    if (got.name != name) return name + ": result names '" + got.name + "'";
    if (!got.executed || !got.execution_match) {
      return name + ": execution does not match the reference";
    }
    const std::lock_guard<std::mutex> lock(mu_);
    const auto [it, fresh] = first_.emplace(problem.key, got);
    if (!fresh && it->second.name == got.name) {
      return compare_result(it->second, got, got.cache_hit);
    }
    if (!fresh && it->second.report != got.report) {
      return name + ": report differs from an equal problem's";
    }
    return "";
  }

  /// Report digest per problem key.
  [[nodiscard]] JsonValue digests() const {
    JsonValue out = JsonValue::Object{};
    for (const auto& [key, result] : first_) {
      out.set(key, report_digest(result.report));
    }
    return out;
  }

 private:
  const Workload& w_;
  std::mutex mu_;
  std::map<std::string, nusys::ServiceResult> first_;
};

/// Median latency per request kind (problem and tile), for the README's
/// make-up tables; positions[i] is latency i's place in the round.
JsonValue median_by_request(const Workload& w,
                            const std::vector<std::size_t>& positions,
                            const std::vector<double>& latencies_ms) {
  std::map<std::string, std::vector<double>> by_kind;
  for (std::size_t i = 0; i < latencies_ms.size(); ++i) {
    const Request& r = w.round[positions[i]];
    by_kind[w.problems[r.problem].batch.name +
            (r.tile.empty() ? "" : " " + r.tile)]
        .push_back(latencies_ms[i]);
  }
  JsonValue out = JsonValue::Object{};
  for (auto& [kind, values] : by_kind) {
    std::sort(values.begin(), values.end());
    out.set(kind, values[values.size() / 2]);
  }
  return out;
}

JsonValue base_result(const Args& args) {
  JsonValue result;
  result.set("event", "result");
  result.set("workload", args.workload);
  result.set("seed", static_cast<i64>(args.seed));
  return result;
}

/// `rss_mib` is read before the benchmark's own bookkeeping grows (service-
/// warm and simulate: before the timed loop, which keeps one latency per
/// operation, and the checks), so it does not count as the workload's
/// memory and does not grow with the number of operations a run fits in.
void finish(JsonValue& result, const Errors& errors, std::size_t attempted,
            std::size_t failed, double rss_mib) {
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("errors", errors.json());
  result.set("error_count", errors.count);
  result.set("rss_mib", rss_mib);
}

}  // namespace

// ------------------------------------------------------------ service-cold --

int run_cold_pass(const Args& args) {
  const Workload w = make_workload("service-cold", args.seed, args.pass_index);
  Tracer tracer(args.pass == "traced");
  ColdRecorder recorder(w);
  Errors errors;
  JsonValue result = base_result(args);
  std::vector<double> latencies;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t misses = 0;
  std::size_t validation_failures = 0;
  double wall = 0.0;
  JsonValue counters;
  if (args.pass == "service") {
    nusys::SynthesisService service(service_config());
    emit(ready_event());
    const auto load = run_service_load(
        service, w, w.round, 0.0, kClients,
        [&](const Request& r, const nusys::ServiceResponse& resp) {
          return recorder(r, resp);
        });
    const auto stats = service.stats();
    latencies = load.latencies_ms;
    attempted = load.attempted;
    failed = load.failed;
    for (const auto& e : load.errors) errors.add(e);
    wall = load.wall_s;
    misses = stats.cache.misses;
    validation_failures = stats.cache.validation_failures;
    double total_ms = 0.0;
    for (const double l : latencies) total_ms += l;
    result.set("queue_wait_ms",
               (total_ms - stats.busy_seconds * 1e3) /
                   static_cast<double>(std::max<std::size_t>(attempted, 1)));
    result.set("worker_utilization", stats.worker_utilization());
    counters = plan_cache_json();
  } else {
    DirectSession session(tracer);
    emit(ready_event());
    const double start = now_s();
    for (std::size_t i = 0; i < w.round.size(); ++i) {
      const Request& request = w.round[i];
      const std::string line = request_line(w, request, "r" + std::to_string(i));
      const double t0 = now_s();
      std::string error;
      try {
        std::string reply;
        {
          const SpanGuard op(tracer, "op");
          reply = session.handle(line);
        }
        latencies.push_back((now_s() - t0) * 1e3);
        error = recorder(request, nusys::parse_response(reply));
      } catch (const std::exception& e) {
        error = e.what();
      }
      ++attempted;
      if (!error.empty()) {
        ++failed;
        errors.add(error);
      }
    }
    wall = now_s() - start;
    if (tracer.enabled()) {
      const SpanGuard check(tracer, "check");
      errors.add(session.audit_plans());
    }
    const auto stats = session.cache_stats();
    misses = stats.misses;
    validation_failures = stats.validation_failures;
    counters = plan_cache_json();
    counters.set("synth.cache_hits", stats.hits);
    counters.set("synth.cache_misses", stats.misses);
    counters.set("synth.validation_failures", stats.validation_failures);
    counters.set("designs.plan_bytes", session.plan_bytes());
    counters.set("designs.plan_points", session.plan_points());
  }
  const std::size_t keys = distinct_keys(w);
  if (misses != keys) {
    errors.add("design-cache misses " + std::to_string(misses) +
               " != distinct problems " + std::to_string(keys));
  }
  if (validation_failures != 0) {
    errors.add(std::to_string(validation_failures) +
               " design-cache validation failures");
  }
  if (tracer.enabled()) {
    JsonValue other;
    other.set("workload", "service-cold");
    other.set("traced_ops", attempted);
    other.set("traced_latencies_ms", number_array(latencies));
    other.set("counters", counters);
    write_trace(args.trace_out, tracer, other);
  }
  const double rss = peak_rss_mib();
  result.set("pass", args.pass);
  result.set("latencies_ms", number_array(latencies));
  result.set("timed_s", wall);
  result.set("digests", recorder.digests());
  result.set("distinct_problems", keys);
  result.set("counters", counters);
  finish(result, errors, attempted, failed, rss);
  emit(result);
  return 0;
}

int run_cold_check(const Args& args) {
  Tracer tracer(false);
  Errors errors;
  CheckMemo memo;
  double makespan = 0.0;
  double cells = 0.0;
  for (std::uint64_t k = 0; k < args.passes; ++k) {
    const auto [m, c] = check_problems(
        make_workload("service-cold", args.seed, k), memo, errors, tracer);
    makespan += m;
    cells += c;
  }
  JsonValue result = base_result(args);
  JsonValue digests = JsonValue::Object{};
  for (const auto& [key, checked] : memo) {
    digests.set(key, report_digest(checked.report));
  }
  result.set("digests", std::move(digests));
  // Per-pass sums over each corpus's distinct problems, averaged.
  const auto passes = static_cast<double>(std::max<std::uint64_t>(args.passes, 1));
  result.set("design_makespan_sum", makespan / passes);
  result.set("design_cells_sum", cells / passes);
  finish(result, errors, 0, 0, peak_rss_mib());
  emit(result);
  return 0;
}

// ------------------------------------------------------------ service-warm --

int run_warm(const Args& args) {
  const Workload w = make_workload("service-warm", args.seed);
  Tracer tracer(args.trace);
  Errors errors;
  JsonValue result = base_result(args);

  // Traced runs first replay the set-up as direct calls, so plan builds
  // and searches land in the trace; the service set-up then finds every
  // plan in the process-wide plan cache.
  std::optional<DirectSession> direct;
  if (args.trace) {
    direct.emplace(tracer);
    const SpanGuard setup(tracer, "setup");
    for (std::size_t i = 0; i < w.setup.size(); ++i) {
      const auto reply = nusys::parse_response(direct->handle(
          request_line(w, w.setup[i], "s" + std::to_string(i))));
      if (reply.status != nusys::ResponseStatus::kOk) {
        errors.add("direct set-up: " + reply.error);
      }
    }
  }

  nusys::SynthesisService service(service_config());
  std::vector<std::string> setup_lines;
  for (std::size_t i = 0; i < w.setup.size(); ++i) {
    setup_lines.push_back(request_line(w, w.setup[i], "s" + std::to_string(i)));
  }
  const auto setup_responses = send_in_order(service, setup_lines);
  // The cold response of each (problem, tile): what every later hit must
  // reproduce.
  std::map<std::pair<std::size_t, std::string>, nusys::ServiceResult> cold;
  for (std::size_t i = 0; i < w.setup.size(); ++i) {
    const auto& name = w.problems[w.setup[i].problem].batch.name;
    if (i >= setup_responses.size() ||
        setup_responses[i].status != nusys::ResponseStatus::kOk ||
        setup_responses[i].results.size() != 1) {
      errors.add(name + ": set-up request failed");
      continue;
    }
    const auto& got = setup_responses[i].results.front();
    if (!got.executed || !got.execution_match) {
      errors.add(name + ": set-up execution does not match the reference");
    }
    cold[{w.setup[i].problem, w.setup[i].tile}] = got;
  }
  emit(ready_event());
  if (args.setup_only) {
    finish(result, errors, 0, 0, peak_rss_mib());
    emit(result);
    return 0;
  }

  const auto check = [&](const Request& r,
                         const nusys::ServiceResponse& resp) -> std::string {
    const auto& name = w.problems[r.problem].batch.name;
    if (resp.status != nusys::ResponseStatus::kOk) {
      return name + ": " + nusys::response_status_name(resp.status) + " " +
             resp.error;
    }
    if (resp.results.size() != 1) return name + ": wrong result count";
    const auto it = cold.find({r.problem, r.tile});
    if (it == cold.end()) return name + ": no cold response to compare";
    return compare_result(it->second, resp.results.front(), true);
  };
  for (const auto& e :
       run_service_load(service, w, w.round, kWarmupSeconds, kClients, check)
           .errors) {
    errors.add(e);
  }
  const double rss = peak_rss_mib();
  const double phase = args.trace ? args.seconds / 3.0 : args.seconds;
  const auto before = service.stats();
  const auto load =
      run_service_load(service, w, w.round, phase, kClients, check);
  const auto after = service.stats();
  for (const auto& e : load.errors) errors.add(e);
  const std::size_t design_misses = after.cache.misses - before.cache.misses;
  const std::size_t plan_misses =
      after.plan_cache.misses - before.plan_cache.misses;
  if (design_misses != 0 || plan_misses != 0) {
    errors.add("timed loop missed a cache: design " +
               std::to_string(design_misses) + ", plan " +
               std::to_string(plan_misses));
  }
  double total_ms = 0.0;
  for (const double l : load.latencies_ms) total_ms += l;
  const double busy_s = after.busy_seconds - before.busy_seconds;
  const double queue_wait_ms =
      (total_ms - busy_s * 1e3) /
      static_cast<double>(std::max<std::size_t>(load.attempted, 1));
  const double utilization =
      busy_s / (load.wall_s * static_cast<double>(kWorkers));

  if (args.trace) {
    // Direct replay of the same rounds, alternately untraced and traced:
    // the difference of their per-op medians is the tracing overhead.
    std::vector<double> untraced;
    std::vector<double> traced_ms;
    const double start = now_s();
    for (std::size_t i = 0; i % w.round.size() != 0 ||
                            now_s() - start < 2.0 * phase ||
                            i < 2 * w.round.size();
         ++i) {
      const bool capped = traced_ms.size() >= kMaxTracedOps;
      const bool on = !capped && (i / w.round.size()) % 2 == 1;
      tracer.set_enabled(on);
      const Request& r = w.round[i % w.round.size()];
      const double t0 = now_s();
      std::string reply;
      {
        const SpanGuard op(tracer, "op");
        reply = direct->handle(request_line(w, r, "d" + std::to_string(i)));
      }
      if (!capped) (on ? traced_ms : untraced).push_back((now_s() - t0) * 1e3);
      errors.add(check(r, nusys::parse_response(reply)));
    }
    tracer.set_enabled(true);
    {
      const SpanGuard check_span(tracer, "check");
      errors.add(direct->audit_plans());
    }
    JsonValue counters = plan_cache_json();
    const auto stats = direct->cache_stats();
    counters.set("synth.cache_hits", stats.hits);
    counters.set("synth.cache_misses", stats.misses);
    counters.set("synth.validation_failures", stats.validation_failures);
    counters.set("designs.plan_bytes", direct->plan_bytes());
    counters.set("designs.plan_points", direct->plan_points());
    counters.set("service.queue_wait_ms", queue_wait_ms);
    counters.set("service.worker_utilization", utilization);
    JsonValue other;
    other.set("workload", "service-warm");
    other.set("traced_ops", traced_ms.size());
    other.set("traced_latencies_ms", number_array(traced_ms));
    other.set("untraced_latencies_ms", number_array(untraced));
    other.set("counters", counters);
    write_trace(args.trace_out, tracer, other);
  }

  Tracer quiet(false);
  CheckMemo memo;
  const auto [makespan_sum, cells_sum] = check_problems(w, memo, errors, quiet);
  for (const auto& [key, expected] : cold) {
    if (!key.second.empty()) continue;  // Tiled hits compare to flat below.
    const auto it = memo.find(w.problems[key.first].key);
    if (it == memo.end() || it->second.report != expected.report) {
      errors.add(expected.name + ": cold service report differs from the "
                 "facade's report");
    }
  }
  for (const auto& [key, expected] : cold) {
    if (key.second.empty()) continue;
    const auto flat = cold.find({key.first, ""});
    if (flat == cold.end() || flat->second.report != expected.report) {
      errors.add(expected.name + ": tiled report differs from the flat one");
    }
  }
  result.set("latencies_ms", number_array(load.latencies_ms));
  result.set("timed_s", load.wall_s);
  result.set("round_s", number_array(load.round_s));
  result.set("round_ops", w.round.size());
  result.set("median_ms_by_request",
             median_by_request(w, load.positions, load.latencies_ms));
  result.set("design_misses_timed", design_misses);
  result.set("plan_misses_timed", plan_misses);
  result.set("design_makespan_sum", makespan_sum);
  result.set("design_cells_sum", cells_sum);
  finish(result, errors, load.attempted, load.failed, rss);
  emit(result);
  return 0;
}

// ---------------------------------------------------------------- simulate --

namespace {

struct SimConfig {
  const Synthesized* design = nullptr;
  nusys::TileOptions tile;
  std::optional<nusys::DPArrayDesign> dp;  ///< Pipeline kinds: as run.
};

struct OpOutcome {
  double seconds = 0.0;
  bool match = false;       ///< Equal to the frontends reference.
  std::string naive_error;  ///< Differs from the benchmark's reference.
};

/// One simulate operation: draw an instance, run it on the array (flat or
/// tiled), compare with the family's reference. Timed up to there; the
/// comparison with the benchmark's naive reference follows untimed.
OpOutcome sim_op(const SimConfig& c, std::uint64_t seed, Tracer& tracer,
                 const std::string& root) {
  OpOutcome out;
  const BatchProblem& p = c.design->problem;
  nusys::Rng rng(seed);
  const double t0 = now_s();
  const std::size_t root_id = tracer.begin(root);
  const Execution ex =
      c.dp ? execute_dp(tracer, p, *c.dp, c.tile, rng)
           : execute_uniform(tracer, p, *c.design->uniform, c.tile, rng);
  tracer.end(root_id);
  out.seconds = now_s() - t0;
  out.match = ex.match;
  out.naive_error = naive_mismatch(ex);
  return out;
}

}  // namespace

int run_simulate(const Args& args) {
  const Workload w = make_workload("simulate", args.seed);
  Tracer tracer(args.trace);
  Errors errors;
  JsonValue result = base_result(args);

  // Set-up: synthesize the fixed designs and compile every plan the timed
  // loop needs (a first tiled uniform run compiles its tiled plan).
  std::vector<Synthesized> designs;
  std::vector<SimConfig> configs;
  {
    const SpanGuard setup(tracer, "setup");
    for (const auto& p : w.problems) {
      designs.push_back(synthesize_problem(p.batch, tracer));
    }
    for (const auto& r : w.round) {
      SimConfig c;
      c.design = &designs.at(r.problem);
      c.tile = request_tile(r);
      const BatchProblem& p = c.design->problem;
      if (c.design->dp) {
        c.dp = traced(tracer, "partition.tile_plan", [&](std::size_t) {
          return nusys::tiled_dp_design(*c.design->dp, p.n, c.tile);
        });
        const SpanGuard span(tracer, "designs.plan_build");
        (void)nusys::detail::acquire_dp_plan(*c.dp, p.n, 1, 0);
      } else if (!c.tile.enabled()) {
        const auto& d = *c.design->uniform;
        const SpanGuard span(tracer, "designs.plan_build");
        (void)nusys::acquire_uniform_plan(nusys::batch_recurrence(p),
                                          d.timing, d.space, d.net);
      } else {
        (void)sim_op(c, 0, tracer, "designs.plan_build");
      }
      configs.push_back(std::move(c));
    }
  }
  emit(ready_event());
  if (args.setup_only) {
    finish(result, errors, 0, 0, peak_rss_mib());
    emit(result);
    return 0;
  }

  // Warm-up rounds draw their instances from a stream of their own, so
  // the timed instances depend on the seed alone.
  SeedStream warmup_seeds(args.seed ^ 0xa7a7a7a7a7a7ULL);
  tracer.set_enabled(false);
  for (const double start = now_s(); now_s() - start < kWarmupSeconds;) {
    for (const auto& c : configs) {
      const OpOutcome op = sim_op(c, warmup_seeds.next(), tracer, "op");
      if (!op.match || !op.naive_error.empty()) {
        errors.add(c.design->problem.name + ": warm-up result is wrong");
      }
    }
  }

  const double rss = peak_rss_mib();

  // Timed loop: whole seeded rounds until `seconds` of operation time.
  SeedStream seeds(args.seed ^ 0x5eed5eed5eedULL);
  const auto plan_before = nusys::wavefront_plan_cache().stats();
  // With tracing, rounds alternate untraced and traced; the difference of
  // their per-op medians is the tracing overhead.
  std::vector<double> latencies;
  std::vector<double> untraced;
  std::vector<double> rounds;  ///< Operation time of each timed round.
  std::vector<std::size_t> positions;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double timed = 0.0;
  for (std::size_t i = 0; i % configs.size() != 0 || timed < args.seconds ||
                          (args.trace && i < 2 * configs.size());
       ++i) {
    const bool capped = args.trace && latencies.size() >= kMaxTracedOps;
    const bool traced_round =
        args.trace && !capped && (i / configs.size()) % 2 == 1;
    tracer.set_enabled(traced_round);
    const SimConfig& c = configs[i % configs.size()];
    OpOutcome op;
    std::string error;
    try {
      op = sim_op(c, seeds.next(), tracer, "op");
      if (!op.match) error = "result differs from the frontends reference";
      if (!op.naive_error.empty()) error = op.naive_error;
    } catch (const std::exception& e) {
      error = e.what();
    }
    timed += op.seconds;
    if (args.trace && !traced_round) {
      if (!capped) untraced.push_back(op.seconds * 1e3);
      errors.add(error);
      continue;
    }
    latencies.push_back(op.seconds * 1e3);
    positions.push_back(i % configs.size());
    if (i % configs.size() == 0) rounds.push_back(0.0);
    rounds.back() += op.seconds;
    ++attempted;
    if (!error.empty()) {
      ++failed;
      errors.add(c.design->problem.name + ": " + error);
    }
  }
  tracer.set_enabled(args.trace);
  const auto plan_after = nusys::wavefront_plan_cache().stats();
  const std::size_t plan_misses = plan_after.misses - plan_before.misses;
  if (plan_misses != 0) {
    errors.add("timed loop missed the plan cache " +
               std::to_string(plan_misses) + " times");
  }

  // Checks: the designs, and an audit of every plan the loop ran.
  double makespan_sum = 0.0;
  double cells_sum = 0.0;
  {
    const SpanGuard check(tracer, "check");
    for (const auto& s : designs) {
      errors.add(s.check.error);
      errors.add(audit_flat_plan(s, tracer));
      makespan_sum += static_cast<double>(s.check.makespan);
      cells_sum += static_cast<double>(s.check.cells);
    }
    for (const auto& c : configs) {
      if (!c.tile.enabled()) continue;
      const BatchProblem& p = c.design->problem;
      if (c.dp) {
        const SpanGuard span(tracer, "analysis.plan_audit");
        const auto acquired =
            nusys::detail::acquire_dp_plan(*c.dp, p.n, 1, 0);
        const auto report = nusys::audit_dp_plan(*acquired.plan, *c.dp, 0,
                                                 p.name + " tiled");
        if (!report.ok()) errors.add(p.name + ": " + report.first_violation());
        continue;
      }
      const auto& d = *c.design->uniform;
      const auto rec = nusys::batch_recurrence(p);
      const auto plan = traced(tracer, "partition.tile_plan", [&](std::size_t) {
        return nusys::build_uniform_tile_plan(rec, d.timing, d.space, d.net,
                                              c.tile);
      });
      const SpanGuard span(tracer, "analysis.plan_audit");
      const auto report = nusys::audit_tile_plan(plan, rec, d.timing, d.space,
                                                 d.net, p.name + " tiled");
      if (!report.ok()) errors.add(p.name + ": " + report.first_violation());
    }
  }
  if (args.trace) {
    JsonValue counters = plan_cache_json();
    counters.set("synth.cache_hits", 0);
    counters.set("synth.cache_misses", 0);
    counters.set("synth.validation_failures", 0);
    double plan_bytes = 0.0;
    double plan_points = 0.0;
    for (const auto& c : configs) {
      const BatchProblem& p = c.design->problem;
      if (c.dp) {
        const auto plan = nusys::detail::acquire_dp_plan(*c.dp, p.n, 1, 0).plan;
        plan_bytes += static_cast<double>(plan->plan_bytes());
        plan_points += static_cast<double>(plan->ops.size());
      } else if (!c.tile.enabled()) {
        const auto& d = *c.design->uniform;
        const auto plan = nusys::acquire_uniform_plan(
                              nusys::batch_recurrence(p), d.timing, d.space,
                              d.net)
                              .plan;
        plan_bytes += static_cast<double>(plan->plan_bytes());
        plan_points += static_cast<double>(plan->count);
      }
    }
    counters.set("designs.plan_bytes", plan_bytes);
    counters.set("designs.plan_points", plan_points);
    counters.set("service.queue_wait_ms", 0);
    counters.set("service.worker_utilization", 0);
    JsonValue other;
    other.set("workload", "simulate");
    other.set("traced_ops", latencies.size());
    other.set("traced_latencies_ms", number_array(latencies));
    other.set("untraced_latencies_ms", number_array(untraced));
    other.set("counters", counters);
    write_trace(args.trace_out, tracer, other);
  }
  result.set("latencies_ms", number_array(latencies));
  result.set("timed_s", timed);
  result.set("round_s", number_array(rounds));
  result.set("round_ops", configs.size());
  result.set("median_ms_by_request",
             median_by_request(w, positions, latencies));
  result.set("design_misses_timed", 0);
  result.set("plan_misses_timed", plan_misses);
  result.set("design_makespan_sum", makespan_sum);
  result.set("design_cells_sum", cells_sum);
  finish(result, errors, attempted, failed, rss);
  emit(result);
  return 0;
}

// -------------------------------------------------------------------- emit --

int run_emit(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, args.pass_index);
  for (const auto& p : w.problems) std::cout << p.jsonl << '\n';
  return 0;
}

}  // namespace perfbench
