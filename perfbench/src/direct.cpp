#include "direct.hpp"

#include <optional>

#include "analysis/plan_audit.hpp"
#include "bench.hpp"
#include "designs/dp_plan.hpp"
#include "designs/uniform_plan.hpp"
#include "family.hpp"
#include "ir/canonical.hpp"
#include "partition/dp_tiling.hpp"
#include "support/hash.hpp"
#include "synth/design_cache.hpp"
#include "synth/report.hpp"
#include "systolic/engine_select.hpp"
#include "systolic/plan_cache.hpp"

namespace perfbench {

using nusys::BatchProblem;

DirectSession::DirectSession(Tracer& tracer) : tracer_(tracer) {
  // The service's per-request settings: the sequential search path and the
  // shared cache (here the session's own).
  synth_.parallelism.threads = 1;
  pipe_.parallelism.threads = 1;
  pipe_.cache = &cache_;
}

void DirectSession::count_plan(std::size_t span, double bytes,
                               double points) {
  tracer_.rename(span, "designs.plan_build");
  plan_bytes_ += bytes;
  plan_points_ += points;
}

std::string DirectSession::handle(const std::string& line) {
  const auto request = traced(tracer_, "service.parse", [&](std::size_t) {
    return nusys::parse_request(line);
  });
  nusys::ServiceResponse response;
  response.id = request.id;
  for (const auto& problem : request.problems) {
    response.results.push_back(
        nusys::batch_uses_pipeline(problem)
            ? run_pipeline(problem, request.tile, request.execute)
            : run_uniform(problem, request.tile, request.execute));
  }
  SpanGuard span(tracer_, "service.encode");
  std::string out = nusys::encode_response(response);
  span.count("service.response_bytes", static_cast<double>(out.size()));
  return out;
}

nusys::ServiceResult DirectSession::run_uniform(const BatchProblem& problem,
                                                const nusys::TileOptions& tile,
                                                bool execute) {
  nusys::ServiceResult result;
  result.name = problem.name;
  const auto net = nusys::batch_interconnect(problem);
  const auto rec = nusys::batch_recurrence(problem);

  const auto form = traced(tracer_, "ir.canonicalize", [&](std::size_t) {
    return nusys::canonicalize_recurrence(rec);
  });
  const std::string key = nusys::synthesis_cache_key(form, net, synth_);
  // Domain size on the synthesis spans: replay and search costs grow with
  // |I| (trace_summary.py --by-size).
  const auto domain_points = static_cast<double>(rec.domain().size());
  auto synthesis = traced(tracer_, "synth.replay", [&](std::size_t id) {
    std::optional<nusys::SynthesisResult> replay;
    if (const auto payload = cache_.lookup(key)) {
      tracer_.count(id, "domain_points", domain_points);
      replay = nusys::replay_synthesis_entry(*payload, rec, net, form);
      if (!replay) cache_.reject(key);
    }
    return replay;
  });
  result.cache_hit = synthesis.has_value();
  if (!synthesis) {
    SpanGuard span(tracer_, "synth.search");
    span.count("domain_points", domain_points);
    synthesis = nusys::synthesize(rec, net, synth_);
    tracer_.add_stages(span.id(), synthesis->telemetry,
                       {{"schedule", "schedule.search"},
                        {"space", "space.search"}});
    if (synthesis->found()) {
      cache_.insert(key, nusys::encode_synthesis_entry(*synthesis, form));
    }
  }
  result.report = traced(tracer_, "synth.report", [&](std::size_t) {
    return nusys::make_design_report(rec, *synthesis);
  });
  if (!execute || !synthesis->found()) return result;

  // The service keys plan ownership by the design-cache key, which it
  // derives from a second canonicalization of the recurrence.
  const std::string owner_key =
      traced(tracer_, "ir.canonicalize", [&](std::size_t) {
        return nusys::synthesis_cache_key(
            nusys::canonicalize_recurrence(rec), net, synth_);
      });
  const nusys::PlanOwnerScope owner(owner_key);
  const nusys::Design& best = synthesis->designs.front();
  if (!tile.enabled()) {
    const SpanGuard span(tracer_, "systolic.plan_acquire");
    const auto acquired =
        nusys::acquire_uniform_plan(rec, best.timing, best.space, best.net);
    if (!acquired.cache_hit) {
      count_plan(span.id(), static_cast<double>(acquired.plan->plan_bytes()),
                 static_cast<double>(acquired.plan->count));
    }
    if (!executed_.count(acquired.plan.get())) {
      executed_[acquired.plan.get()] =
          Executed{acquired.plan, problem, best, std::nullopt};
    }
  }
  // The service seeds each execution from the problem name.
  nusys::Rng rng(1 ^ nusys::fnv1a64(problem.name));
  result.execution_match =
      execute_uniform(tracer_, problem, best, tile, rng).match;
  result.executed = true;
  result.engine = nusys::engine_kind_name(nusys::engine_kind());
  return result;
}

nusys::ServiceResult DirectSession::run_pipeline(
    const BatchProblem& problem, const nusys::TileOptions& tile,
    bool execute) {
  nusys::ServiceResult result;
  result.name = problem.name;
  const auto net = nusys::batch_interconnect(problem);
  const auto spec = nusys::batch_spec(problem);

  // The facade keys, looks up and replays internally; its telemetry splits
  // the time between the coarse and module stages. What is left (chain
  // analysis, module emission, cache key and replay) is the span's own.
  const auto synthesis = traced(tracer_, "synth.search", [&](std::size_t id) {
    auto out = nusys::synthesize_nonuniform(spec, net, pipe_);
    if (out.telemetry.total_cache_hits() > 0) {
      tracer_.rename(id, "synth.replay");
    }
    tracer_.add_stages(id, out.telemetry,
                       {{"coarse-schedule", "chains.coarse"},
                        {"module-schedule", "modules.schedule_search"},
                        {"module-space", "modules.space_search"}});
    return out;
  });
  result.cache_hit = synthesis.telemetry.total_cache_hits() > 0;
  result.report = traced(tracer_, "synth.report", [&](std::size_t) {
    return nusys::make_pipeline_report(spec, synthesis);
  });
  if (!execute || !synthesis.found()) return result;

  const std::string owner_key =
      traced(tracer_, "ir.canonicalize", [&](std::size_t) {
        return nusys::pipeline_cache_key(spec, net, pipe_);
      });
  const nusys::PlanOwnerScope owner(owner_key);
  const auto design = traced(tracer_, "partition.tile_plan", [&](std::size_t) {
    return nusys::tiled_dp_design(synthesis.best(), problem.n, tile);
  });
  {
    const SpanGuard span(tracer_, "systolic.plan_acquire");
    const auto acquired =
        nusys::detail::acquire_dp_plan(design, problem.n, 1, 0);
    if (!acquired.cache_hit) {
      count_plan(span.id(), static_cast<double>(acquired.plan->plan_bytes()),
                 static_cast<double>(acquired.plan->ops.size()));
    }
    if (!executed_.count(acquired.plan.get())) {
      executed_[acquired.plan.get()] =
          Executed{acquired.plan, problem, std::nullopt, design};
    }
  }
  nusys::Rng rng(1 ^ nusys::fnv1a64(problem.name));
  result.execution_match =
      execute_dp(tracer_, problem, design, tile, rng).match;
  result.executed = true;
  result.engine = nusys::engine_kind_name(nusys::engine_kind());
  return result;
}

std::string DirectSession::audit_plans() {
  for (const auto& [plan, ex] : executed_) {
    const SpanGuard span(tracer_, "analysis.plan_audit");
    std::optional<nusys::PlanAuditReport> report;
    if (ex.dp) {
      const auto acquired =
          nusys::detail::acquire_dp_plan(*ex.dp, ex.problem.n, 1, 0);
      report = nusys::audit_dp_plan(*acquired.plan, *ex.dp, 0,
                                    ex.problem.name);
    } else {
      const auto rec = nusys::batch_recurrence(ex.problem);
      const auto& d = *ex.uniform;
      const auto acquired =
          nusys::acquire_uniform_plan(rec, d.timing, d.space, d.net);
      report = nusys::audit_uniform_plan(*acquired.plan, rec, d.timing,
                                         d.space, d.net, ex.problem.name);
    }
    if (!report->ok()) {
      return ex.problem.name + ": " + report->first_violation();
    }
  }
  return "";
}

}  // namespace perfbench
