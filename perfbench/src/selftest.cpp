// Self-test of the benchmark's checks: each check gets a corrupted input
// and must reject it. Exit status 0 iff every corruption is caught.
#include <functional>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "family.hpp"
#include "support/rng.hpp"
#include "synth/report.hpp"

namespace perfbench {

namespace {

nusys::BatchProblem problem_of(const std::string& jsonl) {
  std::istringstream in(jsonl + "\n");
  return nusys::parse_batch_jsonl(in).at(0);
}

}  // namespace

int run_selftest() {
  JsonValue cases = JsonValue::Array{};
  bool all = true;
  const auto record = [&](const std::string& name, bool caught,
                          const std::string& detail) {
    JsonValue c;
    c.set("case", name);
    c.set("caught", caught);
    c.set("detail", detail);
    cases.push_back(std::move(c));
    all = all && caught;
  };

  // 1. One perturbed output cell of a real run, flat and tiled, uniform
  // and DP: the comparison with the naive reference must notice.
  Tracer quiet(false);
  const auto perturbed = [&](const std::string& name, Execution ex,
                             const std::function<void(Execution&)>& perturb) {
    const std::string clean = naive_mismatch(ex);
    record("true " + name + " run passes", ex.match && clean.empty(), clean);
    perturb(ex);
    const std::string error = naive_mismatch(ex);
    record(name + " run with one perturbed output cell", !error.empty(),
           error);
  };
  const auto conv = problem_of(R"({"kind": "conv", "n": 12, "s": 3})");
  const auto result = nusys::synthesize(nusys::batch_recurrence(conv),
                                        nusys::batch_interconnect(conv));
  const nusys::Design& best = result.best();
  {
    nusys::Rng rng(7);
    perturbed("convolution",
              execute_uniform(quiet, conv, best, nusys::TileOptions{}, rng),
              [](Execution& ex) { ex.y[5] -= 1; });
    const auto mm = problem_of(R"({"kind": "mm", "n": 4})");
    const auto mm_result = nusys::synthesize(nusys::batch_recurrence(mm),
                                             nusys::batch_interconnect(mm));
    perturbed("tiled 2x2 matmul",
              execute_uniform(quiet, mm, mm_result.best(),
                              nusys::parse_tile_shape("2x2"), rng),
              [](Execution& ex) { ex.matrix[1][2] += 1; });
  }

  // 2-3. Corrupted designs of a real synthesis.
  record("true design passes", check_uniform_best(conv, best).error.empty(),
         check_uniform_best(conv, best).error);
  {
    // T orthogonal to the first dependence: T·d = 0.
    const auto d0 = nusys::batch_recurrence(conv).dependences().vectors()[0];
    nusys::Design bad = best;
    bad.timing = nusys::LinearSchedule(nusys::IntVec({d0[1], -d0[0]}));
    const auto check = check_uniform_best(conv, bad);
    record("design with T·d = 0", !check.error.empty(), check.error);
  }
  {
    nusys::Design bad = best;
    bad.routing(0, 0) += 1;
    const auto check = check_uniform_best(conv, bad);
    record("route with S·d != Δ·k", !check.error.empty(), check.error);
  }
  {
    nusys::Design bad = best;
    bad.metrics.cell_count += 1;
    const auto check = check_uniform_best(conv, bad);
    record("misreported cell count", !check.error.empty(), check.error);
  }
  {
    const auto pipe = problem_of(
        R"({"kind": "pipeline", "n": 8, "net": "figure2"})");
    const auto r = nusys::synthesize_nonuniform(
        nusys::batch_spec(pipe), nusys::batch_interconnect(pipe));
    const auto ok = check_pipeline_best(pipe, r.best(), r.schedule_makespan,
                                        r.cell_counts.front());
    record("true pipeline design passes", ok.error.empty(), ok.error);
    nusys::DPArrayDesign bad = r.best();
    std::swap(bad.spaces[0], bad.spaces[1]);
    bad.spaces[0](0, 0) += 1;
    const auto check = check_pipeline_best(pipe, bad, r.schedule_makespan,
                                           r.cell_counts.front());
    record("pipeline design with a corrupted space map",
           !check.error.empty(), check.error);
    nusys::Rng rng(7);
    perturbed("pipeline",
              execute_dp(quiet, pipe, r.best(), nusys::TileOptions{}, rng),
              [](Execution& ex) { ex.table->at(2, 6) += 1; });
  }

  // 4. A cache-hit report that differs from its cold report.
  {
    nusys::ServiceResult cold;
    cold.name = conv.name;
    cold.executed = true;
    cold.execution_match = true;
    cold.report = nusys::make_design_report(nusys::batch_recurrence(conv),
                                            result);
    nusys::ServiceResult hit = cold;
    hit.cache_hit = true;
    record("identical hit passes", compare_result(cold, hit, true).empty(),
           compare_result(cold, hit, true));
    hit.report.designs.back() += " ";
    const auto error = compare_result(cold, hit, true);
    record("cache-hit report differs from the cold report", !error.empty(),
           error);
    record("report digests differ",
           report_digest(hit.report) != report_digest(cold.report), "");
  }

  JsonValue out;
  out.set("event", "selftest");
  out.set("ok", all);
  out.set("cases", std::move(cases));
  emit(out);
  return all ? 0 : 1;
}

}  // namespace perfbench
