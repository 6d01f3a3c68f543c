#include "family.hpp"

#include "bench.hpp"
#include "conv/convolution.hpp"
#include "designs/uniform_array.hpp"
#include "dp/sequential.hpp"
#include "partition/tiled_uniform.hpp"
#include "systolic/engine_select.hpp"

namespace perfbench {

using nusys::BatchProblem;

namespace {

std::string exec_span(const nusys::TileOptions& tile) {
  return tile.enabled() ? "partition.tiled_exec" : "systolic.exec";
}

template <typename F>
auto instance(Tracer& tracer, F&& make) {
  return traced(tracer, "frontends.instance",
                [&](std::size_t) { return make(); });
}

template <typename F>
bool reference(Tracer& tracer, F&& same) {
  return traced(tracer, "frontends.reference",
                [&](std::size_t) { return same(); });
}

/// y_1..y_n from the finals of a convolution run; empty unless there is
/// exactly one final per output, on the last reduction plane (k = s for the
/// backward recurrence (4), k = 1 for the forward recurrence (5)).
std::vector<i64> convolution_output(const BatchProblem& p,
                                    const nusys::UniformArrayRun& run) {
  const auto n = static_cast<std::size_t>(p.n);
  const i64 final_k = p.forward ? 1 : p.s;
  std::vector<i64> y(n, 0);
  if (run.finals.size() != n) return {};
  for (const auto& [point, value] : run.finals) {
    if (point[1] != final_k || point[0] < 1 || point[0] > p.n) return {};
    y[static_cast<std::size_t>(point[0] - 1)] = value;
  }
  return y;
}

}  // namespace

Execution execute_uniform(Tracer& tracer, const BatchProblem& problem,
                          const nusys::Design& d,
                          const nusys::TileOptions& tile, nusys::Rng& rng) {
  Execution ex;
  ex.kind = problem.kind;
  const i64 m = problem.m > 0 ? problem.m : problem.n;
  const i64 p = problem.p > 0 ? problem.p : problem.n;
  const auto engine = nusys::engine_kind();
  const auto rec = nusys::batch_recurrence(problem);
  const auto points = static_cast<double>(rec.domain().size());
  const auto run_on_array = [&](auto run) {
    SpanGuard span(tracer, exec_span(tile));
    run(span.id());
    span.count("systolic.points", points);
  };
  switch (problem.kind) {
    case BatchProblem::Kind::kConvolution:
      ex.x = instance(tracer, [&] {
        return rng.uniform_vector(static_cast<std::size_t>(problem.n), -9, 9);
      });
      ex.w = instance(tracer, [&] {
        return rng.uniform_vector(static_cast<std::size_t>(problem.s), -9, 9);
      });
      run_on_array([&](std::size_t id) {
        if (tile.enabled()) {
          const auto run = nusys::run_uniform_design_tiled(
              rec, nusys::convolution_semantics(ex.x, ex.w), d.timing,
              d.space, d.net, tile, engine);
          tracer.count(id, "partition.peak_live_cells",
                       static_cast<double>(run.stats.peak_live_cells));
          ex.y = convolution_output(problem, run);
        } else {
          ex.y = convolution_output(
              problem, nusys::run_convolution_design(rec, ex.x, ex.w,
                                                     d.timing, d.space, d.net,
                                                     engine));
        }
      });
      ex.match = reference(tracer, [&] {
        return !ex.y.empty() && ex.y == nusys::direct_convolution(ex.x, ex.w);
      });
      break;
    case BatchProblem::Kind::kMatMul:
      ex.mm = instance(tracer, [&] {
        return nusys::random_matmul_instance(problem.n, m, p, rng);
      });
      run_on_array([&](std::size_t) {
        ex.matrix = nusys::run_matmul_on_design(ex.mm, d.timing, d.space,
                                                d.net, tile, engine);
      });
      ex.match = reference(
          tracer, [&] { return ex.matrix == nusys::matmul_reference(ex.mm); });
      break;
    case BatchProblem::Kind::kLU:
      ex.lu = instance(tracer, [&] {
        return nusys::random_exact_lu_instance(problem.n, rng);
      });
      run_on_array([&](std::size_t) {
        ex.factors = nusys::run_lu_on_design(ex.lu, d.timing, d.space, d.net,
                                             tile, engine);
      });
      ex.match = reference(
          tracer, [&] { return ex.factors == nusys::lu_reference(ex.lu); });
      break;
    case BatchProblem::Kind::kSmithWaterman:
      ex.sw = instance(tracer, [&] {
        return nusys::random_sw_instance(problem.n, m, problem.band, rng);
      });
      run_on_array([&](std::size_t) {
        ex.matrix = nusys::run_sw_on_design(ex.sw, d.timing, d.space, d.net,
                                            tile, engine);
      });
      ex.match = reference(
          tracer, [&] { return ex.matrix == nusys::sw_reference(ex.sw); });
      break;
    case BatchProblem::Kind::kPipeline:
    case BatchProblem::Kind::kFloydWarshall:
      throw std::invalid_argument(problem.name + " is not a uniform family");
  }
  return ex;
}

Execution execute_dp(Tracer& tracer, const BatchProblem& problem,
                     const nusys::DPArrayDesign& design,
                     const nusys::TileOptions& tile, nusys::Rng& rng) {
  Execution ex;
  ex.kind = problem.kind;
  const auto run_on_array = [&](const nusys::IntervalDPProblem& dp) {
    SpanGuard span(tracer, exec_span(tile));
    auto run = nusys::run_dp_on_array(dp, design);
    span.count("systolic.points", static_cast<double>(run.compute_ops));
    span.count("partition.peak_live_cells",
               static_cast<double>(run.stats.peak_live_cells));
    ex.table = std::move(run.table);
  };
  if (problem.kind == BatchProblem::Kind::kFloydWarshall) {
    ex.fw = instance(tracer,
                     [&] { return nusys::random_dag_instance(problem.n, rng); });
    run_on_array(nusys::fw_problem(ex.fw));
    ex.match = reference(
        tracer, [&] { return *ex.table == nusys::fw_reference(ex.fw); });
  } else if (problem.kind == BatchProblem::Kind::kPipeline) {
    ex.chain = instance(
        tracer, [&] { return nusys::random_matrix_chain(problem.n, rng); });
    run_on_array(*ex.chain);
    ex.match = reference(
        tracer, [&] { return *ex.table == nusys::solve_sequential(*ex.chain); });
  } else {
    throw std::invalid_argument(problem.name + " is not a pipeline family");
  }
  return ex;
}

std::string naive_mismatch(const Execution& ex) {
  switch (ex.kind) {
    case BatchProblem::Kind::kConvolution:
      return ex.y == naive::convolution(ex.x, ex.w)
                 ? ""
                 : "convolution differs from the naive sum";
    case BatchProblem::Kind::kMatMul:
      return ex.matrix == naive::matmul(ex.mm.a, ex.mm.b)
                 ? ""
                 : "matmul differs from the triple loop";
    case BatchProblem::Kind::kLU:
      return naive::lu_factors_ok(ex.lu.a, ex.factors.l, ex.factors.u)
                 ? ""
                 : "L·U differs from A";
    case BatchProblem::Kind::kSmithWaterman:
      return ex.matrix == naive::smith_waterman(ex.sw.a, ex.sw.b, ex.sw.band,
                                                ex.sw.match, ex.sw.mismatch,
                                                ex.sw.gap)
                 ? ""
                 : "alignment table differs from the naive recurrence";
    case BatchProblem::Kind::kFloydWarshall:
      return ex.table && upper_triangle(*ex.table) ==
                             naive::floyd_warshall(ex.fw.w,
                                                   nusys::kFWUnreachable)
                 ? ""
                 : "fw result differs from the naive closure";
    case BatchProblem::Kind::kPipeline:
      return ex.table && ex.chain &&
                     upper_triangle(*ex.table) ==
                         naive::interval_dp(ex.chain->n, ex.chain->init,
                                            ex.chain->combine)
                 ? ""
                 : "pipeline result differs from the naive DP";
  }
  return "unknown family";
}

}  // namespace perfbench
