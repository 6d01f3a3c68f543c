// One execution of a problem's family on a design, the way the service
// executes a request (frontends/execute.cpp): draw the instance, run it on
// the array flat or tiled, compare the output with the family's frontends
// reference. Each step is a span of the benchmark's Tracer. The comparison
// with the benchmark's own naive reference is a separate call, so callers
// can keep it out of their timed region.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "designs/dp_array.hpp"
#include "dp/problems.hpp"
#include "dp/table.hpp"
#include "frontends/floyd_warshall.hpp"
#include "frontends/lu.hpp"
#include "frontends/matmul.hpp"
#include "frontends/smith_waterman.hpp"
#include "partition/tile.hpp"
#include "support/rng.hpp"
#include "synth/batch.hpp"
#include "synth/design.hpp"
#include "trace.hpp"

namespace perfbench {

using nusys::i64;

/// The instance a family run drew and the array's output. Only the fields
/// of `kind`'s family are filled.
struct Execution {
  nusys::BatchProblem::Kind kind = nusys::BatchProblem::Kind::kConvolution;
  // Instances.
  std::vector<i64> x, w;                       ///< Convolution.
  nusys::MatMulInstance mm;
  nusys::LUInstance lu;
  nusys::SWInstance sw;
  nusys::FWInstance fw;
  std::optional<nusys::IntervalDPProblem> chain;  ///< Pipeline.
  // Outputs.
  std::vector<i64> y;  ///< Convolution y_1..y_n; empty when the array's
                       ///< finals are not exactly one per output on the
                       ///< last reduction plane.
  std::vector<std::vector<i64>> matrix;  ///< Matmul product, SW table.
  nusys::LUFactors factors;
  std::optional<nusys::DPTable> table;   ///< Pipeline and Floyd-Warshall.
  /// The output equals the family's frontends reference.
  bool match = false;
};

/// Runs `problem` (conv/mm/lu/sw) on `design`, tiled when `tile` is enabled,
/// on an instance drawn from `rng`.
[[nodiscard]] Execution execute_uniform(Tracer& tracer,
                                        const nusys::BatchProblem& problem,
                                        const nusys::Design& design,
                                        const nusys::TileOptions& tile,
                                        nusys::Rng& rng);

/// Runs `problem` (pipeline/fw) on `design` as run (already clustered by
/// tiled_dp_design when `tile` is enabled; `tile` only names the span).
[[nodiscard]] Execution execute_dp(Tracer& tracer,
                                   const nusys::BatchProblem& problem,
                                   const nusys::DPArrayDesign& design,
                                   const nusys::TileOptions& tile,
                                   nusys::Rng& rng);

/// Compares an execution's output with the benchmark's naive reference on
/// the same instance. Empty when they agree.
[[nodiscard]] std::string naive_mismatch(const Execution& ex);

}  // namespace perfbench
