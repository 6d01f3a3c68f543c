// Shared declarations of the nusys end-to-end benchmark binary.
//
// The benchmark is one binary, `nusys_perfbench`, invoked by perfbench/run.py
// once per process the benchmark needs (see README.md). Each invocation
// prints JSON lines on stdout: an optional {"event": "ready"} line when its
// set-up is done, then one {"event": "result"} line with the raw facts
// (per-operation latencies, cache counters, check verdicts) that run.py
// turns into metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dp/table.hpp"
#include "partition/tile.hpp"
#include "service/protocol.hpp"
#include "support/json.hpp"
#include "synth/batch.hpp"

namespace perfbench {

using nusys::i64;
using nusys::JsonValue;

// ---------------------------------------------------------------- corpus --

/// One distinct problem of a workload, as a `nusys batch` JSONL line and
/// the BatchProblem the library parses from it.
struct Problem {
  std::string jsonl;
  std::string key;  ///< The JSONL fields but the name: equal keys, equal
                    ///< problems.
  nusys::BatchProblem batch;
};

/// One request of a workload: a problem plus an optional tile shape.
struct Request {
  std::size_t problem = 0;
  std::string tile;  ///< "" = flat, else "PxQ".
};

/// The seeded inputs of one workload.
struct Workload {
  std::string name;
  std::vector<Problem> problems;
  /// service-warm: the requests that fill the caches during set-up.
  std::vector<Request> setup;
  /// One round of timed operations; every run attempts whole rounds.
  std::vector<Request> round;
};

/// Builds the inputs of `name` (service-cold | service-warm | simulate)
/// from `seed`; `index` picks one of service-cold's per-pass corpora.
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed,
                                     std::uint64_t index = 0);

/// The service request line of `request` (an execute synth request).
[[nodiscard]] std::string request_line(const Workload& workload,
                                       const Request& request,
                                       const std::string& id);

/// The tile options a request names (disabled when flat).
[[nodiscard]] nusys::TileOptions request_tile(const Request& request);

/// splitmix64: the generator behind every seeded choice of the benchmark.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi].
  i64 uniform(i64 lo, i64 hi);

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------- checks --

/// Outcome of checking one best design: an empty `error` means every
/// property held; makespan and cells are recomputed over the domain.
struct DesignCheck {
  std::string error;
  i64 makespan = 0;
  i64 cells = 0;
};

/// Checks the best design of a uniform-kind problem (conv/mm/lu/sw).
[[nodiscard]] DesignCheck check_uniform_best(const nusys::BatchProblem& p,
                                             const nusys::Design& best);

/// Checks the best design of a pipeline-kind problem (pipeline/fw).
[[nodiscard]] DesignCheck check_pipeline_best(
    const nusys::BatchProblem& p, const nusys::DPArrayDesign& best,
    i64 reported_makespan, std::size_t reported_cells);

/// The benchmark's own references, written from the textbook definitions.
namespace naive {
std::vector<i64> convolution(const std::vector<i64>& x,
                             const std::vector<i64>& w);
std::vector<std::vector<i64>> matmul(const std::vector<std::vector<i64>>& a,
                                     const std::vector<std::vector<i64>>& b);
/// True when l is unit lower triangular, u upper triangular and l·u == a.
bool lu_factors_ok(const std::vector<std::vector<i64>>& a,
                   const std::vector<std::vector<i64>>& l,
                   const std::vector<std::vector<i64>>& u);
std::vector<std::vector<i64>> smith_waterman(const std::vector<i64>& a,
                                             const std::vector<i64>& b,
                                             i64 band, i64 match,
                                             i64 mismatch, i64 gap);
/// O(n^3) interval DP c(i,j) = min_k f(i,k,j,c(i,k),c(k,j)); row-major
/// upper triangle, entry (i,j) at index of pair_index(n, i, j).
std::vector<i64> interval_dp(
    i64 n, const std::function<i64(i64)>& init,
    const std::function<i64(i64, i64, i64, i64, i64)>& combine);
/// Floyd-Warshall over the full matrix (0 diagonal, `unreachable` for
/// absent edges, sums clamped at it); upper triangle like interval_dp.
std::vector<i64> floyd_warshall(const std::vector<std::vector<i64>>& w,
                                i64 unreachable);
}  // namespace naive

/// Row-major upper triangle c(i,j), i < j, of a DP table.
[[nodiscard]] std::vector<i64> upper_triangle(const nusys::DPTable& table);

/// Compares a service result with the result expected for the same
/// problem: same name and report, executed and matching its reference,
/// and a design-cache hit when `want_hit`. Empty when equal.
[[nodiscard]] std::string compare_result(const nusys::ServiceResult& expected,
                                         const nusys::ServiceResult& got,
                                         bool want_hit);

/// Hex digest of a design report's rendering.
[[nodiscard]] std::string report_digest(const nusys::DesignReport& report);

// ---------------------------------------------------------------- output --

/// Peak resident set of this process in MiB (VmHWM of /proc/self/status).
[[nodiscard]] double peak_rss_mib();

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

/// Prints one JSON event line and flushes.
void emit(const JsonValue& event);

/// JSON array of numbers.
[[nodiscard]] JsonValue number_array(const std::vector<double>& values);

// ------------------------------------------------------------- workloads --

/// Command-line settings of one invocation (see main.cpp).
struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string pass = "service";  ///< cold-pass: service | direct | traced.
  std::uint64_t pass_index = 0;  ///< cold-pass: which corpus of the run.
  std::uint64_t passes = 1;      ///< cold-check: corpora 0..passes-1.
  std::string trace_out;         ///< Trace file of a traced invocation.
};

int run_cold_pass(const Args& args);
int run_cold_check(const Args& args);
int run_warm(const Args& args);
int run_simulate(const Args& args);
int run_emit(const Args& args);
int run_selftest();

}  // namespace perfbench
