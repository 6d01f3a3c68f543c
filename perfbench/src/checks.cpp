// Correctness checks of the benchmark, computed apart from the program:
// naive references written from the textbook definitions, and the
// paper's conditions on a design (T·d >= 1, S·d = Δ·k with k >= 0 and
// Σk <= T·d, det[T;S] != 0 or, for the modules of a non-uniform design,
// no two computations on one (cell, tick)) with makespan and cell count recomputed over
// the domain.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

#include "bench.hpp"
#include "chains/modules_emit.hpp"
#include "schedule/coarse.hpp"
#include "support/hash.hpp"

namespace perfbench {

using nusys::IntMat;
using nusys::IntVec;

namespace {

std::vector<i64> times(const IntMat& m, const IntVec& v) {
  std::vector<i64> out(m.rows(), 0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) out[r] += m(r, c) * v[c];
  }
  return out;
}

i64 dot(const IntVec& a, const IntVec& b) {
  i64 s = 0;
  for (std::size_t i = 0; i < a.dim(); ++i) s += a[i] * b[i];
  return s;
}

/// Determinant by Laplace expansion (the matrices here are at most 3x3).
i64 det(const std::vector<std::vector<i64>>& m) {
  const std::size_t n = m.size();
  if (n == 1) return m[0][0];
  i64 sum = 0;
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<std::vector<i64>> minor;
    for (std::size_t r = 1; r < n; ++r) {
      std::vector<i64> row;
      for (std::size_t k = 0; k < n; ++k) {
        if (k != c) row.push_back(m[r][k]);
      }
      minor.push_back(row);
    }
    const i64 term = m[0][c] * det(minor);
    sum += c % 2 == 0 ? term : -term;
  }
  return sum;
}

/// det[T; S] of a schedule row and a space map.
i64 pi_det(const IntVec& t, const IntMat& s) {
  std::vector<std::vector<i64>> pi{std::vector<i64>(t.begin(), t.end())};
  for (std::size_t r = 0; r < s.rows(); ++r) {
    std::vector<i64> row;
    for (std::size_t c = 0; c < s.cols(); ++c) row.push_back(s(r, c));
    pi.push_back(row);
  }
  if (pi.size() != pi.front().size()) return 0;
  return det(pi);
}

/// Is there an integer k >= 0 with Δ·k = disp and Σk <= budget? Plain
/// enumeration of every link multiset of size <= budget.
bool routable(const IntMat& delta, const std::vector<i64>& disp,
              i64 budget) {
  const std::size_t links = delta.cols();
  std::vector<i64> at(disp.size(), 0);
  // Depth-first over non-decreasing link indices.
  std::function<bool(std::size_t, i64)> go = [&](std::size_t from,
                                                 i64 left) {
    if (at == disp) return true;
    if (left == 0) return false;
    for (std::size_t l = from; l < links; ++l) {
      for (std::size_t r = 0; r < at.size(); ++r) at[r] += delta(r, l);
      const bool ok = go(l, left - 1);
      for (std::size_t r = 0; r < at.size(); ++r) at[r] -= delta(r, l);
      if (ok) return true;
    }
    return false;
  };
  return go(0, budget);
}

std::string vec_text(const IntVec& v) { return v.to_string(); }

}  // namespace

DesignCheck check_uniform_best(const nusys::BatchProblem& p,
                               const nusys::Design& best) {
  DesignCheck out;
  const auto rec = nusys::batch_recurrence(p);
  const IntVec& t = best.timing.coeffs();
  const IntMat delta = best.net.delta();
  const auto deps = rec.dependences().vectors();
  if (best.routing.cols() != deps.size() ||
      best.routing.rows() != delta.cols()) {
    out.error = "routing matrix K has the wrong shape";
    return out;
  }
  for (std::size_t j = 0; j < deps.size(); ++j) {
    const i64 slack = dot(t, deps[j]);
    if (slack < 1) {
      out.error = "T·d = " + std::to_string(slack) + " < 1 for d = " +
                  vec_text(deps[j]);
      return out;
    }
    const auto sd = times(best.space, deps[j]);
    i64 hops = 0;
    for (std::size_t l = 0; l < delta.cols(); ++l) {
      if (best.routing(l, j) < 0) {
        out.error = "negative routing coefficient for d = " +
                    vec_text(deps[j]);
        return out;
      }
      hops += best.routing(l, j);
    }
    std::vector<i64> dk(delta.rows(), 0);
    for (std::size_t r = 0; r < delta.rows(); ++r) {
      for (std::size_t l = 0; l < delta.cols(); ++l) {
        dk[r] += delta(r, l) * best.routing(l, j);
      }
    }
    if (dk != sd) {
      out.error = "S·d != Δ·k for d = " + vec_text(deps[j]);
      return out;
    }
    if (hops > slack) {
      out.error = "Σk = " + std::to_string(hops) + " > T·d = " +
                  std::to_string(slack) + " for d = " + vec_text(deps[j]);
      return out;
    }
  }
  if (pi_det(t, best.space) == 0) {
    out.error = "det[T;S] = 0";
    return out;
  }
  i64 first = std::numeric_limits<i64>::max();
  i64 last = std::numeric_limits<i64>::min();
  std::set<std::vector<i64>> cells;
  std::set<std::pair<std::vector<i64>, i64>> slots;
  bool collision = false;
  rec.domain().for_each([&](const IntVec& x) {
    const i64 tick = dot(t, x) + best.timing.offset();
    auto label = times(best.space, x);
    first = std::min(first, tick);
    last = std::max(last, tick);
    collision |= !slots.emplace(label, tick).second;
    cells.insert(std::move(label));
  });
  if (collision) {
    out.error = "two computations share one (cell, tick)";
    return out;
  }
  out.makespan = last - first;
  out.cells = static_cast<i64>(cells.size());
  if (out.makespan != best.metrics.time.makespan() ||
      static_cast<std::size_t>(out.cells) != best.metrics.cell_count) {
    out.error = "recomputed makespan/cells " + std::to_string(out.makespan) +
                "/" + std::to_string(out.cells) + " differ from the design's " +
                std::to_string(best.metrics.time.makespan()) + "/" +
                std::to_string(best.metrics.cell_count);
  }
  return out;
}

DesignCheck check_pipeline_best(const nusys::BatchProblem& p,
                                const nusys::DPArrayDesign& best,
                                i64 reported_makespan,
                                std::size_t reported_cells) {
  DesignCheck out;
  const auto spec = nusys::batch_spec(p);
  const auto coarse = nusys::derive_coarse_timing(spec);
  const nusys::ModuleSystem sys =
      nusys::emit_interval_dp_modules(spec, coarse.schedule());
  const IntMat delta = best.net.delta();
  if (best.schedules.size() != sys.module_count() ||
      best.spaces.size() != sys.module_count()) {
    out.error = "design does not cover every module";
    return out;
  }
  for (std::size_t m = 0; m < sys.module_count(); ++m) {
    const IntVec& t = best.schedules[m].coeffs();
    for (const auto& dep : sys.module(m).local_deps) {
      const i64 slack = dot(t, dep.vector);
      if (slack < 1) {
        out.error = "module " + std::to_string(m) + ": T·d = " +
                    std::to_string(slack) + " < 1";
        return out;
      }
      if (!routable(delta, times(best.spaces[m], dep.vector), slack)) {
        out.error = "module " + std::to_string(m) +
                    ": no k >= 0 with S·d = Δ·k and Σk <= T·d";
        return out;
      }
    }
  }
  // A module's [T;S] may be singular over Z^3 while its domain still maps
  // one to one (the DP modules live on planes of the index space), so the
  // module check is injectivity over the domains, done below.
  // Global statements: the consumer fires after (or with, where allowed)
  // its producer, and the value can travel between the two cells in time.
  for (const auto& g : sys.globals()) {
    const auto& tc = best.schedules[g.consumer];
    const auto& tp = best.schedules[g.producer];
    std::string error;
    g.guard.for_each([&](const IntVec& x) {
      if (!error.empty()) return;
      const IntVec y = g.producer_point.apply(x);
      const i64 gap = tc.at(x) - tp.at(y);
      if (gap < (g.allow_equal_time ? 0 : 1)) {
        error = g.name + ": consumer fires before its producer";
        return;
      }
      auto disp = times(best.spaces[g.consumer], x);
      const auto from = times(best.spaces[g.producer], y);
      for (std::size_t r = 0; r < disp.size(); ++r) disp[r] -= from[r];
      if (!routable(delta, disp, gap)) {
        error = g.name + ": value cannot reach its consumer in time";
      }
    });
    if (!error.empty()) {
      out.error = error;
      return out;
    }
  }
  i64 first = std::numeric_limits<i64>::max();
  i64 last = std::numeric_limits<i64>::min();
  std::set<std::vector<i64>> cells;
  // (cell, tick) -> (module, fold key): computations of different modules
  // may share a slot only when the system folds them (equal fold keys).
  std::map<std::pair<std::vector<i64>, i64>,
           std::pair<std::size_t, std::vector<i64>>>
      slots;
  std::string error;
  for (std::size_t m = 0; m < sys.module_count(); ++m) {
    sys.module(m).domain.for_each([&](const IntVec& x) {
      const i64 tick = best.schedules[m].at(x);
      auto label = times(best.spaces[m], x);
      first = std::min(first, tick);
      last = std::max(last, tick);
      std::vector<i64> key;
      if (sys.fold_key()) {
        const IntVec k = sys.fold_key()->apply(x);
        key.assign(k.begin(), k.end());
      }
      const auto [it, fresh] =
          slots.emplace(std::make_pair(label, tick), std::make_pair(m, key));
      if (!fresh && (it->second.first == m || !sys.fold_key() ||
                     it->second.second != key)) {
        error = "two computations share one (cell, tick)";
      }
      cells.insert(std::move(label));
    });
  }
  if (!error.empty()) {
    out.error = error;
    return out;
  }
  out.makespan = last - first;
  out.cells = static_cast<i64>(cells.size());
  if (out.makespan != reported_makespan ||
      static_cast<std::size_t>(out.cells) != reported_cells) {
    out.error = "recomputed makespan/cells " + std::to_string(out.makespan) +
                "/" + std::to_string(out.cells) + " differ from the reported " +
                std::to_string(reported_makespan) + "/" +
                std::to_string(reported_cells);
  }
  return out;
}

// ------------------------------------------------------ naive references --

namespace naive {

std::vector<i64> convolution(const std::vector<i64>& x,
                             const std::vector<i64>& w) {
  // y_i = Σ_{k=1..s} w_k · x_{i-k}, terms with i - k < 1 are zero.
  std::vector<i64> y(x.size(), 0);
  for (std::size_t i = 1; i <= x.size(); ++i) {
    for (std::size_t k = 1; k <= w.size() && k < i; ++k) {
      y[i - 1] += w[k - 1] * x[i - k - 1];
    }
  }
  return y;
}

std::vector<std::vector<i64>> matmul(const std::vector<std::vector<i64>>& a,
                                     const std::vector<std::vector<i64>>& b) {
  const std::size_t n = a.size();
  const std::size_t p = b.size();
  const std::size_t m = p == 0 ? 0 : b[0].size();
  std::vector<std::vector<i64>> c(n, std::vector<i64>(m, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t k = 0; k < p; ++k) c[i][j] += a[i][k] * b[k][j];
    }
  }
  return c;
}

bool lu_factors_ok(const std::vector<std::vector<i64>>& a,
                   const std::vector<std::vector<i64>>& l,
                   const std::vector<std::vector<i64>>& u) {
  const std::size_t n = a.size();
  if (l.size() != n || u.size() != n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (l[i].size() != n || u[i].size() != n || l[i][i] != 1) return false;
    for (std::size_t j = 0; j < n; ++j) {
      if (j > i && l[i][j] != 0) return false;
      if (j < i && u[i][j] != 0) return false;
    }
  }
  return matmul(l, u) == a;
}

std::vector<std::vector<i64>> smith_waterman(const std::vector<i64>& a,
                                             const std::vector<i64>& b,
                                             i64 band, i64 match,
                                             i64 mismatch, i64 gap) {
  const auto n = static_cast<i64>(a.size());
  const auto m = static_cast<i64>(b.size());
  std::vector<std::vector<i64>> h(a.size(), std::vector<i64>(b.size(), 0));
  const auto in_band = [&](i64 i, i64 j) {
    return i - j <= band && j - i <= band;
  };
  // Row and column 0 read as 0; a neighbour outside the band can never
  // win the max (the lowering injects a value far below zero there).
  const auto cell = [&](i64 i, i64 j, bool& usable) -> i64 {
    usable = true;
    if (i == 0 || j == 0) return 0;
    if (!in_band(i, j)) {
      usable = false;
      return 0;
    }
    return h[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(j - 1)];
  };
  for (i64 i = 1; i <= n; ++i) {
    for (i64 j = 1; j <= m; ++j) {
      if (!in_band(i, j)) continue;
      i64 best = 0;
      bool ok = false;
      const i64 score = a[static_cast<std::size_t>(i - 1)] ==
                                b[static_cast<std::size_t>(j - 1)]
                            ? match
                            : mismatch;
      const i64 diag = cell(i - 1, j - 1, ok);
      if (ok) best = std::max(best, diag + score);
      const i64 up = cell(i - 1, j, ok);
      if (ok) best = std::max(best, up - gap);
      const i64 left = cell(i, j - 1, ok);
      if (ok) best = std::max(best, left - gap);
      h[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(j - 1)] =
          best;
    }
  }
  return h;
}

std::vector<i64> interval_dp(
    i64 n, const std::function<i64(i64)>& init,
    const std::function<i64(i64, i64, i64, i64, i64)>& combine) {
  std::vector<std::vector<i64>> c(static_cast<std::size_t>(n + 1),
                                  std::vector<i64>(static_cast<std::size_t>(n + 1), 0));
  const auto at = [&](i64 i, i64 j) -> i64& {
    return c[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  };
  for (i64 i = 1; i < n; ++i) at(i, i + 1) = init(i);
  for (i64 len = 2; len < n; ++len) {
    for (i64 i = 1; i + len <= n; ++i) {
      const i64 j = i + len;
      i64 best = std::numeric_limits<i64>::max();
      for (i64 k = i + 1; k < j; ++k) {
        best = std::min(best, combine(i, k, j, at(i, k), at(k, j)));
      }
      at(i, j) = best;
    }
  }
  std::vector<i64> upper;
  for (i64 i = 1; i <= n; ++i) {
    for (i64 j = i + 1; j <= n; ++j) upper.push_back(at(i, j));
  }
  return upper;
}

std::vector<i64> floyd_warshall(const std::vector<std::vector<i64>>& w,
                                i64 unreachable) {
  const std::size_t n = w.size();
  std::vector<std::vector<i64>> d(n, std::vector<i64>(n, unreachable));
  for (std::size_t i = 0; i < n; ++i) {
    d[i][i] = 0;
    for (std::size_t j = i + 1; j < n; ++j) d[i][j] = w[i][j];
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        d[i][j] = std::min({d[i][j], d[i][k] + d[k][j], unreachable});
      }
    }
  }
  std::vector<i64> upper;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) upper.push_back(d[i][j]);
  }
  return upper;
}

}  // namespace naive

std::vector<i64> upper_triangle(const nusys::DPTable& table) {
  std::vector<i64> upper;
  for (i64 i = 1; i <= table.n(); ++i) {
    for (i64 j = i + 1; j <= table.n(); ++j) upper.push_back(table.at(i, j));
  }
  return upper;
}


std::string compare_result(const nusys::ServiceResult& expected,
                           const nusys::ServiceResult& got, bool want_hit) {
  if (got.name != expected.name) {
    return "result for '" + got.name + "' where '" + expected.name +
           "' was asked";
  }
  if (!got.executed || !got.execution_match) {
    return got.name + ": execution does not match the reference";
  }
  if (want_hit && !got.cache_hit) {
    return got.name + ": expected a design-cache hit";
  }
  if (got.report != expected.report) {
    return got.name + ": report differs from the cold report";
  }
  return "";
}

std::string report_digest(const nusys::DesignReport& report) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    nusys::fnv1a64(report.render())));
  return buf;
}

}  // namespace perfbench
