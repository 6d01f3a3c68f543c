// Direct-call replay of a service request, one layer call at a time.
//
// DirectSession::handle(line) does what SynthesisService does for an
// execute synth request (service/session.cpp, frontends/execute.cpp) —
// parse, canonical key, design-cache lookup and replay or search, report,
// plan acquire, front execution, reference check, encode — but as direct
// calls into each layer's public functions, each wrapped in a span of the
// benchmark's Tracer. With a disabled tracer it is the untraced baseline
// of the same work.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "service/protocol.hpp"
#include "support/cache.hpp"
#include "systolic/plan_cache.hpp"
#include "synth/batch.hpp"
#include "trace.hpp"

namespace perfbench {

class DirectSession {
 public:
  explicit DirectSession(Tracer& tracer);

  /// Replays one request line; returns the encoded response line.
  std::string handle(const std::string& line);

  /// Audits every flat plan this session executed (analysis layer).
  /// Returns the first violation, empty when every plan certified.
  std::string audit_plans();

  [[nodiscard]] nusys::CacheStats cache_stats() const {
    return cache_.stats();
  }
  /// Bytes and points of the plans this session built.
  [[nodiscard]] double plan_bytes() const noexcept { return plan_bytes_; }
  [[nodiscard]] double plan_points() const noexcept { return plan_points_; }

 private:
  nusys::ServiceResult run_uniform(const nusys::BatchProblem& problem,
                                   const nusys::TileOptions& tile,
                                   bool execute);
  nusys::ServiceResult run_pipeline(const nusys::BatchProblem& problem,
                                    const nusys::TileOptions& tile,
                                    bool execute);
  void count_plan(std::size_t span, double bytes, double points);

  Tracer& tracer_;
  nusys::DesignCache cache_;
  nusys::SynthesisOptions synth_;
  nusys::NonUniformSynthesisOptions pipe_;
  double plan_bytes_ = 0.0;
  double plan_points_ = 0.0;
  /// The design behind every flat plan executed, for audit_plans(); the
  /// plan is held so its address keys it for the session's lifetime.
  struct Executed {
    std::shared_ptr<const nusys::CachedPlan> plan;
    nusys::BatchProblem problem;
    std::optional<nusys::Design> uniform;
    std::optional<nusys::DPArrayDesign> dp;
  };
  std::map<const void*, Executed> executed_;
};

}  // namespace perfbench
