#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "service/session.hpp"

namespace perfbench {

/// Verdict on one response: empty when it is correct.
using ResponseCheck = std::function<std::string(
    const Request& request, const nusys::ServiceResponse& response)>;

struct LoadResult {
  std::vector<double> latencies_ms;  ///< One per completed request.
  std::vector<std::size_t> positions;  ///< Its position in the round.
  /// Per round: from the end of the previous round (or the start) to the
  /// completion of the round's last request.
  std::vector<double> round_s;
  double wall_s = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< The first few failures.
};

/// `clients` closed-loop clients send `round` over and over (each request
/// taken once, in order, by whichever client is free) until `seconds`
/// have passed at a round boundary; at least one round is sent.
[[nodiscard]] LoadResult run_service_load(nusys::SynthesisService& service,
                                          const Workload& workload,
                                          const std::vector<Request>& round,
                                          double seconds, std::size_t clients,
                                          const ResponseCheck& check);

/// Sends `lines` one after another over one connection.
[[nodiscard]] std::vector<nusys::ServiceResponse> send_in_order(
    nusys::SynthesisService& service, const std::vector<std::string>& lines);

}  // namespace perfbench
