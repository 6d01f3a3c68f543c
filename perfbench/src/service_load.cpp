// Closed-loop load over the in-process loopback: each client owns one
// loopback connection served by serve_connection (the TCP daemon's line
// loop minus the socket) and sends its next request only after the
// previous response arrived.
#include "service_load.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <thread>

#include "service/server.hpp"

namespace perfbench {

LoadResult run_service_load(nusys::SynthesisService& service,
                            const Workload& workload,
                            const std::vector<Request>& round,
                            double seconds, std::size_t clients,
                            const ResponseCheck& check) {
  LoadResult out;
  std::vector<double> round_end;  ///< Latest completion per round.
  std::mutex mu;
  std::size_t next = 0;
  bool done = false;
  const double start = now_s();
  // Whole rounds: the run stops only where a new round would begin.
  const auto claim = [&]() -> std::optional<std::size_t> {
    const std::lock_guard<std::mutex> lock(mu);
    if (done) return std::nullopt;
    if (next > 0 && next % round.size() == 0 && now_s() - start >= seconds) {
      done = true;
      return std::nullopt;
    }
    return next++;
  };
  const auto client = [&] {
    nusys::LoopbackPair pair = nusys::make_loopback();
    std::thread server(
        [&] { nusys::serve_connection(service, *pair.server); });
    while (const auto index = claim()) {
      const Request& request = round[*index % round.size()];
      const std::string line =
          request_line(workload, request, "r" + std::to_string(*index));
      const double t0 = now_s();
      double latency_ms = -1.0;
      std::string error;
      try {
        pair.client->send_line(line);
        const auto reply = pair.client->recv_line();
        latency_ms = (now_s() - t0) * 1e3;
        error = reply ? check(request, nusys::parse_response(*reply))
                      : "connection closed";
      } catch (const std::exception& e) {
        error = e.what();
      }
      const std::lock_guard<std::mutex> lock(mu);
      const std::size_t r = *index / round.size();
      if (round_end.size() <= r) round_end.resize(r + 1, 0.0);
      round_end[r] = std::max(round_end[r], now_s());
      ++out.attempted;
      if (latency_ms >= 0.0) {
        out.latencies_ms.push_back(latency_ms);
        out.positions.push_back(*index % round.size());
      }
      if (!error.empty()) {
        ++out.failed;
        if (out.errors.size() < 5) out.errors.push_back(error);
      }
    }
    pair.client->close();
    server.join();
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client);
  for (auto& t : threads) t.join();
  out.wall_s = now_s() - start;
  double previous = start;
  for (const double end : round_end) {
    out.round_s.push_back(end - previous);
    previous = end;
  }
  return out;
}

std::vector<nusys::ServiceResponse> send_in_order(
    nusys::SynthesisService& service, const std::vector<std::string>& lines) {
  nusys::LoopbackPair pair = nusys::make_loopback();
  std::thread server([&] { nusys::serve_connection(service, *pair.server); });
  std::vector<nusys::ServiceResponse> responses;
  for (const auto& line : lines) {
    pair.client->send_line(line);
    const auto reply = pair.client->recv_line();
    if (!reply) break;
    responses.push_back(nusys::parse_response(*reply));
  }
  pair.client->close();
  server.join();
  return responses;
}

}  // namespace perfbench
