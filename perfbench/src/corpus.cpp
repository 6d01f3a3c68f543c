// Seeded workload generator: the problems and request rounds of each
// workload, derived only from the seed. `nusys_perfbench emit` prints them
// as `nusys batch` JSONL so any run can be replayed outside the benchmark.
#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

i64 SeedStream::uniform(i64 lo, i64 hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<i64>(next() % span);
}

namespace {

template <typename T>
void shuffle(std::vector<T>& items, SeedStream& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform(0, static_cast<i64>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

/// Builds the JSONL line of one problem and parses it with the library's
/// batch parser, so every generated problem is `nusys batch` input.
class ProblemBuilder {
 public:
  ProblemBuilder(std::string kind, std::string name) : name_(std::move(name)) {
    fields_ << "\"kind\": \"" << kind << '"';
  }
  ProblemBuilder& num(const char* field, i64 value) {
    fields_ << ", \"" << field << "\": " << value;
    return *this;
  }
  ProblemBuilder& net(const std::string& net) {
    fields_ << ", \"net\": \"" << net << '"';
    return *this;
  }
  Problem build() {
    Problem p;
    p.key = fields_.str();
    p.jsonl = "{" + p.key + ", \"name\": \"" + name_ + "\"}";
    std::istringstream in(p.jsonl + "\n");
    p.batch = nusys::parse_batch_jsonl(in).at(0);
    return p;
  }

 private:
  std::string name_;
  std::ostringstream fields_;
};

Problem mm(const std::string& name, i64 n, i64 m, i64 p) {
  return ProblemBuilder("mm", name).num("n", n).num("m", m).num("p", p)
      .build();
}
Problem lu(const std::string& name, i64 n) {
  return ProblemBuilder("lu", name).num("n", n).build();
}
Problem sw(const std::string& name, i64 n, i64 m, i64 band) {
  return ProblemBuilder("sw", name).num("n", n).num("m", m)
      .num("band", band).build();
}
Problem conv(const std::string& name, i64 n, i64 s) {
  return ProblemBuilder("conv", name).num("n", n).num("s", s).build();
}
Problem dp(const char* kind, const std::string& name, i64 n,
           const std::string& net) {
  return ProblemBuilder(kind, name).num("n", n).net(net).build();
}

/// service-cold: 24 distinct problems over all six families plus 8
/// duplicate lines (a quarter of the 32), in seeded order. Sizes are a
/// fixed base per slot plus a small seeded jitter; each pass of a run draws
/// its own corpus (`index`), so a run averages over many corpora. Pipeline problems come in figure1/figure2 pairs at one
/// even n; fw uses odd n so it never aliases a pipeline cache key.
Workload cold(std::uint64_t seed, std::uint64_t index) {
  SeedStream rng(seed * 0x100000001b3ULL + index);
  Workload w;
  w.name = "service-cold";
  for (int i = 0; i < 4; ++i) {
    std::vector<i64> dims{3 + i / 2 + rng.uniform(0, 1),
                          4 + i / 2 + rng.uniform(0, 1),
                          4 + (i + 1) / 2 + rng.uniform(0, 1)};
    shuffle(dims, rng);
    w.problems.push_back(
        mm("mm" + std::to_string(i), dims[0], dims[1], dims[2]));
  }
  for (int i = 0; i < 4; ++i) {
    w.problems.push_back(lu("lu" + std::to_string(i), 4 + i + rng.uniform(0, 1)));
  }
  for (int i = 0; i < 4; ++i) {
    const i64 n = 16 + 8 * i + rng.uniform(0, 3);
    w.problems.push_back(sw("sw" + std::to_string(i), n,
                            n + rng.uniform(-2, 2), rng.uniform(2, 4)));
  }
  for (int i = 0; i < 4; ++i) {
    w.problems.push_back(conv("conv" + std::to_string(i),
                              16 + 16 * i + rng.uniform(0, 7),
                              rng.uniform(3, 8)));
  }
  for (int pair = 0; pair < 2; ++pair) {
    const i64 n = 8 + 4 * pair + 2 * rng.uniform(0, 1);
    w.problems.push_back(dp("pipeline", "pipe" + std::to_string(pair) + "f1",
                            n, "figure1"));
    w.problems.push_back(dp("pipeline", "pipe" + std::to_string(pair) + "f2",
                            n, "figure2"));
  }
  for (int i = 0; i < 4; ++i) {
    const i64 n = 7 + 4 * (i / 2) + 2 * rng.uniform(0, 1);
    w.problems.push_back(dp("fw", "fw" + std::to_string(i), n,
                            i % 2 == 0 ? "figure1" : "figure2"));
  }
  for (std::size_t i = 0; i < w.problems.size(); ++i) {
    w.round.push_back(Request{i, ""});
  }
  // Duplicates are design-cache hits; half of them execute tiled (4x4).
  for (int d = 0; d < 8; ++d) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform(0, static_cast<i64>(w.problems.size()) - 1));
    w.round.push_back(Request{pick, d % 2 == 0 ? "" : "4x4"});
  }
  shuffle(w.round, rng);
  return w;
}

/// service-warm: nine problems, one of them a large-domain convolution
/// (|I| about 16k points, so replay cost shows its growth with |I|) and a
/// figure1/figure2 pipeline pair. A round resends each flat request three
/// times (the large convolution once) and six tiled requests twice. The
/// seed jitters the small convolution's and sw's sizes, names every problem
/// (which seeds its executed instance) and orders the round. The other
/// sizes are fixed: their replays cost the most and set the tail, which
/// would otherwise move with the seed.
Workload warm(std::uint64_t seed) {
  SeedStream rng(seed);
  Workload w;
  w.name = "service-warm";
  const std::string tag = "-" + std::to_string(seed);
  w.problems = {
      conv("conv-large" + tag, 256, 64),
      conv("conv" + tag, 40 + rng.uniform(0, 8), 6 + rng.uniform(0, 2)),
      mm("mm" + tag, 7, 7, 7),
      lu("lu" + tag, 8),
      sw("sw" + tag, 56 + rng.uniform(0, 8), 56 + rng.uniform(0, 8), 4),
      dp("pipeline", "pipe-f1" + tag, 12, "figure1"),
      dp("pipeline", "pipe-f2" + tag, 12, "figure2"),
      dp("fw", "fw-f2" + tag, 11, "figure2"),
      dp("fw", "fw-f1" + tag, 13, "figure1"),
  };
  const std::vector<Request> tiled{{1, "8x8"}, {2, "4x4"}, {3, "4x4"},
                                   {4, "8x8"}, {6, "4x4"}, {8, "8x8"}};
  for (std::size_t i = 0; i < w.problems.size(); ++i) {
    w.setup.push_back(Request{i, ""});
    const int copies = i == 0 ? 1 : 3;
    for (int c = 0; c < copies; ++c) w.round.push_back(Request{i, ""});
  }
  for (const auto& t : tiled) {
    w.setup.push_back(t);
    w.round.push_back(t);
    w.round.push_back(t);
  }
  shuffle(w.round, rng);
  return w;
}

/// simulate: six fixed designs, each run flat and tiled; the seed only
/// orders the rounds and draws the instances (see workloads.cpp).
Workload simulate(std::uint64_t seed) {
  SeedStream rng(seed);
  Workload w;
  w.name = "simulate";
  w.problems = {
      conv("sim-conv", 128, 16),
      mm("sim-mm", 10, 10, 10),
      lu("sim-lu", 10),
      sw("sim-sw", 96, 96, 6),
      dp("pipeline", "sim-pipe", 16, "figure2"),
      dp("fw", "sim-fw", 16, "figure1"),
  };
  const std::vector<std::string> tiles{"8x8", "4x4", "4x4",
                                       "8x8", "4x4", "4x4"};
  for (std::size_t i = 0; i < w.problems.size(); ++i) {
    w.round.push_back(Request{i, ""});
    w.round.push_back(Request{i, tiles[i]});
  }
  shuffle(w.round, rng);
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::uint64_t index) {
  if (name == "service-cold") return cold(seed, index);
  if (name == "service-warm") return warm(seed);
  if (name == "simulate") return simulate(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string request_line(const Workload& workload, const Request& request,
                         const std::string& id) {
  std::string line = "{\"id\": \"" + id +
                     "\", \"kind\": \"synth\", \"execute\": true, ";
  if (!request.tile.empty()) line += "\"tile\": \"" + request.tile + "\", ";
  line += "\"problems\": [" + workload.problems.at(request.problem).jsonl +
          "]}";
  return line;
}

nusys::TileOptions request_tile(const Request& request) {
  if (request.tile.empty()) return {};
  return nusys::parse_tile_shape(request.tile);
}

}  // namespace perfbench
