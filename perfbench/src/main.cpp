// nusys_perfbench: the benchmark binary behind perfbench/run.py.
//
//   nusys_perfbench <mode> [--workload W] [--seed N] [--seconds S]
//                   [--trace 0|1] [--trace-out FILE] [--setup-only]
//                   [--pass P] [--pass-index K] [--passes N]
//
// Modes: cold-pass, cold-check, warm, simulate (see workloads.cpp), emit
// (print a workload's problems as `nusys batch` JSONL) and selftest
// (feed every check a corrupted input; exit 0 iff each one fails).
#include <chrono>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // The value is in kB.
    }
  }
  return 0.0;
}

void emit(const JsonValue& event) {
  std::cout << event.dump() << std::endl;
}

JsonValue number_array(const std::vector<double>& values) {
  JsonValue out = JsonValue::Array{};
  for (const double v : values) out.push_back(v);
  return out;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Args;
  try {
    if (argc < 2) throw std::invalid_argument("missing mode");
    Args args;
    args.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--setup-only") {
        args.setup_only = true;
        continue;
      }
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--pass") {
        args.pass = value;
      } else if (flag == "--pass-index") {
        args.pass_index = std::stoull(value);
      } else if (flag == "--passes") {
        args.passes = std::stoull(value);
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (args.mode == "cold-pass") return perfbench::run_cold_pass(args);
    if (args.mode == "cold-check") return perfbench::run_cold_check(args);
    if (args.mode == "warm") return perfbench::run_warm(args);
    if (args.mode == "simulate") return perfbench::run_simulate(args);
    if (args.mode == "emit") return perfbench::run_emit(args);
    if (args.mode == "selftest") return perfbench::run_selftest();
    throw std::invalid_argument("unknown mode " + args.mode);
  } catch (const std::exception& e) {
    std::cerr << "nusys_perfbench: " << e.what() << '\n';
    return 2;
  }
}
