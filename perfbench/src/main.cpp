// perfbench: one command per workload; prints notes and, as its last
// line, one JSON object with correct / attempted / failed / metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE]
//   perfbench --self-test
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload cold_module|warm_edit|"
               "service_routed --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--trace-out FILE]\n"
               "       perfbench --self-test\n";
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.work_dir = ".bench_build/work";
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::exit(usage());
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() != "0";
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--trace-out") {
        options.trace_out = value();
      } else if (arg == "--self-test") {
        self_test = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (self_test) {
    const int failures = run_self_test();
    std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
              << "\n";
    return failures == 0 ? 0 : 1;
  }
  if (options.seconds <= 0) {
    return usage();
  }

  std::filesystem::create_directories(options.work_dir);
  Tracer tracer(options.trace);
  Report report;
  if (options.workload == "cold_module") {
    report = run_cold_module(options, tracer);
  } else if (options.workload == "warm_edit") {
    report = run_warm_edit(options, tracer);
  } else if (options.workload == "service_routed") {
    report = run_service_routed(options, tracer);
  } else {
    return usage();
  }
  if (tracer.enabled() && !options.trace_out.empty() &&
      !tracer.write(options.trace_out)) {
    std::cerr << "could not write " << options.trace_out << "\n";
  }

  for (const std::string& why : report.failures) {
    std::cerr << "FAILED: " << why << "\n";
  }
  if (report.attempted() == 0) {
    std::cerr << "no operation ran; no result\n";
    return 1;
  }
  for (const std::string& line : report.notes) {
    std::cout << "# " << line << "\n";
  }
  std::string json = "{\"correct\": ";
  json += report.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool comma = false;
  for (const auto& [name, vu] : report.metrics) {
    json += (comma ? ", \"" : "\"") + name + "\": {\"value\": " +
            json_number(vu.first) + ", \"unit\": \"" + vu.second + "\"}";
    comma = true;
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
