// perfbench: the repository's benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// Runs one workload in this process (so ru_maxrss is that workload's
// own) and prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// The line before it is a JSON object of notes (sample counts, verdict
// checksum, the span ledger).  Exits 1 when a correctness check failed.
// perfbench/run.py builds this binary and is the command to use.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Result;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload structural-churn|relabel-storm|"
               "server-sessions --seed N --seconds S --trace 0|1 [--smoke] "
               "[--out-dir DIR]\n");
  return 2;
}

void print_result(const Result& r) {
  std::printf("{");
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    std::printf("%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                r.notes[i].first.c_str(), r.notes[i].second.c_str());
  }
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = o.seconds > 0;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage();
      o.trace = v == "1";
      have_trace = true;
    } else if (arg == "--out-dir" && has_value) {
      o.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  Result r;
  try {
    if (o.workload == "structural-churn") {
      r = perfbench::run_structural_churn(o);
    } else if (o.workload == "relabel-storm") {
      r = perfbench::run_relabel_storm(o);
    } else if (o.workload == "server-sessions") {
      r = perfbench::run_server_sessions(o);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  if (r.attempted == 0) r.fail("no operation was attempted");
  print_result(r);
  return r.correct ? 0 : 1;
}
