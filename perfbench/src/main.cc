// qbench — the repository benchmark. Runs one workload per process:
//
//   qbench --workload <pair-large|corpus-search|served-mix> --seed <n>
//          --seconds <s> --trace <0|1> [--root <checkout>]
//          [--latency-limit-ms <ms>]   (required by served-mix)
//   qbench --selftest honesty [--seed <n>] [--root <checkout>]
//
// The last line of standard output is the result object; "report" lines
// before it carry the workload property report. See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  qbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "qbench: %s needs a value\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--root") {
      args.root = value;
    } else if (flag == "--latency-limit-ms") {
      args.latency_limit_ms = std::atof(value.c_str());
    } else if (flag == "--selftest") {
      args.selftest = value;
    } else {
      std::fprintf(stderr, "qbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds < 1) {
    std::fprintf(stderr, "qbench: --seconds must be positive\n");
    return 2;
  }
  if (args.workload == "served-mix" && args.latency_limit_ms <= 0) {
    std::fprintf(stderr, "qbench: served-mix needs a positive --latency-limit-ms\n");
    return 2;
  }
  if (args.selftest == "honesty") return qbench::RunHonestyCheck(args);
  if (!args.selftest.empty()) {
    std::fprintf(stderr, "qbench: unknown self-test %s\n", args.selftest.c_str());
    return 2;
  }
  if (args.workload == "pair-large") return qbench::RunPairLarge(args);
  if (args.workload == "corpus-search") return qbench::RunCorpusSearch(args);
  if (args.workload == "served-mix") return qbench::RunServedMix(args);
  std::fprintf(stderr, "qbench: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
