// perfbench: the repository benchmark.
//
//   perfbench --workload <train-cd5|single-poisson> --seed <n> --seconds <s>
//             --trace <0|1>
//
// Every input (graphs, features, request targets, arrival instants, graph
// deltas) derives from --seed. --trace 0 prints the end-to-end metrics,
// --trace 1 the per-layer metrics; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <train-cd5|single-poisson> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed must be a non-negative integer");
      have[1] = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds >= 1 && args.seconds <= 120))
        usage("--seconds must be a number in [1, 120]");
      have[2] = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
      have[3] = true;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  for (const bool h : have)
    if (!h) usage("all of --workload, --seed, --seconds and --trace are required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Report report;
  try {
    if (args.workload == "train-cd5")
      perfbench::run_train_cd5(args, report);
    else if (args.workload == "single-poisson")
      perfbench::run_single_poisson(args, report);
    else
      usage(("unknown workload " + args.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  std::printf("%s\n", report.json(args.trace).c_str());
  return 0;
}
