// perfbench: the repository benchmark. Normally started by run.py, which
// builds it first:
//
//   perfbench --workload serve_lockstep|serve_churn|design_flow
//             --seed N --seconds S --trace 0|1 --churn-mcodes-s R
//             [--work-dir DIR] [--short] [--corrupt-reference]
//
// Prints detail lines (medians, quartiles, sample counts, output digest)
// and, as the last line, one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, the per-layer ledger with
// --trace 1). Exits 1 when any output was wrong, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using perfbench::Args;
using perfbench::Outcome;

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (k == "--short") {
      a->short_mode = true;
    } else if (k == "--corrupt-reference") {
      a->corrupt_reference = true;
    } else {
      const char* v = value();
      if (v == nullptr) return false;
      if (k == "--workload") {
        a->workload = v;
      } else if (k == "--seed") {
        a->seed = std::strtoull(v, nullptr, 10);
      } else if (k == "--seconds") {
        a->seconds = std::strtod(v, nullptr);
      } else if (k == "--trace") {
        a->trace = std::string(v) == "1";
      } else if (k == "--work-dir") {
        a->work_dir = v;
      } else if (k == "--churn-mcodes-s") {
        a->churn_mcodes_s = std::strtod(v, nullptr);
      } else {
        return false;
      }
    }
  }
  return !a->workload.empty() && a->seconds > 0.0 && a->churn_mcodes_s > 0.0;
}

void print_result(Outcome& out) {
  for (const auto& line : out.notes) std::printf("%s\n", line.c_str());
  std::printf("digest = %016llx\n", static_cast<unsigned long long>(out.digest));
  std::string metrics;
  for (const auto& [name, m] : out.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      ++out.failed;
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
                 "--churn-mcodes-s R [--work-dir D] [--short] [--corrupt-reference]\n");
    return 2;
  }
  Outcome out;
  try {
    if (args.workload == "serve_lockstep") {
      perfbench::run_serve_lockstep(args, out);
    } else if (args.workload == "serve_churn") {
      perfbench::run_serve_churn(args, out);
    } else if (args.workload == "design_flow") {
      perfbench::run_design_flow(args, out);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(out);
  return out.failed == 0 ? 0 : 1;
}
