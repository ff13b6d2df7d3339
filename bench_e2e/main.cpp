// fedra end-to-end benchmark: the command-line entry point.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (see README.md), prints the environment record and a
// metric table, and ends with one JSON line: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// Exit status: 0 when every output check passed, 1 when one failed, 2 on
// bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "sim/fleet_pricing.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <train_fig6|eval_fig8|fleet_1m|"
               "fleet_churn> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedra::e2e;
  RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t v = 0;
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && parse_u64(value, &v)) {
      opts.seed = v;
    } else if (arg == "--seconds" && parse_u64(value, &v) && v > 0) {
      opts.seconds = static_cast<double>(v);
    } else if (arg == "--trace" && parse_u64(value, &v) && v <= 1) {
      opts.trace = v == 1;
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const auto& w : workload_names()) known = known || w == opts.workload;
  if (!have_workload || !known) return usage();

#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
  std::fprintf(stderr,
               "bench_e2e: WARNING: non-optimised build; timings are not "
               "comparable\n");
#endif
  std::printf("# env nproc=%u simd_tier=%s build_type=%s optimized=%s "
              "compiler=\"%s\"\n",
              std::thread::hardware_concurrency(), fedra::fleet::simd_tier(),
              FEDRA_BENCH_BUILD_TYPE, optimized ? "yes" : "no", __VERSION__);
  std::printf("# run workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  std::fflush(stdout);

  Result res;
  try {
    res = run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }

  for (const Metric& m : res.metrics) {
    std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& note : res.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& f : res.failures) {
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", f.c_str());
  }
  std::printf("# checks: %zu failed of %zu attempted\n", res.failed,
              res.attempted);
  std::printf("%s\n", result_json(res).c_str());
  return res.correct() ? 0 : 1;
}
