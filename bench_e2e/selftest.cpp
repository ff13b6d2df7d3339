// Self-tests of the benchmark's own code: the traced Algorithm 1 replica
// against OfflineTrainer::train(), the percentile helper, the coverage and
// overhead arithmetic, the result line, and every workload (traced and
// untraced) on a seed held out from development. Exit status 0 = all pass.
//
//   python3 bench_e2e/run.py --selftest
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace fedra;
using namespace fedra::e2e;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Held out from development: used only here.
constexpr std::uint64_t kHeldOutSeed = 20261017;

void test_replica_matches_trainer() {
  // 30 episodes of 40 steps cross two PPO updates of the 512-step buffer.
  const ExperimentConfig cfg = fig6_config();
  const FlEnvConfig env_cfg = env_config_for(cfg);
  const TrainerConfig tcfg = recommended_trainer_config(30);
  const std::uint64_t seed = 77;
  OfflineTrainer trainer(FlEnv(build_simulator(cfg), env_cfg), tcfg, seed);
  std::vector<double> expected;
  for (const EpisodeStats& e : trainer.train()) expected.push_back(e.avg_cost);

  const std::vector<double> plain = replicate_algorithm1(
      FlEnv(build_simulator(cfg), env_cfg), tcfg, seed, nullptr);
  LayerTimes lt;
  const std::vector<double> traced = replicate_algorithm1(
      FlEnv(build_simulator(cfg), env_cfg), tcfg, seed, &lt);
  expect(same_bits(plain, expected), "replica == OfflineTrainer::train()");
  expect(same_bits(traced, expected), "traced replica == train()");
  expect(fingerprint(traced) == fingerprint(expected) &&
             fingerprint(traced) != fingerprint(std::vector<double>(30, 1.0)),
         "fingerprint separates series");
  expect(lt.count("rl.update") == 2, "two PPO updates timed");
  expect(lt.count("env.step") == 30 * env_cfg.episode_length,
         "one env.step per step");
  expect(lt.count("rl.act") == lt.count("env.step"), "one act per step");
}

void test_percentiles() {
  expect(min_samples_for(50.0) == 20, "p50 needs 20 samples");
  expect(min_samples_for(90.0) == 100, "p90 needs 100 samples");
  expect(min_samples_for(99.0) == 1000, "p99 needs 1000 samples");
  expect(min_samples_for(99.9) == 10000, "p99.9 needs 10000 samples");
  expect(highest_supported_percentile(19) == 0.0, "19 samples: none");
  expect(highest_supported_percentile(20) == 50.0, "20 samples: p50");
  expect(highest_supported_percentile(99) == 50.0, "99 samples: p50");
  expect(highest_supported_percentile(100) == 90.0, "100 samples: p90");
  expect(highest_supported_percentile(999) == 90.0, "999 samples: p90");
  expect(highest_supported_percentile(1000) == 99.0, "1000 samples: p99");
  expect(highest_supported_percentile(10000) == 99.9, "10000 samples: p99.9");
  std::vector<double> xs;
  for (int i = 1; i <= 101; ++i) xs.push_back(i);
  expect(median(xs) == 51.0, "median of 1..101");
}

void test_coverage_arithmetic() {
  LayerTimes lt;
  lt.add("decide", 0.25);
  lt.add("decide", 0.15);
  lt.add("step", 0.5);
  expect(std::abs(lt.total("decide") - 0.4) < 1e-12, "layer total");
  expect(std::abs(lt.mean("decide") - 0.2) < 1e-12, "layer mean");
  expect(std::abs(lt.median("decide") - 0.2) < 1e-12, "layer median");
  expect(lt.count("decide") == 2 && lt.count("missing") == 0, "layer count");
  expect(std::abs(lt.sum() - 0.9) < 1e-12, "sum over layers");
  expect(std::abs(lt.coverage(1.0) - 0.9) < 1e-12, "coverage = sum / wall");
  expect(lt.coverage(0.0) == 0.0, "coverage of an empty wall");
  expect(std::abs(trace_overhead(1.2, 1.0) - 1.2) < 1e-12,
         "overhead = traced / untraced");
  expect(trace_overhead(1.0, 0.0) == 0.0, "overhead of an empty base");
}

void test_result_line() {
  Result r;
  r.add("latency_ms", 1.25, "ms");
  r.check(true, "fine");
  const std::string ok = result_json(r);
  expect(ok == "{\"correct\": true, \"attempted\": 2, \"failed\": 0, "
               "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
               "\"ms\"}}}",
         "result line format");
  r.check(false, "broken");
  r.add("bad", std::nan(""), "ms");
  const std::string bad = result_json(r);
  expect(!r.correct() && r.failed == 2 &&
             bad.find("\"correct\": false") != std::string::npos &&
             bad.find("\"value\": null") != std::string::npos,
         "failed checks and non-finite metrics mark the result incorrect");
}

void test_workloads_on_held_out_seed() {
  std::vector<std::vector<std::string>> layer_tables;
  for (const std::string& w : workload_names()) {
    for (bool trace : {false, true}) {
      RunOptions opts;
      opts.workload = w;
      opts.seed = kHeldOutSeed;
      opts.seconds = 1.0;
      opts.trace = trace;
      const Result r = run_workload(opts);
      for (const std::string& f : r.failures) std::printf("     %s\n", f.c_str());
      bool positive = !r.metrics.empty();
      for (const Metric& m : r.metrics) positive = positive && m.value > 0.0;
      expect(r.correct() && r.attempted > 0 && positive,
             w + (trace ? " traced" : "") +
                 ": every output check passes, every metric > 0");
      if (trace && (w == "train_fig6" || w == "eval_fig8")) {
        std::vector<std::string> names;
        for (const Metric& m : r.metrics) names.push_back(m.name);
        layer_tables.push_back(std::move(names));
      }
    }
  }
  expect(layer_tables.size() == 2 && layer_tables[0] == layer_tables[1],
         "traced train_fig6 and eval_fig8 print the same layer table");
}

}  // namespace

int main() {
  test_percentiles();
  test_coverage_arithmetic();
  test_result_line();
  test_replica_matches_trainer();
  test_workloads_on_held_out_seed();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
