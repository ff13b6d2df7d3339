// The four paper workloads of the end-to-end benchmark. Each is a
// single-process closed loop driven by the calling thread; only the fleet
// workloads use a thread pool (nproc - 1 workers, via StepOptions::pool).
// The workload seed drives every random input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/offline_trainer.hpp"
#include "harness.hpp"
#include "sim/experiment_config.hpp"

namespace fedra::e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Names accepted by run_workload, in the order the README lists them.
const std::vector<std::string>& workload_names();

/// Runs one workload: with opts.trace false the end-to-end metrics, with
/// it true the per-layer ones. Output checks are tallied in the result.
Result run_workload(const RunOptions& opts);

// ---- Pieces the self-tests exercise directly. ----

/// The Fig. 6 scenario: the paper's testbed, testbed_config(), with
/// 2000-sample traces. It is fixed; the workload seed drives the trainer
/// (initial weights, exploration and episode start times).
ExperimentConfig fig6_config();

/// Env settings every workload uses (slot width and history from the
/// scenario, 40-step episodes).
FlEnvConfig env_config_for(const ExperimentConfig& cfg);

/// Algorithm 1 driven through public calls (FlEnv::reset/step,
/// PpoAgent::act/value/update), exactly as OfflineTrainer::train() runs
/// it with the same seed, timing each call into `times` when non-null.
/// Returns the per-episode average cost series.
std::vector<double> replicate_algorithm1(FlEnv env, const TrainerConfig& cfg,
                                         std::uint64_t seed,
                                         LayerTimes* times);

/// Order-sensitive hash of the bit patterns of a series.
std::uint64_t fingerprint(const std::vector<double>& series);

}  // namespace fedra::e2e
