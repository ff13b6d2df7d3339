#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/drl_controller.hpp"
#include "core/evaluation.hpp"
#include "env/fl_env.hpp"
#include "fault/fault_model.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "sched/baselines.hpp"
#include "sim/cohort.hpp"
#include "sim/fleet_pricing.hpp"
#include "sim/simulator.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fedra::e2e {

namespace {

// ------------------------------------------------------------ shared bits

/// Independent per-purpose seeds from the one workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose) {
  SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL + purpose);
  return sm.next();
}

double us(double seconds) { return seconds * 1e6; }
double ms(double seconds) { return seconds * 1e3; }

/// The aggregate outputs of one round, compared bit for bit.
struct RoundTotals {
  double iteration_time = 0.0;
  double total_energy = 0.0;
  double total_compute_energy = 0.0;
  double cost = 0.0;
  std::size_t num_scheduled = 0;
  std::size_t num_completed = 0;

  bool operator==(const RoundTotals& o) const {
    return std::memcmp(&iteration_time, &o.iteration_time, sizeof(double)) ==
               0 &&
           std::memcmp(&total_energy, &o.total_energy, sizeof(double)) == 0 &&
           std::memcmp(&total_compute_energy, &o.total_compute_energy,
                       sizeof(double)) == 0 &&
           std::memcmp(&cost, &o.cost, sizeof(double)) == 0 &&
           num_scheduled == o.num_scheduled &&
           num_completed == o.num_completed;
  }
};

RoundTotals totals_of(const IterationResult& r) {
  return {r.iteration_time, r.total_energy, r.total_compute_energy,
          r.cost,           r.num_scheduled, r.num_completed};
}

bool finite_round(const IterationResult& r) {
  return std::isfinite(r.cost) && std::isfinite(r.total_energy) &&
         std::isfinite(r.total_compute_energy) &&
         std::isfinite(r.iteration_time) && r.cost > 0.0;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Set-ups timed per run; the median is reported so that one slow
/// allocation or page-fault burst does not move setup_s.
constexpr int kSetups = 21;

/// Median wall time of `reps` calls of make() (the made object's
/// destruction is not timed).
template <typename Make>
double median_setup_seconds(int reps, Make&& make) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    const auto made = make();
    seconds.push_back(seconds_between(t0, Clock::now()));
  }
  return median(seconds);
}

void add_common(Result& res, double setup_s) {
  res.add("setup_s", setup_s, "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The closed-loop metrics every workload reports: simulator steps and
/// decide+step rounds per second, decide() latency and round latency.
/// Latencies come in groups (a training's online burst, a roster pass, a
/// fleet run); each percentile is taken per group and the median over
/// groups is reported, so one group disturbed by the host cannot move it.
struct LoopSamples {
  double steps_per_s = 0.0;
  double rounds_per_s = 0.0;
  std::vector<std::vector<double>> decide_us;
  std::vector<std::vector<double>> round_ms;

  void new_group() {
    decide_us.emplace_back();
    round_ms.emplace_back();
  }
};

double median_percentile(const std::vector<std::vector<double>>& groups,
                         double p) {
  std::vector<double> per_group;
  for (const auto& g : groups) per_group.push_back(percentile(g, p));
  return median(per_group);
}

void add_loop(Result& res, const LoopSamples& s) {
  for (const auto& [what, groups] : {std::pair{"decide", &s.decide_us},
                                     std::pair{"round", &s.round_ms}}) {
    std::size_t smallest = groups->empty() ? 0 : groups->front().size();
    for (const auto& g : *groups) smallest = std::min(smallest, g.size());
    char note[160];
    std::snprintf(note, sizeof note,
                  "%s: %zu group(s), smallest %zu samples, highest "
                  "percentile with ten beyond: p%g",
                  what, groups->size(), smallest,
                  highest_supported_percentile(smallest));
    res.notes.push_back(note);
  }
  res.add("train_steps_per_s", s.steps_per_s, "steps/s");
  res.add("eval_rounds_per_s", s.rounds_per_s, "rounds/s");
  res.add("decide_p50_us", median_percentile(s.decide_us, 50.0), "us");
  res.add("decide_p99_us", median_percentile(s.decide_us, 99.0), "us");
  res.add("round_p50_ms", median_percentile(s.round_ms, 50.0), "ms");
  res.add("round_p90_ms", median_percentile(s.round_ms, 90.0), "ms");
}

// ------------------------------------------------------------- train_fig6

constexpr std::size_t kFig6Episodes = 600;
/// Online rounds each freshly trained agent plays after its training; one
/// burst follows every training of the run (p99 has 100 samples beyond).
constexpr std::size_t kDeployRounds = 10000;
/// Salt OfflineTrainer applies to its seed for the trainer's own stream.
constexpr std::uint64_t kTrainerStreamSalt = 0xa0761d6478bd642fULL;

std::vector<double> costs_of(const std::vector<EpisodeStats>& history) {
  std::vector<double> costs;
  costs.reserve(history.size());
  for (const auto& e : history) costs.push_back(e.avg_cost);
  return costs;
}

/// Fig. 6(b) convergence read-off: mean cost of the last 50 episodes below
/// that of the first 50.
bool converged(const std::vector<double>& costs) {
  const std::size_t probe = 50;
  if (costs.size() < 2 * probe) return false;
  double early = 0.0;
  double late = 0.0;
  for (std::size_t e = 0; e < probe; ++e) early += costs[e];
  for (std::size_t e = costs.size() - probe; e < costs.size(); ++e) {
    late += costs[e];
  }
  return late < early;
}

bool all_finite(const std::vector<double>& xs) {
  return std::all_of(xs.begin(), xs.end(),
                     [](double x) { return std::isfinite(x); });
}

double mlp_flops(std::size_t rows, std::size_t in,
                 const std::vector<std::size_t>& hidden, std::size_t out) {
  std::vector<std::size_t> dims{in};
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(out);
  double flops = 0.0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    flops += 2.0 * static_cast<double>(rows * dims[l] * dims[l + 1]);
  }
  return flops;
}

/// GEMM flops of one PpoAgent::update over a full buffer, computed from
/// the layer shapes: per epoch a critic forward over the next states and,
/// over the minibatches, actor and critic forward + backward (backward
/// counted as weight-gradient + input-gradient GEMMs = 2x forward); then
/// one actor forward over the buffer for the KL estimate.
double ppo_update_flops(const TrainerConfig& cfg, std::size_t state_dim,
                        std::size_t action_dim) {
  const std::size_t n = cfg.buffer_capacity;
  const double actor = mlp_flops(n, state_dim, cfg.policy.hidden, action_dim);
  const double critic = mlp_flops(n, state_dim, cfg.ppo.critic_hidden, 1);
  return static_cast<double>(cfg.ppo.update_epochs) *
             (critic + 3.0 * actor + 3.0 * critic) +
         actor;
}

/// matmul*_into at the PPO minibatch shapes (64 rows, 64x64 hidden, input
/// widths 27 and 450): the forward GEMMs of both layers and the weight-
/// and input-gradient GEMMs of the backward pass. Returns GFLOP/s.
double gemm_probe_gflops(std::uint64_t seed) {
  Rng rng(seed);
  auto filled = [&](std::size_t r, std::size_t c) {
    Matrix m(r, c);
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
    }
    return m;
  };
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kHidden = 64;
  double flops = 0.0;
  double seconds = 0.0;
  for (std::size_t s : {std::size_t{27}, std::size_t{450}}) {
    const Matrix x = filled(kRows, s);
    const Matrix w1 = filled(s, kHidden);
    const Matrix h = filled(kRows, kHidden);
    const Matrix w2 = filled(kHidden, kHidden);
    const Matrix g = filled(kRows, kHidden);
    Matrix out1, out2, gw1, gx, gw2, gh;
    // Three GEMMs of 2*64*64*s flops (layer 1) and three of 2*64*64*64.
    const double per_pass = 2.0 * static_cast<double>(kRows * kHidden) *
                            3.0 * static_cast<double>(s + kHidden);
    auto pass = [&] {
      matmul_into(x, w1, out1);
      matmul_into(h, w2, out2);
      matmul_at_b_into(x, g, gw1);
      matmul_a_bt_into(g, w1, gx);
      matmul_at_b_into(h, g, gw2);
      matmul_a_bt_into(g, w2, gh);
    };
    for (int i = 0; i < 20; ++i) pass();  // warm-up
    std::size_t reps = 0;
    const auto t0 = Clock::now();
    double dt = 0.0;
    do {
      for (int i = 0; i < 50; ++i) pass();
      reps += 50;
      dt = seconds_between(t0, Clock::now());
    } while (dt < 0.25);
    flops += per_pass * static_cast<double>(reps);
    seconds += dt;
  }
  return flops / seconds / 1e9;
}

/// Online reasoning with a freshly trained agent on the testbed: appends
/// decide and round times to `loop`, returns rounds per second.
double deploy(OfflineTrainer& trainer, const ExperimentConfig& cfg,
              const FlEnvConfig& env_cfg, LoopSamples& loop, Result& res) {
  DrlController drl(trainer.agent(), env_cfg, trainer.env().bandwidth_ref());
  FlSimulator sim = build_simulator(cfg);
  loop.new_group();
  bool finite = true;
  const auto d0 = Clock::now();
  for (std::size_t k = 0; k < kDeployRounds; ++k) {
    const auto t0 = Clock::now();
    const std::vector<double> freqs = drl.decide(sim);
    const auto t1 = Clock::now();
    const IterationResult r = sim.step(freqs, {});
    drl.observe(r);
    const auto t2 = Clock::now();
    loop.decide_us.back().push_back(us(seconds_between(t0, t1)));
    loop.round_ms.back().push_back(ms(seconds_between(t0, t2)));
    finite = finite && finite_round(r);
  }
  const double rate = static_cast<double>(kDeployRounds) /
                      seconds_between(d0, Clock::now());
  res.check(finite, "train_fig6: non-finite online round");
  return rate;
}

/// The Fig. 6 trainer of one workload seed.
std::unique_ptr<OfflineTrainer> fig6_trainer(const ExperimentConfig& cfg,
                                             const TrainerConfig& tcfg,
                                             std::uint64_t seed) {
  return std::make_unique<OfflineTrainer>(
      FlEnv(build_simulator(cfg), env_config_for(cfg)), tcfg,
      derive(seed, 2));
}

/// Warm-up outside every timed region: 16 episodes cross one update.
void warm_up_fig6(const ExperimentConfig& cfg, const TrainerConfig& tcfg,
                  std::uint64_t seed) {
  auto warm = fig6_trainer(cfg, tcfg, seed);
  for (std::size_t e = 0; e < 16; ++e) warm->run_episode(e);
}

/// The train_fig6 rows of the layer table: one untraced train(), then the
/// traced replica of the same training.
void trace_train_fig6(const RunOptions& opts, Result& res) {
  const ExperimentConfig cfg = fig6_config();
  const FlEnvConfig env_cfg = env_config_for(cfg);
  const TrainerConfig tcfg = recommended_trainer_config(kFig6Episodes);
  const std::uint64_t trainer_seed = derive(opts.seed, 2);
  warm_up_fig6(cfg, tcfg, opts.seed);
  auto trainer = fig6_trainer(cfg, tcfg, opts.seed);
  const auto t0 = Clock::now();
  const std::vector<double> expected = costs_of(trainer->train());
  const double untraced_wall = seconds_between(t0, Clock::now());

  FlEnv env(build_simulator(cfg), env_cfg);
  const std::size_t state_dim = env.state_dim();
  const std::size_t action_dim = env.action_dim();
  LayerTimes lt;
  const auto t1 = Clock::now();
  const std::vector<double> replica =
      replicate_algorithm1(std::move(env), tcfg, trainer_seed, &lt);
  const double traced_wall = seconds_between(t1, Clock::now());
  res.check(bitwise_equal(replica, expected),
            "train_fig6: traced Algorithm 1 replica differs from "
            "OfflineTrainer::train()");
  res.check(converged(expected), "train_fig6: late-phase cost not below "
                                 "early-phase cost");

  res.add("rl.update.ms", ms(lt.mean("rl.update")), "ms");
  res.add("rl.update.share", lt.total("rl.update") / traced_wall, "ratio");
  res.add("rl.act.us", us(lt.mean("rl.act")), "us");
  res.add("rl.value.us", us(lt.mean("rl.value")), "us");
  res.add("env.step.us", us(lt.mean("env.step")), "us");
  res.add("rl.update.gflops",
          ppo_update_flops(tcfg, state_dim, action_dim) /
              lt.mean("rl.update") / 1e9,
          "GFLOP/s");
  res.add("tensor.gemm.gflops", gemm_probe_gflops(derive(opts.seed, 9)),
          "GFLOP/s");
  res.add("train_fig6.coverage", lt.coverage(traced_wall), "ratio");
  res.add("train_fig6.trace_overhead",
          trace_overhead(traced_wall, untraced_wall), "x");
}

Result run_train_fig6(const RunOptions& opts) {
  Result res;
  const ExperimentConfig cfg = fig6_config();
  const FlEnvConfig env_cfg = env_config_for(cfg);
  const TrainerConfig tcfg = recommended_trainer_config(kFig6Episodes);
  auto set_up = [&] { return fig6_trainer(cfg, tcfg, opts.seed); };
  warm_up_fig6(cfg, tcfg, opts.seed);

  const double setup_s = median_setup_seconds(kSetups, set_up);
  std::vector<double> rates;
  std::vector<double> deploy_rates;
  LoopSamples loop;
  std::uint64_t first_print = 0;
  const auto loop_t0 = Clock::now();
  do {
    const auto trainer = set_up();
    const auto t1 = Clock::now();
    const std::vector<EpisodeStats> history = trainer->train();
    const auto t2 = Clock::now();
    rates.push_back(static_cast<double>(history.size() *
                                        env_cfg.episode_length) /
                    seconds_between(t1, t2));
    const std::vector<double> costs = costs_of(history);
    const std::uint64_t print = fingerprint(costs);
    if (rates.size() == 1) first_print = print;
    res.check(print == first_print,
              "train_fig6: episode-cost fingerprint differs between runs of "
              "one seed");
    res.check(all_finite(costs), "train_fig6: non-finite episode cost");
    res.check(converged(costs),
              "train_fig6: late-phase cost not below early-phase cost");
    deploy_rates.push_back(deploy(*trainer, cfg, env_cfg, loop, res));
  } while (seconds_between(loop_t0, Clock::now()) < opts.seconds);

  char note[96];
  std::snprintf(note, sizeof note, "episode-cost fingerprint: %016llx",
                static_cast<unsigned long long>(first_print));
  res.notes.push_back(note);
  loop.steps_per_s = median(rates);
  loop.rounds_per_s = median(deploy_rates);
  add_common(res, setup_s);
  add_loop(res, loop);
  return res;
}

// -------------------------------------------------------------- eval_fig8

/// Rounds every arm plays per pass: the DRL arm's 1000 decides give p99
/// ten samples beyond it within each pass.
constexpr std::size_t kRosterRounds = 1000;
constexpr std::size_t kStaticProbes = 10;

/// The paper's 50-device scenario (like Fig. 6's testbed, the scenario is
/// fixed; the seed drives the agent's weights and the static probes).
ExperimentConfig fig8_config() {
  ExperimentConfig c = scale_config();
  c.trace_samples = 2000;
  return c;
}

/// One set-up of the Fig. 8 roster: the scenario simulator, a seeded
/// untrained agent, and the five controllers in plotting order.
struct Roster {
  FlSimulator sim;
  FlEnvConfig env_cfg;
  double bandwidth_ref = 0.0;
  std::unique_ptr<PpoAgent> agent;
  std::vector<std::unique_ptr<Controller>> arms;
};

constexpr std::size_t kDrlArm = 0;
constexpr std::size_t kOracleArm = 4;

Roster build_roster(const ExperimentConfig& cfg, std::uint64_t seed) {
  Roster r{build_simulator(cfg), env_config_for(cfg), 0.0, nullptr, {}};
  const FlEnv env(r.sim, r.env_cfg);
  r.bandwidth_ref = env.bandwidth_ref();
  const TrainerConfig tcfg = recommended_trainer_config();
  r.agent = std::make_unique<PpoAgent>(env.state_dim(), env.action_dim(),
                                       tcfg.policy, tcfg.ppo,
                                       derive(seed, 4));
  Rng static_rng(derive(seed, 6));
  r.arms.push_back(
      std::make_unique<DrlController>(*r.agent, r.env_cfg, r.bandwidth_ref));
  r.arms.push_back(std::make_unique<HeuristicController>(r.sim));
  r.arms.push_back(
      std::make_unique<StaticController>(r.sim, kStaticProbes, static_rng));
  r.arms.push_back(std::make_unique<FullSpeedController>());
  r.arms.push_back(std::make_unique<OracleController>());
  return r;
}

struct Pass {
  double wall = 0.0;
  std::vector<std::vector<double>> costs;  ///< per arm
  std::vector<std::vector<double>> times;
  std::vector<std::vector<double>> energies;
  std::vector<double> drl_decide_us;
  std::vector<double> round_ms;  ///< roster round k: every arm's round k
  bool finite = true;
  // Traced passes only: where the DRL and oracle arms decided, for the
  // state/mean_action and preview replays.
  std::vector<double> drl_starts;
  std::vector<double> oracle_starts;
  std::vector<std::vector<double>> oracle_freqs;
};

/// Runs each arm for `rounds` rounds on its own copy of the scenario, one
/// arm after the other, exactly as run_controller() runs them. Roster
/// round k is the sum over arms of their round k (decide, step, observe).
Pass run_pass(Roster& r, std::size_t rounds, LayerTimes* lt) {
  const std::size_t arms = r.arms.size();
  std::vector<FlSimulator> sims(arms, r.sim);
  for (auto& s : sims) s.reset(0.0);
  std::vector<std::string> decide_layer;
  for (const auto& a : r.arms) decide_layer.push_back("sched.decide." + a->name());

  Pass p;
  p.costs.assign(arms, {});
  p.times.assign(arms, {});
  p.energies.assign(arms, {});
  p.drl_decide_us.reserve(rounds);
  std::vector<double> round_s(rounds, 0.0);
  const auto p0 = Clock::now();
  for (std::size_t a = 0; a < arms; ++a) {
    for (std::size_t k = 0; k < rounds; ++k) {
      const double start = sims[a].now();
      const auto t0 = Clock::now();
      std::vector<double> freqs = r.arms[a]->decide(sims[a]);
      const auto t1 = Clock::now();
      const IterationResult res = sims[a].step(freqs, {});
      const auto t2 = Clock::now();
      r.arms[a]->observe(res);
      const auto t3 = Clock::now();
      round_s[k] += seconds_between(t0, t3);
      if (lt != nullptr) {
        lt->add(decide_layer[a], seconds_between(t0, t1));
        lt->add("sim.step", seconds_between(t1, t2));
        lt->add("sched.observe", seconds_between(t2, t3));
        if (a == kDrlArm) p.drl_starts.push_back(start);
        if (a == kOracleArm) {
          p.oracle_starts.push_back(start);
          p.oracle_freqs.push_back(std::move(freqs));
        }
      }
      if (a == kDrlArm) p.drl_decide_us.push_back(us(seconds_between(t0, t1)));
      p.costs[a].push_back(res.cost);
      p.times[a].push_back(res.iteration_time);
      p.energies[a].push_back(res.total_energy);
      p.finite = p.finite && finite_round(res);
    }
  }
  p.wall = seconds_between(p0, Clock::now());
  for (double s : round_s) p.round_ms.push_back(ms(s));
  return p;
}

/// The pass must match run_controller() on a fresh roster bit for bit,
/// and the oracle's average cost must not exceed any other arm's.
void check_pass(Result& res, const Pass& p, const ExperimentConfig& cfg,
                std::uint64_t seed, std::size_t rounds) {
  Roster fresh = build_roster(cfg, seed);
  for (std::size_t a = 0; a < fresh.arms.size(); ++a) {
    const EvalSeries s = run_controller(fresh.sim, *fresh.arms[a], rounds);
    res.check(bitwise_equal(s.costs, p.costs[a]) &&
                  bitwise_equal(s.times, p.times[a]) &&
                  bitwise_equal(s.total_energies, p.energies[a]),
              "eval_fig8: benchmark loop differs from run_controller for " +
                  s.policy);
  }
  auto avg = [](const std::vector<double>& xs) {
    double acc = 0.0;
    for (double x : xs) acc += x;
    return acc / static_cast<double>(xs.size());
  };
  const double oracle = avg(p.costs[kOracleArm]);
  for (std::size_t a = 0; a < p.costs.size(); ++a) {
    if (a == kOracleArm) continue;
    res.check(oracle <= avg(p.costs[a]),
              "eval_fig8: oracle average cost above " +
                  fresh.arms[a]->name());
  }
  res.check(p.finite, "eval_fig8: non-finite round");
}

/// Warm-up outside every timed region.
void warm_up_fig8(const ExperimentConfig& cfg, std::uint64_t seed) {
  Roster warm = build_roster(cfg, seed);
  run_pass(warm, 10, nullptr);
}

/// The eval_fig8 rows of the layer table: one untraced pass, one traced
/// pass, then the replays of the DRL decide's parts and the oracle's
/// preview.
void trace_eval_fig8(const RunOptions& opts, Result& res) {
  const ExperimentConfig cfg = fig8_config();
  warm_up_fig8(cfg, opts.seed);
  Roster untraced = build_roster(cfg, opts.seed);
  const Pass u = run_pass(untraced, kRosterRounds, nullptr);
  Roster traced = build_roster(cfg, opts.seed);
  LayerTimes lt;
  const Pass t = run_pass(traced, kRosterRounds, &lt);
  check_pass(res, t, cfg, opts.seed, kRosterRounds);

  // Replays, outside the pass: the DRL decide split into its state
  // build and its forward, and one preview at the oracle's choice.
  LayerTimes parts;
  for (double start : t.drl_starts) {
    const auto t0 = Clock::now();
    const std::vector<double> state = bandwidth_history_state(
        traced.sim, start, traced.env_cfg, traced.bandwidth_ref);
    const auto t1 = Clock::now();
    const std::vector<double> action = traced.agent->mean_action(state);
    const auto t2 = Clock::now();
    parts.add("env.state", seconds_between(t0, t1));
    parts.add("rl.mean_action", seconds_between(t1, t2));
    res.check(action.size() == traced.sim.num_devices(),
              "eval_fig8: mean_action has the wrong width");
  }
  for (std::size_t k = 0; k < t.oracle_starts.size(); ++k) {
    const auto t0 = Clock::now();
    const IterationResult r = traced.sim.preview(
        t.oracle_freqs[k], StepOptions::dry_run(t.oracle_starts[k]));
    parts.add("sim.preview", seconds_between(t0, Clock::now()));
    res.check(finite_round(r), "eval_fig8: non-finite preview");
  }

  for (const auto& arm : traced.arms) {
    res.add("sched.decide.us." + arm->name(),
            us(lt.median("sched.decide." + arm->name())), "us");
  }
  res.add("sched.decide.share.oracle",
          lt.total("sched.decide.oracle") / t.wall, "ratio");
  res.add("sim.step.us", us(lt.median("sim.step")), "us");
  res.add("sim.preview.us", us(parts.median("sim.preview")), "us");
  res.add("env.state.us", us(parts.median("env.state")), "us");
  res.add("rl.mean_action.us", us(parts.median("rl.mean_action")), "us");
  res.add("eval_fig8.coverage", lt.coverage(t.wall), "ratio");
  res.add("eval_fig8.trace_overhead", trace_overhead(t.wall, u.wall), "x");
}

Result run_eval_fig8(const RunOptions& opts) {
  Result res;
  const ExperimentConfig cfg = fig8_config();
  warm_up_fig8(cfg, opts.seed);

  const double setup_s = median_setup_seconds(
      kSetups, [&] { return build_roster(cfg, opts.seed); });
  std::vector<double> rates;
  LoopSamples loop;
  Pass first;
  std::uint64_t first_print = 0;
  const auto loop_t0 = Clock::now();
  do {
    Roster roster = build_roster(cfg, opts.seed);
    Pass p = run_pass(roster, kRosterRounds, nullptr);
    rates.push_back(static_cast<double>(roster.arms.size() * kRosterRounds) /
                    p.wall);
    loop.decide_us.push_back(p.drl_decide_us);
    loop.round_ms.push_back(p.round_ms);
    std::vector<double> all_costs;
    for (const auto& c : p.costs) all_costs.insert(all_costs.end(), c.begin(), c.end());
    const std::uint64_t print = fingerprint(all_costs);
    if (rates.size() == 1) {
      first_print = print;
      first = std::move(p);
    } else {
      res.check(print == first_print && p.finite,
                "eval_fig8: a pass differs from the first pass");
    }
  } while (seconds_between(loop_t0, Clock::now()) < opts.seconds);
  check_pass(res, first, cfg, opts.seed, kRosterRounds);

  loop.steps_per_s = median(rates);
  loop.rounds_per_s = loop.steps_per_s;
  add_common(res, setup_s);
  add_loop(res, loop);
  return res;
}

// ------------------------------------------------- fleet_1m / fleet_churn

constexpr std::size_t kFleetDevices = 1000000;
constexpr std::size_t kCohortDivisor = 10;  ///< churn: 10% cohort per round
constexpr int kFleetSetups = 5;

/// bench_ext_faults' base churn mix at intensity 1.0.
fault::FaultConfig base_faults() {
  fault::FaultConfig cfg;
  cfg.dropout_prob = 0.06;
  cfg.straggler_prob = 0.15;
  cfg.min_slowdown = 1.5;
  cfg.max_slowdown = 3.0;
  cfg.crash_prob = 0.03;
  cfg.rejoin_prob = 0.35;
  cfg.blackout_prob = 0.08;
  cfg.blackout_duration_s = 20.0;
  cfg.blackout_max_offset_s = 15.0;
  cfg.upload_failure_prob = 0.12;
  cfg.max_retries = 2;
  cfg.retry_backoff_s = 2.0;
  return cfg;
}

ExperimentConfig fleet_config(std::uint64_t seed) {
  ExperimentConfig c = scale_config();
  c.num_devices = kFleetDevices;
  c.trace_samples = 2000;
  c.seed = derive(seed, 5);
  return c;
}

/// The fleet scenario plus the inputs of its per-round decide: every
/// device's estimated upload time (model bytes over its trace's mean
/// bandwidth) and the common completion target the deadline solver aims
/// for (the slowest device's estimated finish at full speed).
struct Fleet {
  FlSimulator sim;
  std::vector<double> est_comm;
  double target = 0.0;
  bool churn = false;
  fault::FaultModel faults;     ///< disabled unless churn
  double round_deadline = 0.0;  ///< churn: 3x the full-speed makespan
  std::uint64_t cohort_seed = 0;
};

Fleet build_fleet(std::uint64_t seed, bool churn, ThreadPool& pool) {
  Fleet f{build_fleet_simulator(fleet_config(seed)), {}, 0.0, churn, {}, 0.0,
          derive(seed, 7)};
  const std::size_t n = f.sim.num_devices();
  const TraceTable& traces = f.sim.trace_table();
  std::vector<double> pool_est(traces.pool_size());
  for (std::size_t t = 0; t < pool_est.size(); ++t) {
    pool_est[t] = f.sim.params().model_bytes / traces.pool()[t].mean_bandwidth();
  }
  f.est_comm.resize(n);
  const FleetView fleet = f.sim.fleet();
  const double tau = f.sim.params().tau;
  for (std::size_t i = 0; i < n; ++i) {
    f.est_comm[i] = pool_est[traces.trace_id(i)];
    const double fastest = tau * fleet.cycles_per_bit(i) *
                               fleet.dataset_bits(i) / fleet.max_freq_hz(i) +
                           f.est_comm[i];
    f.target = std::max(f.target, fastest);
  }
  if (churn) {
    f.faults = fault::FaultModel(base_faults(), derive(seed, 8));
    StepOptions full;
    full.dry_run_at = 0.0;
    full.outcomes = OutcomeLayout::kSummary;
    full.pool = &pool;
    const std::vector<double> max_freqs(fleet.max_freq_hz().begin(),
                                        fleet.max_freq_hz().end());
    f.round_deadline = 3.0 * f.sim.preview(max_freqs, full).iteration_time;
  }
  return f;
}

/// The server's per-round decide: deadline-solver frequencies for every
/// device through the vectorized fleet kernel, one call per shard of the
/// engine's 4096-device blocks. Each shard's time (us) is appended to
/// `shard_us` when non-null: a shard is the fleet's unit of decision, and
/// its thousands of samples per run keep the decide percentiles steady.
void fleet_decide(const Fleet& f, std::vector<double>& freqs,
                  std::vector<double>* shard_us) {
  const FleetView fleet = f.sim.fleet();
  const std::size_t n = fleet.size();
  freqs.resize(n);
  for (std::size_t b = 0; b < n; b += FlSimulator::kPricingBlock) {
    const std::size_t bn = std::min(FlSimulator::kPricingBlock, n - b);
    const auto t0 = Clock::now();
    fleet::deadline_freqs(bn, f.sim.params().tau,
                          FlSimulator::kMinFreqFraction, f.target,
                          fleet.cycles_per_bit().data() + b,
                          fleet.dataset_bits().data() + b,
                          fleet.max_freq_hz().data() + b,
                          f.est_comm.data() + b, freqs.data() + b);
    if (shard_us != nullptr) {
      shard_us->push_back(us(seconds_between(t0, Clock::now())));
    }
  }
}

/// One fleet round on `sim`: for churn, the 10% cohort of this round is
/// sampled first and charged to the round; then the step.
struct FleetRound {
  IterationResult result;
  double cohort_s = 0.0;
  double step_s = 0.0;
};

FleetRound fleet_round(const Fleet& f, FlSimulator& sim,
                       fault::FaultModel& faults,
                       const std::vector<double>& freqs, ThreadPool& pool) {
  FleetRound out;
  StepOptions opts;
  opts.outcomes = OutcomeLayout::kSummary;
  opts.pool = &pool;
  std::vector<bool> mask;
  const auto t0 = Clock::now();
  if (f.churn) {
    const std::size_t n = sim.num_devices();
    mask = sample_cohort(n, n / kCohortDivisor, f.cohort_seed, sim.iteration())
               .mask(n);
    opts.participating = &mask;
    opts.fault_model = &faults;
    opts.deadline = f.round_deadline;
  }
  const auto t1 = Clock::now();
  out.result = sim.step(freqs, opts);
  const auto t2 = Clock::now();
  out.cohort_s = seconds_between(t0, t1);
  out.step_s = seconds_between(t1, t2);
  return out;
}

double round_seconds(const FleetRound& r) { return r.cohort_s + r.step_s; }

void check_fleet_round(Result& res, const Fleet& f, const FleetRound& r,
                       const char* workload) {
  const std::string w = workload;
  res.check(finite_round(r.result), w + ": non-finite cost or energy");
  if (f.churn) {
    res.check(r.result.num_completed < r.result.num_scheduled,
              w + ": no fault fired in a churn round");
  }
}

Result run_fleet(const RunOptions& opts, bool churn) {
  const char* workload = churn ? "fleet_churn" : "fleet_1m";
  Result res;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(std::max(1u, hw - 1));
  ThreadPool single(1);

  const double setup_s =
      opts.trace ? 0.0 : median_setup_seconds(kFleetSetups, [&] {
        return build_fleet(opts.seed, churn, pool);
      });
  const auto f = std::make_unique<Fleet>(build_fleet(opts.seed, churn, pool));
  std::vector<double> freqs;
  fleet_decide(*f, freqs, nullptr);

  // Pool-size invariance, outside the timed loop (it doubles as warm-up):
  // identical rounds on copies at 1 worker and at the workload's pool.
  const int pool_rounds = opts.trace ? 8 : 2;
  std::vector<double> pool1_s;
  std::vector<double> pooln_s;
  {
    FlSimulator a = f->sim;
    FlSimulator b = f->sim;
    fault::FaultModel fa = f->faults;
    fault::FaultModel fb = f->faults;
    for (int k = 0; k < pool_rounds; ++k) {
      const FleetRound ra = fleet_round(*f, a, fa, freqs, pool);
      const FleetRound rb = fleet_round(*f, b, fb, freqs, single);
      res.check(totals_of(ra.result) == totals_of(rb.result),
                std::string(workload) +
                    ": round totals differ between pool sizes");
      pooln_s.push_back(round_seconds(ra));
      pool1_s.push_back(round_seconds(rb));
    }
  }

  double scheduled = 0.0;
  double completed = 0.0;
  auto timed_loop = [&](double seconds, std::size_t min_rounds,
                        LoopSamples* loop, LayerTimes* lt,
                        std::vector<double>* round_s) {
    const auto l0 = Clock::now();
    std::size_t rounds = 0;
    do {
      fleet_decide(*f, freqs,
                   loop != nullptr ? &loop->decide_us.back() : nullptr);
      const FleetRound r = fleet_round(*f, f->sim, f->faults, freqs, pool);
      check_fleet_round(res, *f, r, workload);
      ++rounds;
      round_s->push_back(round_seconds(r));
      if (loop != nullptr) loop->round_ms.back().push_back(ms(round_seconds(r)));
      if (lt != nullptr) {
        lt->add("cohort", r.cohort_s);
        lt->add("step", r.step_s);
        scheduled += static_cast<double>(r.result.num_scheduled);
        completed += static_cast<double>(r.result.num_completed);
      }
    } while (seconds_between(l0, Clock::now()) < seconds ||
             rounds < min_rounds);
    return seconds_between(l0, Clock::now()) / static_cast<double>(rounds);
  };

  // Untimed warm-up rounds before the measured loop.
  {
    std::vector<double> warm;
    timed_loop(1.0, 5, nullptr, nullptr, &warm);
  }

  if (!opts.trace) {
    LoopSamples loop;
    loop.new_group();
    std::vector<double> round_s;
    const double per_round = timed_loop(opts.seconds, min_samples_for(90.0),
                                        &loop, nullptr, &round_s);
    loop.steps_per_s = 1.0 / per_round;
    loop.rounds_per_s = loop.steps_per_s;
    add_common(res, setup_s);
    add_loop(res, loop);
    return res;
  }

  // Traced: the same loop untraced then traced, half the time each.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  timed_loop(opts.seconds / 2, 20, nullptr, nullptr, &untraced_s);
  LayerTimes lt;
  timed_loop(opts.seconds / 2, 20, nullptr, &lt, &traced_s);

  // Single-thread replays of the round's two pricing layers over the
  // whole fleet, in the engine's 4096-device blocks.
  const FleetView fleet = f->sim.fleet();
  const std::size_t n = fleet.size();
  const double tau = f->sim.params().tau;
  const double bytes = f->sim.params().model_bytes;
  const double start = f->sim.now();
  constexpr std::size_t kBlock = FlSimulator::kPricingBlock;
  std::vector<double> freq_out(kBlock), tcmp(n), ecmp(kBlock);
  std::vector<double> starts(kBlock), finish(kBlock);
  std::vector<std::size_t> ids(kBlock);
  double price_s = 0.0;
  double upload_s = 0.0;
  bool finite = true;
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t bn = std::min(kBlock, n - b);
    const auto t0 = Clock::now();
    fleet::price_compute(bn, tau, FlSimulator::kMinFreqFraction,
                         fleet.cycles_per_bit().data() + b,
                         fleet.dataset_bits().data() + b,
                         fleet.capacitance().data() + b,
                         fleet.max_freq_hz().data() + b, freqs.data() + b,
                         freq_out.data(), tcmp.data() + b, ecmp.data());
    const auto t1 = Clock::now();
    for (std::size_t k = 0; k < bn; ++k) {
      ids[k] = b + k;
      starts[k] = start + tcmp[b + k];
    }
    const auto t2 = Clock::now();
    f->sim.trace_table().upload_finish_times(ids.data(), bn, starts.data(),
                                             bytes, finish.data());
    const auto t3 = Clock::now();
    price_s += seconds_between(t0, t1);
    upload_s += seconds_between(t2, t3);
    finite = finite && std::isfinite(finish[bn - 1]) && std::isfinite(ecmp[0]);
  }
  res.check(finite, std::string(workload) + ": non-finite pricing replay");

  res.add("sim.price_compute.ms", ms(price_s), "ms");
  res.add("trace.upload_finish_times.ms", ms(upload_s), "ms");
  res.add("pool.round_1worker.ms", ms(median(pool1_s)), "ms");
  res.add("pool.round.ms", ms(median(pooln_s)), "ms");
  res.add("pool.speedup", median(pool1_s) / median(pooln_s), "x");
  if (churn) {
    std::vector<double> advance_s;
    std::size_t drawn = 0;
    for (int k = 0; k < 3; ++k) {
      fault::FaultModel copy = f->faults;
      const auto t0 = Clock::now();
      const fault::RoundFaults rf = copy.advance(f->sim.iteration(), n);
      advance_s.push_back(seconds_between(t0, Clock::now()));
      drawn = rf.devices.size();
    }
    res.add("fault.advance.ms", ms(median(advance_s)), "ms");
    res.add("sim.cohort.ms", ms(lt.median("cohort")), "ms");
    res.add("fault.useful_draw_share",
            scheduled / (static_cast<double>(drawn) *
                         static_cast<double>(lt.count("step"))),
            "ratio");
    res.add("sim.completed_share", completed / scheduled, "ratio");
  }
  res.add("trace_overhead", trace_overhead(median(traced_s), median(untraced_s)),
          "x");
  return res;
}

// ------------------------------------------------------------ layer table

/// The traced run of either gated workload: the train_fig6 and eval_fig8
/// layer rows together, so that each traced run prints the whole per-layer
/// table. Passes repeat for the run's time; each metric is the median over
/// the passes, and every pass's checks count.
Result run_layer_table(const RunOptions& opts) {
  std::vector<Result> passes;
  const auto t0 = Clock::now();
  do {
    Result pass;
    trace_train_fig6(opts, pass);
    trace_eval_fig8(opts, pass);
    passes.push_back(std::move(pass));
  } while (seconds_between(t0, Clock::now()) < opts.seconds);

  Result res;
  for (const Result& p : passes) {
    res.attempted += p.attempted;
    res.failed += p.failed;
    res.failures.insert(res.failures.end(), p.failures.begin(),
                        p.failures.end());
  }
  for (std::size_t m = 0; m < passes.front().metrics.size(); ++m) {
    std::vector<double> values;
    for (const Result& p : passes) values.push_back(p.metrics[m].value);
    const Metric& first = passes.front().metrics[m];
    res.add(first.name, median(values), first.unit);
  }
  char note[64];
  std::snprintf(note, sizeof note, "layer table: median of %zu pass(es)",
                passes.size());
  res.notes.push_back(note);
  return res;
}

}  // namespace

// ------------------------------------------------------------ public API

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"train_fig6", "eval_fig8",
                                              "fleet_1m", "fleet_churn"};
  return names;
}

ExperimentConfig fig6_config() {
  ExperimentConfig c = testbed_config();
  c.trace_samples = 2000;
  return c;
}

FlEnvConfig env_config_for(const ExperimentConfig& cfg) {
  FlEnvConfig env_cfg;
  env_cfg.slot_seconds = cfg.slot_seconds;
  env_cfg.history_slots = cfg.history_slots;
  env_cfg.episode_length = 40;
  return env_cfg;
}

std::vector<double> replicate_algorithm1(FlEnv env, const TrainerConfig& cfg,
                                         std::uint64_t seed,
                                         LayerTimes* times) {
  PpoAgent agent(env.state_dim(), env.action_dim(), cfg.policy, cfg.ppo,
                 seed);
  RolloutBuffer buffer(cfg.buffer_capacity);
  Rng rng(seed ^ kTrainerStreamSalt);
  auto timed = [times](const char* layer, auto&& call) {
    if (times == nullptr) return call();
    const auto t0 = Clock::now();
    auto out = call();
    times->add(layer, seconds_between(t0, Clock::now()));
    return out;
  };

  std::vector<double> costs;
  costs.reserve(cfg.episodes);
  for (std::size_t e = 0; e < cfg.episodes; ++e) {
    std::vector<double> state = timed("env.reset", [&] { return env.reset(rng); });
    double cost_acc = 0.0;
    std::size_t steps = 0;
    // next_value of one step is the value of the next step's state; the
    // carry dies when an update moves the critic (as in the trainer).
    double carried_value = 0.0;
    bool value_carried = false;
    bool done = false;
    while (!done) {
      PolicySample sample = timed("rl.act", [&] { return agent.act(state, rng); });
      const double value =
          value_carried ? carried_value
                        : timed("rl.value", [&] { return agent.value(state); });
      StepResult step = timed("env.step", [&] { return env.step(sample.action); });
      Transition t;
      t.state = state;
      t.next_state = step.state;
      t.action_u = sample.action_u;
      t.log_prob = sample.log_prob;
      t.reward = step.reward;
      t.value = value;
      t.next_value = timed("rl.value", [&] { return agent.value(step.state); });
      t.episode_end = step.done;
      carried_value = t.next_value;
      value_carried = true;
      buffer.push(std::move(t));
      cost_acc += step.info.cost;
      ++steps;
      if (buffer.full()) {
        timed("rl.update", [&] { return agent.update(buffer, rng); });
        buffer.clear();
        value_carried = false;
      }
      state = std::move(step.state);
      done = step.done;
    }
    const double inv = steps > 0 ? 1.0 / static_cast<double>(steps) : 0.0;
    costs.push_back(cost_acc * inv);
  }
  return costs;
}

std::uint64_t fingerprint(const std::vector<double>& series) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the raw bits
  for (double x : series) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

Result run_workload(const RunOptions& opts) {
  const bool gated =
      opts.workload == "train_fig6" || opts.workload == "eval_fig8";
  if (gated && opts.trace) return run_layer_table(opts);
  if (opts.workload == "train_fig6") return run_train_fig6(opts);
  if (opts.workload == "eval_fig8") return run_eval_fig8(opts);
  if (opts.workload == "fleet_1m") return run_fleet(opts, false);
  if (opts.workload == "fleet_churn") return run_fleet(opts, true);
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

}  // namespace fedra::e2e
