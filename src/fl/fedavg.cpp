#include "fl/fedavg.hpp"

#include <utility>

#include "nn/loss.hpp"
#include "obs/ledger.hpp"
#include "telemetry/telemetry.hpp"

namespace fedra {

namespace {
Mlp build_model(const ModelSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  return Mlp(spec.sizes, spec.hidden, rng);
}
}  // namespace

FedAvgServer::FedAvgServer(std::vector<FlClient> clients,
                           const ModelSpec& spec, std::uint64_t seed)
    : clients_(std::move(clients)), global_model_(build_model(spec, seed)) {
  FEDRA_EXPECTS(!clients_.empty());
  global_params_ = global_model_.param_values();
}

RoundMetrics FedAvgServer::run_round(const LocalTrainConfig& config,
                                     ThreadPool& pool) {
  std::vector<std::size_t> everyone(clients_.size());
  for (std::size_t i = 0; i < everyone.size(); ++i) everyone[i] = i;
  return run_round(config, pool, everyone);
}

RoundMetrics FedAvgServer::run_round(
    const LocalTrainConfig& config, ThreadPool& pool,
    const std::vector<std::size_t>& participants) {
  return run_round(config, pool, participants, participants);
}

RoundMetrics FedAvgServer::run_round(
    const LocalTrainConfig& config, ThreadPool& pool,
    const std::vector<std::size_t>& participants,
    const std::vector<std::size_t>& delivered) {
  // De-duplicate while preserving validity checks.
  std::vector<std::size_t> roster;
  roster.reserve(participants.size());
  std::vector<bool> seen(clients_.size(), false);
  for (std::size_t idx : participants) {
    FEDRA_EXPECTS(idx < clients_.size());
    if (!seen[idx]) {
      seen[idx] = true;
      roster.push_back(idx);
    }
  }
  FEDRA_EXPECTS(!roster.empty());

  // Delivery mask over client indices: every delivered client must have
  // trained (a device cannot upload an update it never computed).
  std::vector<bool> arrived(clients_.size(), false);
  for (std::size_t idx : delivered) {
    FEDRA_EXPECTS(idx < clients_.size());
    FEDRA_EXPECTS(seen[idx]);
    arrived[idx] = true;
  }

  const std::size_t n = roster.size();
  // Round-persistent update slots: grown once, never shrunk, so the
  // parameter matrices inside keep their heap blocks across rounds
  // (train_round_into assigns into them with capacity reuse).
  if (updates_.size() < n) updates_.resize(n);
  std::vector<ClientUpdate>& updates = updates_;
  // Per-device local training is embarrassingly parallel: each client owns
  // its model replica and dataset; `updates` slots are disjoint. Clients
  // whose upload will be lost still train — that compute is the waste the
  // fault bench measures.
  {
    FEDRA_TRACE_SPAN("local_train");
    pool.parallel_for(0, n, [&](std::size_t i) {
      clients_[roster[i]].train_round_into(global_params_, config, round_,
                                           updates[i]);
    });
  }

  FEDRA_TRACE_SPAN("aggregate");
  // Weighted average over the DELIVERED subset: w <- sum_i (D_i / D') w_i
  // where D' renormalizes to the survivors (Eq. 8 weighting restricted to
  // arrivals). A round with no arrivals leaves the global model as-is.
  double total_samples = 0.0;
  std::size_t num_delivered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!arrived[roster[i]]) continue;
    total_samples += static_cast<double>(updates[i].num_samples);
    ++num_delivered;
  }
  if (num_delivered > 0) {
    FEDRA_ENSURES(total_samples > 0.0);
    // Accumulate into round-persistent scratch, then swap with the global
    // params: both vectors keep their capacity, so steady-state rounds
    // allocate nothing here. Accumulation order matches the original
    // (per-parameter, delivered clients in roster order) bit-for-bit.
    agg_scratch_.resize(global_params_.size());
    for (std::size_t p = 0; p < global_params_.size(); ++p) {
      Matrix& acc = agg_scratch_[p];
      acc.resize_reuse(global_params_[p].rows(), global_params_[p].cols());
      acc.set_zero();
      for (std::size_t i = 0; i < n; ++i) {
        if (!arrived[roster[i]]) continue;
        const auto& u = updates[i];
        const double w =
            static_cast<double>(u.num_samples) / total_samples;
        FEDRA_EXPECTS(u.params[p].same_shape(acc));
        for (std::size_t j = 0; j < acc.size(); ++j) {
          acc[j] += w * u.params[p][j];
        }
      }
    }
    std::swap(global_params_, agg_scratch_);
  }

  FEDRA_TELEMETRY_IF {
    namespace tel = fedra::telemetry;
    static auto lost =
        tel::Telemetry::metrics().counter("fl.lost_updates");
    static auto partial =
        tel::Telemetry::metrics().counter("fl.partial_rounds");
    static auto wasted =
        tel::Telemetry::metrics().counter("fl.wasted_rounds");
    if (num_delivered < n) {
      lost.add(n - num_delivered);
      partial.add();
    }
    if (num_delivered == 0) wasted.add();
  }

  RoundMetrics m;
  m.round = round_++;
  m.num_participants = n;
  m.num_delivered = num_delivered;
  m.global_loss = global_loss();
  m.global_accuracy = global_accuracy();
  double loss_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) loss_sum += updates[i].avg_loss;
  m.mean_client_loss = loss_sum / static_cast<double>(n);
  FEDRA_TELEMETRY_IF {
    if (obs::RunLedger::enabled()) {
      obs::FlRoundRecord rec;
      rec.round = m.round;
      rec.global_loss = m.global_loss;
      rec.global_accuracy = m.global_accuracy;
      rec.mean_client_loss = m.mean_client_loss;
      rec.num_participants = m.num_participants;
      rec.num_delivered = m.num_delivered;
      obs::RunLedger::record_fl_round(std::move(rec));
    }
  }
  return m;
}

std::vector<RoundMetrics> FedAvgServer::train_until(
    const LocalTrainConfig& config, double epsilon, std::size_t max_rounds,
    ThreadPool& pool) {
  FEDRA_EXPECTS(epsilon > 0.0 && max_rounds > 0);
  std::vector<RoundMetrics> history;
  for (std::size_t k = 0; k < max_rounds; ++k) {
    history.push_back(run_round(config, pool));
    if (history.back().global_loss < epsilon) break;  // constraint (10)
  }
  return history;
}

void FedAvgServer::restore(std::vector<Matrix> global_params,
                           std::size_t round) {
  FEDRA_EXPECTS(global_params.size() == global_params_.size());
  for (std::size_t p = 0; p < global_params.size(); ++p) {
    FEDRA_EXPECTS(global_params[p].same_shape(global_params_[p]));
  }
  global_params_ = std::move(global_params);
  round_ = round;
}

double FedAvgServer::global_loss() {
  // F(w) = sum_n D_n F_n(w) / sum_n D_n (Eq. 8).
  double weighted = 0.0;
  double total = 0.0;
  for (auto& c : clients_) {
    const auto d = static_cast<double>(c.num_samples());
    weighted += d * c.local_loss(global_params_);
    total += d;
  }
  return weighted / total;
}

double FedAvgServer::global_accuracy() {
  global_model_.set_param_values(global_params_);
  double correct_weighted = 0.0;
  double total = 0.0;
  for (auto& c : clients_) {
    const Matrix& logits =
        global_model_.forward_cached(c.data().features, eval_ws_);
    const double acc = accuracy(logits, c.data().labels);
    const auto d = static_cast<double>(c.num_samples());
    correct_weighted += d * acc;
    total += d;
  }
  return correct_weighted / total;
}

}  // namespace fedra
