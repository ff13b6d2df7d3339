#include "obs/async_writer.hpp"

#include <chrono>
#include <utility>

namespace fedra::obs {
namespace {

/// Estimated queue footprint of one record: the variant itself plus its
/// per-device rows and action/state doubles.
std::size_t record_footprint(const LedgerRecord& record) {
  std::size_t bytes = sizeof(LedgerRecord);
  if (const auto* r = std::get_if<RoundRecord>(&record)) {
    bytes += r->devices.size() * sizeof(DeviceRoundRecord);
  } else if (const auto* d = std::get_if<DecisionRecord>(&record)) {
    bytes += (d->action.size() + d->state.size()) * sizeof(double);
  }
  return bytes;
}

std::string record_json(const LedgerRecord& record) {
  if (const auto* r = std::get_if<RoundRecord>(&record)) {
    return round_record_json(*r);
  }
  if (const auto* d = std::get_if<DecisionRecord>(&record)) {
    return decision_record_json(*d);
  }
  return fl_round_record_json(std::get<FlRoundRecord>(record));
}

}  // namespace

AsyncLedgerWriter::AsyncLedgerWriter(
    std::size_t budget_bytes, std::function<void(const std::string&)> sink)
    : budget_(budget_bytes), sink_(std::move(sink)) {
  drainer_ = std::thread([this] { drain_loop(); });
}

AsyncLedgerWriter::~AsyncLedgerWriter() { stop(); }

bool AsyncLedgerWriter::enqueue(LedgerRecord record) {
  const std::size_t bytes = record_footprint(record);
  std::lock_guard<std::mutex> lock(mutex_);
  if (stop_ || bytes > budget_ - pending_bytes_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  pending_bytes_ += bytes;
  queue_.push_back(std::move(record));
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (pending_bytes_ > budget_ / 2) data_cv_.notify_one();
  return true;
}

void AsyncLedgerWriter::drain_loop() {
  std::vector<LedgerRecord> batch;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (queue_.empty()) {
      if (stop_) return;
      data_cv_.wait_for(lock, std::chrono::milliseconds(1),
                        [&] { return !queue_.empty() || stop_; });
      continue;
    }
    // Take the whole queue (the swap hands the producers back the previous
    // batch's capacity), format it unlocked, then retire its bytes: the
    // footprint drops only after the sink has the lines, so
    // pending_bytes_ == 0 really means "everything accepted is written".
    // Nothing else is in flight here, so the pending bytes are the batch's.
    batch.swap(queue_);
    const std::size_t batch_bytes = pending_bytes_;
    lock.unlock();
    for (const LedgerRecord& record : batch) sink_(record_json(record));
    batch.clear();
    lock.lock();
    pending_bytes_ -= batch_bytes;
    drained_cv_.notify_all();
  }
}

void AsyncLedgerWriter::wait_drained() {
  std::unique_lock<std::mutex> lock(mutex_);
  data_cv_.notify_one();
  drained_cv_.wait(lock, [&] { return pending_bytes_ == 0; });
}

void AsyncLedgerWriter::stop() {
  if (!drainer_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  data_cv_.notify_all();
  drainer_.join();
}

}  // namespace fedra::obs
