// Asynchronous ledger writer: the recording thread moves each record
// struct into a bounded queue; a background drainer thread formats the
// JSONL lines with the *_record_json formatters and hands them to a sink.
//
// Contracts:
//  * enqueue never blocks on the sink: a record that would push the
//    queue's estimated footprint (sizeof the record plus its device rows
//    and action/state doubles, counting records still being formatted)
//    past the byte budget is dropped whole and counted (dropped()), so a
//    stalled disk can slow the ledger but never the simulation.
//  * lines reach the sink in acceptance order, one per accepted record;
//    there is no intermediate encoding, so the output is exactly what the
//    formatters produce.
//  * the drainer is woken early only under backpressure (queue over half
//    its budget); otherwise a 1 ms poll picks records up in batches, so
//    the hot path pays no futex wake per record.
//  * wait_drained() returns only after every accepted record has been
//    handed to the sink, which is what gives RunLedger::flush() and
//    disable() their flush-at-exit ordering.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "obs/ledger.hpp"

namespace fedra::obs {

using LedgerRecord = std::variant<RoundRecord, DecisionRecord, FlRoundRecord>;

class AsyncLedgerWriter {
 public:
  /// `budget_bytes` bounds the footprint of accepted-but-unwritten
  /// records. `sink` is called from the drainer thread with one formatted
  /// JSONL line per record, in acceptance order.
  AsyncLedgerWriter(std::size_t budget_bytes,
                    std::function<void(const std::string&)> sink);
  ~AsyncLedgerWriter();

  AsyncLedgerWriter(const AsyncLedgerWriter&) = delete;
  AsyncLedgerWriter& operator=(const AsyncLedgerWriter&) = delete;

  /// True if the record was accepted (it WILL reach the sink), false if
  /// it was dropped for lack of budget or because the writer stopped.
  bool enqueue(LedgerRecord record);

  /// Blocks until every accepted record has been handed to the sink.
  /// Callers must be quiescent (no concurrent producers) for "drained" to
  /// be meaningful.
  void wait_drained();

  /// Drains remaining records, then joins the drainer. Idempotent.
  void stop();

  std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  void drain_loop();

  const std::size_t budget_;
  std::function<void(const std::string&)> sink_;
  std::mutex mutex_;
  std::condition_variable data_cv_;     ///< producer -> drainer
  std::condition_variable drained_cv_;  ///< drainer -> wait_drained
  std::vector<LedgerRecord> queue_;     ///< guarded by mutex_
  std::size_t pending_bytes_ = 0;  ///< queued + being formatted (mutex_)
  bool stop_ = false;              ///< guarded by mutex_
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::thread drainer_;
};

}  // namespace fedra::obs
