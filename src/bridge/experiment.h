// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// The system-experiment harness of Section 8: executes session sequences
// against tuned engine instances and reports, per session, the
// model-predicted I/Os per query, the engine-measured I/Os per query
// (reads measured directly; write I/O amortized from flush + compaction
// traffic as in Section 8.1) and wall-clock latency per query.

#ifndef ENDURE_BRIDGE_EXPERIMENT_H_
#define ENDURE_BRIDGE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "bridge/tuned_db.h"
#include "workload/query_generator.h"
#include "workload/session.h"

namespace endure::bridge {

/// Measurements for one session under one tuning.
struct SessionMeasurement {
  workload::SessionKind kind;
  Workload average;                ///< session's average workload
  uint64_t total_queries = 0;
  double model_io_per_query = 0.0;     ///< C(average, Phi) from the model
  double measured_io_per_query = 0.0;  ///< engine pages per query
  double latency_us_per_query = 0.0;   ///< wall-clock microseconds per query
  // Breakdown of the measured I/O (pages per query of that class).
  double point_io = 0.0;
  double range_io = 0.0;
  double write_io = 0.0;  ///< amortized flush+compaction traffic
};

/// Configuration of a system experiment.
struct ExperimentOptions {
  uint64_t actual_entries = 100000;     ///< DB size (paper: 1e7)
  uint64_t queries_per_workload = 1000; ///< ops executed per workload
  uint64_t range_span_entries = 2;      ///< short-range span
  uint64_t seed = 7;
  lsm::StorageBackend backend = lsm::StorageBackend::kMemory;
};

/// Runs session sequences against freshly tuned one-shard ShardedDB
/// instances (foreground maintenance, so a seed fixes every page count).
class ExperimentRunner {
 public:
  ExperimentRunner(const SystemConfig& cfg, ExperimentOptions opts = {});

  /// Bulk loads a DB for `tuning` and executes `sessions` in order,
  /// returning one measurement per session.
  std::vector<SessionMeasurement> Run(
      const Tuning& tuning,
      const std::vector<workload::Session>& sessions) const;

  /// The model config at deployment scale (for predictions).
  const SystemConfig& scaled_config() const { return scaled_cfg_; }

 private:
  SystemConfig cfg_;         ///< tuning-time (paper-scale) parameters
  SystemConfig scaled_cfg_;  ///< deployment-scale parameters
  ExperimentOptions opts_;
};

/// Formats a measurement row ("kind avg | model | system | latency").
std::string FormatMeasurement(const SessionMeasurement& m);

}  // namespace endure::bridge

#endif  // ENDURE_BRIDGE_EXPERIMENT_H_
