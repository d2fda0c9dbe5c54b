#include "bridge/experiment.h"

#include <cmath>
#include <cstdio>

#include "util/env.h"
#include "util/macros.h"

namespace endure::bridge {

ExperimentRunner::ExperimentRunner(const SystemConfig& cfg,
                                   ExperimentOptions opts)
    : cfg_(cfg),
      scaled_cfg_(ScaledConfig(cfg, opts.actual_entries)),
      opts_(opts) {
  // Predictions describe the deployed engine, which has discrete levels.
  scaled_cfg_.level_policy = LevelPolicy::kInteger;
}

std::vector<SessionMeasurement> ExperimentRunner::Run(
    const Tuning& tuning,
    const std::vector<workload::Session>& sessions) const {
  // One shard, foreground maintenance: inline flushes and compactions
  // keep the measured I/O deterministic for a given seed.
  auto db_or = OpenTunedShardedDb(cfg_, tuning, opts_.actual_entries,
                                  /*num_shards=*/1,
                                  /*background_maintenance=*/false,
                                  opts_.backend);
  ENDURE_CHECK_MSG(db_or.ok(), db_or.status().ToString().c_str());
  std::unique_ptr<lsm::ShardedDB> db = std::move(db_or).value();

  CostModel model(scaled_cfg_);
  // The engine rounds fractional size ratios up on deployment (Section
  // 8.3); predict with the deployed value.
  Tuning deployed = tuning;
  deployed.size_ratio = std::ceil(tuning.size_ratio - 1e-9);
  Rng rng(opts_.seed);
  workload::KeyUniverse universe(opts_.actual_entries);
  workload::TraceOptions trace_opts;
  trace_opts.range_span_entries = opts_.range_span_entries;

  const double a_rw = cfg_.read_write_asymmetry;
  std::vector<SessionMeasurement> out;
  out.reserve(sessions.size());

  for (const workload::Session& session : sessions) {
    SessionMeasurement m;
    m.kind = session.kind;
    m.average = session.Average();
    m.model_io_per_query = model.Cost(m.average, deployed);

    const lsm::Statistics before = db->TotalStats();
    uint64_t queries = 0;
    std::array<uint64_t, kNumQueryClasses> class_counts = {0, 0, 0, 0};
    WallTimer timer;
    for (const Workload& w : session.workloads) {
      workload::QueryTrace trace = workload::GenerateTrace(
          w, opts_.queries_per_workload, &universe, &rng, trace_opts);
      for (int c = 0; c < kNumQueryClasses; ++c) {
        class_counts[c] += trace.counts[c];
      }
      for (const workload::Operation& op : trace.ops) {
        switch (op.type) {
          case kEmptyPointQuery:
          case kNonEmptyPointQuery:
            db->Get(op.key);
            break;
          case kRangeQuery:
            // Measurement workload: the I/O is the point, so the entries
            // are visited, not kept; a read error surfaces via Health()
            // at the session boundary.
            (void)db->Scan(op.key, op.limit,
                           [](const lsm::Entry&) { return true; });
            break;
          case kWrite:
            db->Put(op.key, op.key);
            break;
        }
      }
      queries += trace.ops.size();
    }
    const double elapsed_us = timer.Seconds() * 1e6;
    const lsm::Statistics d = db->TotalStats().Delta(before);

    m.total_queries = queries;
    const double write_traffic =
        static_cast<double>(d.compaction_pages_read) +
        a_rw * static_cast<double>(d.compaction_pages_written +
                                   d.flush_pages_written);
    const double read_traffic =
        static_cast<double>(d.point_pages_read + d.range_pages_read);
    m.measured_io_per_query =
        (read_traffic + write_traffic) / static_cast<double>(queries);
    m.latency_us_per_query = elapsed_us / static_cast<double>(queries);

    const uint64_t point_queries =
        class_counts[kEmptyPointQuery] + class_counts[kNonEmptyPointQuery];
    m.point_io = point_queries > 0 ? static_cast<double>(d.point_pages_read) /
                                         static_cast<double>(point_queries)
                                   : 0.0;
    m.range_io = class_counts[kRangeQuery] > 0
                     ? static_cast<double>(d.range_pages_read) /
                           static_cast<double>(class_counts[kRangeQuery])
                     : 0.0;
    m.write_io = class_counts[kWrite] > 0
                     ? write_traffic /
                           static_cast<double>(class_counts[kWrite])
                     : 0.0;
    out.push_back(m);
  }
  return out;
}

std::string FormatMeasurement(const SessionMeasurement& m) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-16s %s  model=%6.2f  system=%6.2f  latency=%8.2f us/q",
                workload::SessionKindName(m.kind),
                m.average.ToString().c_str(), m.model_io_per_query,
                m.measured_io_per_query, m.latency_us_per_query);
  return buf;
}

}  // namespace endure::bridge
