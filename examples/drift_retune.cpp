// Closing the loop: drift monitoring + robust retuning on a LIVE engine.
//
// The paper argues tunings cannot chase every workload change (retuning
// moves memory and reshapes the tree), so it recommends robust tunings
// sized by historical drift (Section 7.3). This example runs that
// playbook end to end on a serving system: a TuningPipeline watches the
// executed mix on a sharded, background-maintained deployment; when the
// observed workload leaves the tuned ball for several consecutive
// epochs, it recomputes a robust tuning centered on the window mean and
// applies it IN PLACE — no rebuild, no downtime. The epochs after the
// retune show the measured I/O recovering while the migration (tracked
// by per-run tuning epochs) converges in the background.

#include <cstdio>

#include "bridge/pipeline.h"
#include "util/env.h"
#include "workload/query_generator.h"

using namespace endure;

namespace {

// Executes one epoch of `mix` against the serving DB, feeding the
// pipeline's monitor (when given — the rebuilt baseline below runs with
// no pipeline so its traffic cannot pollute the live system's drift
// state), and returns measured I/Os per query.
double RunEpoch(lsm::ShardedDB* db, const Workload& mix, uint64_t ops,
                workload::KeyUniverse* universe, Rng* rng,
                bridge::TuningPipeline* pipeline) {
  workload::QueryTrace trace =
      workload::GenerateTrace(mix, ops, universe, rng);
  const lsm::Statistics before = db->TotalStats();
  for (const workload::Operation& op : trace.ops) {
    switch (op.type) {
      case kEmptyPointQuery:
      case kNonEmptyPointQuery:
        db->Get(op.key);
        break;
      case kRangeQuery:
        // Only the I/O counts: visit the entries without keeping them.
        (void)db->Scan(op.key, op.limit,
                       [](const lsm::Entry&) { return true; });
        break;
      case kWrite:
        db->Put(op.key, op.key);
        break;
    }
    if (pipeline != nullptr) pipeline->RecordOperation(op.type);
  }
  const lsm::Statistics d = db->TotalStats().Delta(before);
  const double write_io =
      static_cast<double>(d.compaction_pages_read +
                          d.compaction_pages_written +
                          d.flush_pages_written);
  return (static_cast<double>(d.point_pages_read + d.range_pages_read) +
          write_io) /
         static_cast<double>(trace.ops.size());
}

}  // namespace

int main() {
  SystemConfig cfg;

  const uint64_t n = static_cast<uint64_t>(GetEnvInt("ENDURE_N", 30000));
  const uint64_t epoch_ops =
      static_cast<uint64_t>(GetEnvInt("ENDURE_QUERIES", 2000));

  Workload expected(0.33, 0.33, 0.33, 0.01);
  bridge::PipelineOptions popts;
  popts.monitor.ops_per_epoch = epoch_ops;
  popts.monitor.alarm_patience = 2;
  bridge::TuningPipeline pipeline(cfg, expected, 0.25, popts);
  std::printf("initial tuning for %s (rho=%.2f): %s\n\n",
              expected.ToString().c_str(), pipeline.rho(),
              pipeline.current_tuning().ToString().c_str());

  // The serving deployment reads through the lock-free snapshot path with
  // the shared block cache inside a global memory budget; the arbiter
  // re-splits that budget as the mix drifts toward writes, and the knobs
  // survive the live retune (ApplyTuning carries them unchanged).
  constexpr uint64_t kCacheBytes = 1 * 1024 * 1024;
  constexpr uint64_t kBudgetBytes = 4 * 1024 * 1024;
  auto db = bridge::OpenTunedShardedDb(
                cfg, pipeline.current_tuning(), n,
                /*num_shards=*/4, /*background_maintenance=*/true,
                lsm::StorageBackend::kMemory, /*durable_dir=*/"",
                WalSyncMode::kBackground, kCacheBytes, kBudgetBytes)
                .value();
  workload::KeyUniverse universe(n);
  Rng rng(4242);

  // Phase 1: on-expectation epochs; phase 2: the workload silently shifts
  // toward writes + scans.
  const Workload shifted(0.10, 0.10, 0.30, 0.50);
  std::printf("%-6s %-22s %-10s %-8s %-10s %s\n", "epoch", "mix",
              "I/O per q", "KL", "migrated", "alarm");
  for (int epoch = 0; epoch < 12; ++epoch) {
    const Workload mix = epoch < 4 ? expected : shifted;
    const double io = RunEpoch(db.get(), mix, epoch_ops, &universe, &rng,
                               &pipeline);
    const lsm::MigrationProgress progress = db->Progress();
    char migrated[16];
    std::snprintf(migrated, sizeof(migrated), "%.0f%%",
                  100.0 * progress.entries_current_fraction());
    std::printf("%-6d %-22s %-10.2f %-8.2f %-10s %s\n", epoch,
                mix.ToString().c_str(), io,
                pipeline.monitor().LastEpochDivergence(), migrated,
                pipeline.RetuneRecommended() ? "DRIFT" : "");

    if (pipeline.RetuneRecommended() && pipeline.retune_count() == 0) {
      // Live apply: the recommendation lands on the serving system.
      // Writes keep flowing and reads keep being served; size-ratio and
      // policy changes migrate level by level on the maintenance pool,
      // and resident runs keep their Bloom filters until a compaction
      // rebuilds them under the new budget ("migrated" above tracks the
      // entry mass already under the new tuning).
      auto applied = pipeline.RetuneAndApply(db.get(), n);
      if (!applied.ok()) {
        std::printf("apply failed: %s\n",
                    applied.status().ToString().c_str());
        return 1;
      }
      std::printf("  -> retuned for %s (rho=%.2f): %s (applied live)\n",
                  pipeline.tuned_for().ToString().c_str(), pipeline.rho(),
                  applied.value().tuning.ToString().c_str());
    }
  }
  // The receipts: once the background migration has converged, the live-
  // retuned system should serve the shifted mix as cheaply as a rebuilt
  // deployment of the same tuning - without ever having stopped serving.
  // The rebuild baseline is opened fresh and then serves the same number
  // of post-retune epochs, so both trees are in serving shape (a
  // just-bulk-loaded tree is artificially settled: mass at the bottom,
  // empty shallow levels) when the comparison epochs run.
  db->WaitForMaintenance();
  const uint64_t count_at_compare = universe.count();
  double live_io = 0.0;
  for (int i = 0; i < 2; ++i) {
    live_io += RunEpoch(db.get(), shifted, epoch_ops, &universe, &rng,
                        &pipeline);
  }
  live_io /= 2.0;

  auto fresh = bridge::OpenTunedShardedDb(
                   cfg, pipeline.current_tuning(), count_at_compare,
                   /*num_shards=*/4, /*background_maintenance=*/true,
                   lsm::StorageBackend::kMemory, /*durable_dir=*/"",
                   WalSyncMode::kBackground, kCacheBytes, kBudgetBytes)
                   .value();
  workload::KeyUniverse fresh_universe(count_at_compare);
  Rng fresh_rng(4242);
  for (int i = 0; i < 8; ++i) {  // same post-retune service history
    RunEpoch(fresh.get(), shifted, epoch_ops, &fresh_universe, &fresh_rng,
             /*pipeline=*/nullptr);
  }
  fresh->WaitForMaintenance();
  double rebuilt_io = 0.0;
  for (int i = 0; i < 2; ++i) {
    rebuilt_io += RunEpoch(fresh.get(), shifted, epoch_ops,
                           &fresh_universe, &fresh_rng,
                           /*pipeline=*/nullptr);
  }
  rebuilt_io /= 2.0;

  std::printf(
      "\nconverged live-retuned system: %.2f I/Os per query\n"
      "rebuilt-and-served baseline:   %.2f I/Os per query\n"
      "-> live apply lands at %.0f%% of the rebuild's cost without ever\n"
      "   taking the system offline (the Section 7.3 playbook, no rebuild).\n",
      live_io, rebuilt_io,
      rebuilt_io > 0 ? 100.0 * live_io / rebuilt_io : 0.0);
  const lsm::Statistics stats = db->TotalStats();
  const uint64_t probes = stats.cache_hits + stats.cache_misses;
  std::printf(
      "\nlive system read path: %llu snapshot acquires, block cache "
      "%.1f%% hit ratio (%llu hits / %llu misses), %llu arbiter shifts\n",
      static_cast<unsigned long long>(stats.snapshot_acquires),
      probes > 0 ? 100.0 * static_cast<double>(stats.cache_hits) /
                       static_cast<double>(probes)
                 : 0.0,
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_misses),
      static_cast<unsigned long long>(stats.arbiter_shifts));
  return 0;
}
