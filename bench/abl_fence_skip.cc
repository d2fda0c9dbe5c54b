// Ablation: fence-pointer run skipping. RocksDB (and our engine, by
// default) skips runs whose [min,max] range cannot contain a short scan -
// the behaviour the paper cites to explain why measured range I/O
// undershoots the model in Fig. 8's session 2. Disabling the skip makes
// the engine match the model's one-seek-per-run assumption.

#include "bench_common.h"

int main() {
  using namespace endure;
  using namespace endure::bench;

  FigureHeader("Ablation - fence-pointer run skipping",
               "short-scan I/O with and without the skip vs the model");

  const BenchScale scale = ReadScale();
  SystemConfig cfg;
  SystemConfig scaled = bridge::ScaledConfig(cfg, scale.entries);
  scaled.level_policy = LevelPolicy::kInteger;
  CostModel model(scaled);

  TablePrinter table({"tuning", "model Q", "sys I/O (skip on)",
                      "sys I/O (skip off)"});
  for (const Tuning t : {Tuning(Policy::kLeveling, 6.0, 5.0),
                         Tuning(Policy::kLeveling, 12.0, 5.0),
                         Tuning(Policy::kTiering, 4.0, 5.0)}) {
    double ios[2];
    for (bool skip : {true, false}) {
      lsm::Options opts = bridge::MakeOptions(cfg, t, scale.entries);
      opts.fence_pointer_skip = skip;
      auto db_or = lsm::ShardedDB::Open(opts);
      std::vector<std::pair<lsm::Key, lsm::Value>> pairs;
      for (uint64_t i = 0; i < scale.entries; ++i) {
        pairs.emplace_back(2 * i, i);
      }
      (void)(*db_or)->BulkLoad(pairs);

      Rng rng(44);
      workload::KeyUniverse universe(scale.entries);
      const lsm::Statistics before = (*db_or)->TotalStats();
      const int n = 1500;
      for (int i = 0; i < n; ++i) {
        const lsm::Key lo = universe.SampleExisting(&rng);
        (void)(*db_or)->Scan(lo, lo + 4);  // ~2 entries: minimal selectivity
      }
      const lsm::Statistics d = (*db_or)->TotalStats().Delta(before);
      ios[skip ? 0 : 1] = static_cast<double>(d.range_pages_read) / n;
    }
    table.AddRow({t.ToString(), TablePrinter::Fmt(model.RangeQueryCost(t), 2),
                  TablePrinter::Fmt(ios[0], 2),
                  TablePrinter::Fmt(ios[1], 2)});
  }
  table.Print();
  std::printf(
      "\nexpected: skip-off tracks the model's Q; skip-on undershoots it\n"
      "(the paper's Fig. 8 session-2 discrepancy).\n");
  return 0;
}
