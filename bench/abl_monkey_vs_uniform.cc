// Ablation: Monkey's per-level Bloom allocation (Eq. 11) vs the classical
// uniform bits-per-entry baseline, measured on the engine. Monkey should
// serve empty point lookups with fewer I/Os at equal total filter memory -
// the assumption baked into the paper's cost model.

#include "bench_common.h"

int main() {
  using namespace endure;
  using namespace endure::bench;

  FigureHeader("Ablation - Monkey vs uniform filter allocation",
               "empty-point-lookup I/O at equal filter memory");

  const BenchScale scale = ReadScale();
  SystemConfig cfg;

  TablePrinter table({"h (bits/entry)", "T", "monkey I/O per z0",
                      "uniform I/O per z0", "monkey advantage"});
  for (double h : {2.0, 5.0, 8.0}) {
    for (int T : {4, 10}) {
      double ios[2];
      for (lsm::FilterAllocation alloc : {lsm::FilterAllocation::kMonkey,
                                          lsm::FilterAllocation::kUniform}) {
        Tuning t(Policy::kLeveling, T, h);
        lsm::Options opts = bridge::MakeOptions(cfg, t, scale.entries);
        opts.filter_allocation = alloc;
        auto db_or = lsm::ShardedDB::Open(opts);
        std::vector<std::pair<lsm::Key, lsm::Value>> pairs;
        pairs.reserve(scale.entries);
        for (uint64_t i = 0; i < scale.entries; ++i) {
          pairs.emplace_back(2 * i, i);
        }
        (void)(*db_or)->BulkLoad(pairs);

        Rng rng(33);
        workload::KeyUniverse universe(scale.entries);
        const lsm::Statistics before = (*db_or)->TotalStats();
        const int n = 4000;
        for (int i = 0; i < n; ++i) {
          (*db_or)->Get(universe.SampleMissing(&rng));
        }
        const lsm::Statistics d = (*db_or)->TotalStats().Delta(before);
        ios[static_cast<int>(alloc)] =
            static_cast<double>(d.point_pages_read) / n;
      }
      table.AddRow({TablePrinter::Fmt(h, 1), std::to_string(T),
                    TablePrinter::Fmt(ios[0], 3),
                    TablePrinter::Fmt(ios[1], 3),
                    TablePrinter::Fmt(ios[1] - ios[0], 3)});
    }
  }
  table.Print();
  std::printf("\nexpected: the monkey column never exceeds the uniform "
              "column materially,\nand wins at small h.\n");
  return 0;
}
