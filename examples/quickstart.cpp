// Quickstart: tune an LSM tree with Endure in a dozen lines.
//
// Scenario: you expect a mixed read-heavy workload but operate in the
// cloud, where tenant churn makes the mix uncertain. Endure recommends a
// tuning that maximizes worst-case throughput over a KL-divergence ball
// around your expectation.

#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/endure.h"
#include "lsm/sharded_db.h"

int main() {
  using namespace endure;

  // 1. Describe the environment (defaults: 10M x 1KB entries, 4KB pages,
  //    10 bits/entry of memory, short range scans).
  SystemConfig cfg;
  CostModel model(cfg);

  // 2. Describe the expected workload: 33% empty reads, 33% non-empty
  //    reads, 33% short scans, 1% writes (the paper's w11).
  Workload expected(0.33, 0.33, 0.33, 0.01);

  // 3. Classical (nominal) tuning: best if the expectation is exact.
  NominalTuner nominal(model);
  TuningResult nom = nominal.Tune(expected);
  std::printf("Nominal tuning : %s  (expected cost %.3f I/Os per op)\n",
              nom.tuning.ToString().c_str(), nom.objective);

  // 4. Robust tuning: best worst-case over workloads within KL <= rho.
  RobustTuner robust(model);
  const double rho = 1.0;
  TuningResult rob = robust.Tune(expected, rho);
  std::printf("Robust tuning  : %s  (worst-case cost %.3f I/Os per op)\n",
              rob.tuning.ToString().c_str(), rob.objective);

  // 5. Compare the two on a surprise workload: writes jumped to 30%.
  Workload observed(0.2, 0.2, 0.3, 0.3);
  const double delta = DeltaThroughput(model, observed, nom.tuning,
                                       rob.tuning);
  std::printf(
      "\nObserved workload %s:\n"
      "  nominal cost  %.3f I/Os per op\n"
      "  robust cost   %.3f I/Os per op\n"
      "  robust tuning delivers %+.0f%% throughput\n",
      observed.ToString().c_str(), model.Cost(observed, nom.tuning),
      model.Cost(observed, rob.tuning), delta * 100.0);

  // 6. The inner solution also tells you which workload the robust tuning
  //    is defending against.
  DualSolution inner = robust.SolveInner(expected, rho, rob.tuning);
  std::printf("Worst-case workload inside the rho=%.1f ball: %s\n", rho,
              inner.worst_case.ToString().c_str());

  // 7. Deployments are durable: open a crash-safe database, write, close,
  //    and reopen — the data (and, in general, an applied tuning) survive
  //    the restart. See docs/durability.md for the guarantees.
  lsm::Options opts;
  opts.backend = lsm::StorageBackend::kFile;
  opts.storage_dir = "/tmp/endure_quickstart_db";
  opts.durability = true;
  std::filesystem::remove_all(opts.storage_dir);  // start from scratch
  {
    auto db = std::move(lsm::ShardedDB::Open(opts)).value();
    for (lsm::Key k = 0; k < 1000; ++k) db->Put(k, k * 2);
  }  // clean close: the WAL is synced whatever the sync mode
  auto reopened = std::move(lsm::ShardedDB::Open(opts)).value();
  std::printf("\nReopened durable DB: %llu entries recovered, Get(7) = %llu\n",
              static_cast<unsigned long long>(reopened->TotalEntries()),
              static_cast<unsigned long long>(*reopened->Get(7)));
  return 0;
}
