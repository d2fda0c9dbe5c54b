// micro_io: fill / point-lookup / scan throughput and heap allocations per
// operation on both page-store backends. The numbers land in
// BENCH_micro_io.json at the repo root so successive PRs have a perf
// trajectory for the storage hot path.
//
// Scale knobs (environment):
//   MICRO_IO_N    entries bulk-loaded before the read phases (default 200k)
//   MICRO_IO_OPS  operations per read phase                  (default 200k)
//
// Usage: micro_io [output.json]   (always prints the JSON to stdout too)

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "lsm/sharded_db.h"
#include "util/env.h"
#include "util/random.h"

ENDURE_BENCH_DEFINE_ALLOC_COUNTING()

namespace endure::lsm {
namespace {

using bench_util::Meter;
using bench_util::PhaseResult;

Options BenchOptions(StorageBackend backend) {
  Options o;
  o.size_ratio = 6;
  o.buffer_entries = 4096;
  // 256 in-memory entries per page ~ an 8KB disk page — the regime the
  // paper's direct-I/O setup models (one logical access = one device
  // page).
  o.entries_per_page = 256;
  o.filter_bits_per_entry = 8.0;
  o.backend = backend;
  o.storage_dir = "/tmp/endure_micro_io";
  return o;
}

struct BackendResults {
  PhaseResult fill, get_hit, get_miss, scan;
};

BackendResults RunBackend(StorageBackend backend, uint64_t n, uint64_t ops) {
  BackendResults out;

  // --- fill: random upserts through the memtable/flush/compaction path ---
  {
    auto db = std::move(ShardedDB::Open(BenchOptions(backend))).value();
    Rng rng(42);
    Meter meter;
    for (uint64_t i = 0; i < n; ++i) {
      db->Put(2 * rng.UniformInt(0, static_cast<int64_t>(n) - 1), i);
    }
    out.fill = meter.Finish(n, db->TotalStats().pages_written);
  }

  // --- read phases run against a settled bulk-loaded tree ---
  auto db = std::move(ShardedDB::Open(BenchOptions(backend))).value();
  {
    std::vector<std::pair<Key, Value>> pairs;
    pairs.reserve(n);
    for (uint64_t i = 0; i < n; ++i) pairs.emplace_back(2 * i, i);
    if (!db->BulkLoad(pairs).ok()) std::abort();
  }

  // --- get: non-empty (z1) and empty (z0) point lookups, separately ---
  {
    Rng rng(43);
    for (int i = 0; i < 1000; ++i) db->Get(2 * rng.UniformInt(0, 1000));
    Rng hit_rng(44);
    const Statistics before_hit = db->TotalStats();
    Meter hit_meter;
    uint64_t found = 0;
    for (uint64_t i = 0; i < ops; ++i) {
      found += db->Get(2 * hit_rng.UniformInt(0, n - 1)).has_value();
    }
    out.get_hit =
        hit_meter.Finish(ops, db->TotalStats().Delta(before_hit).pages_read);
    if (found != ops) std::abort();

    Rng miss_rng(45);
    const Statistics before_miss = db->TotalStats();
    Meter miss_meter;
    for (uint64_t i = 0; i < ops; ++i) {
      found += db->Get(2 * miss_rng.UniformInt(0, n - 1) + 1).has_value();
    }
    out.get_miss =
        miss_meter.Finish(ops, db->TotalStats().Delta(before_miss).pages_read);
    if (found != ops) std::abort();
  }

  // --- scan: short range queries (8 live keys each) ---
  {
    const uint64_t scans = ops / 16;
    Rng rng(46);
    const Statistics before = db->TotalStats();
    Meter meter;
    uint64_t returned = 0;
    for (uint64_t i = 0; i < scans; ++i) {
      const Key lo = 2 * rng.UniformInt(0, static_cast<int64_t>(n) - 9);
      returned += db->Scan(lo, lo + 16).value().size();
    }
    out.scan = meter.Finish(scans, db->TotalStats().Delta(before).pages_read);
    if (returned == 0) std::abort();
  }

  return out;
}

}  // namespace
}  // namespace endure::lsm

int main(int argc, char** argv) {
  using namespace endure::lsm;
  const uint64_t n =
      static_cast<uint64_t>(endure::GetEnvInt("MICRO_IO_N", 200000));
  const uint64_t ops =
      static_cast<uint64_t>(endure::GetEnvInt("MICRO_IO_OPS", 200000));

  std::string json = endure::bench_util::BeginJson("micro_io");
  {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  \"config\": {\"n\": %llu, \"ops\": %llu, "
                  "\"entries_per_page\": 256, \"buffer_entries\": 4096},\n",
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(ops));
    json += buf;
  }
  json += "  \"backends\": {\n";

  const struct {
    const char* name;
    StorageBackend backend;
  } kBackends[] = {{"memory", StorageBackend::kMemory},
                   {"file", StorageBackend::kFile}};
  for (size_t b = 0; b < 2; ++b) {
    std::fprintf(stderr, "running backend %s...\n", kBackends[b].name);
    const BackendResults r = RunBackend(kBackends[b].backend, n, ops);
    json += std::string("    \"") + kBackends[b].name + "\": {\n";
    endure::bench_util::AppendPhaseJson(&json, "fill", r.fill, false);
    endure::bench_util::AppendPhaseJson(&json, "get_hit", r.get_hit, false);
    endure::bench_util::AppendPhaseJson(&json, "get_miss", r.get_miss, false);
    endure::bench_util::AppendPhaseJson(&json, "scan", r.scan, true);
    json += b + 1 < 2 ? "    },\n" : "    }\n";
  }
  json += "  }\n}\n";

  return endure::bench_util::EmitJson(json, argc, argv);
}
