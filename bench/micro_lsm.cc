// Micro benchmarks: storage engine primitives — point lookups (hit and
// miss), short scans, writes with compaction amortization, and Bloom
// filter probes.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "bench_common.h"

namespace {

using namespace endure;
using namespace endure::lsm;

/// Decodes a benchmark Arg into a policy, refusing out-of-range values
/// (an unchecked cast would turn a typo'd ->Arg(3) into UB the policy
/// switch silently misinterprets).
CompactionPolicy PolicyFromArg(int64_t arg) {
  switch (arg) {
    case 0:
      return CompactionPolicy::kLeveling;
    case 1:
      return CompactionPolicy::kTiering;
    case 2:
      return CompactionPolicy::kLazyLeveling;
    default:
      std::fprintf(stderr, "micro_lsm: invalid policy arg %lld\n",
                   static_cast<long long>(arg));
      std::abort();
  }
}

std::unique_ptr<ShardedDB> MakeLoadedDb(uint64_t n, CompactionPolicy policy) {
  Options o;
  o.policy = policy;
  o.size_ratio = 8;
  o.buffer_entries = 1024;
  o.entries_per_page = 4;
  o.filter_bits_per_entry = 8.0;
  auto db = ShardedDB::Open(o);
  std::vector<std::pair<Key, Value>> pairs;
  pairs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) pairs.emplace_back(2 * i, i);
  (void)(*db)->BulkLoad(pairs);
  return std::move(db).value();
}

void BM_PointLookupHit(benchmark::State& state) {
  auto db = MakeLoadedDb(100000, PolicyFromArg(state.range(0)));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get(2 * rng.UniformInt(0, 99999)));
  }
}
BENCHMARK(BM_PointLookupHit)->Arg(0)->Arg(1)->Arg(2);

void BM_PointLookupMiss(benchmark::State& state) {
  auto db = MakeLoadedDb(100000, PolicyFromArg(state.range(0)));
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get(2 * rng.UniformInt(0, 99999) + 1));
  }
}
BENCHMARK(BM_PointLookupMiss)->Arg(0)->Arg(1)->Arg(2);

void BM_ShortScan(benchmark::State& state) {
  auto db = MakeLoadedDb(100000, CompactionPolicy::kLeveling);
  Rng rng(3);
  for (auto _ : state) {
    const Key lo = 2 * rng.UniformInt(0, 99990);
    benchmark::DoNotOptimize(db->Scan(lo, lo + 8).value());
  }
}
BENCHMARK(BM_ShortScan);

void BM_Write(benchmark::State& state) {
  Options o;
  o.policy = PolicyFromArg(state.range(0));
  o.size_ratio = 8;
  o.buffer_entries = 1024;
  o.entries_per_page = 4;
  auto db = ShardedDB::Open(o);
  Key next = 0;
  for (auto _ : state) {
    (*db)->Put(next, next);
    next += 2;
  }
}
BENCHMARK(BM_Write)->Arg(0)->Arg(1)->Arg(2);

void BM_BloomProbe(benchmark::State& state) {
  BloomFilter filter(100000, 10.0);
  for (Key k = 0; k < 100000; ++k) filter.Add(2 * k);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.MayContain(rng.Next()));
  }
}
BENCHMARK(BM_BloomProbe);

void BM_MemtableUpsert(benchmark::State& state) {
  MemTable mt(1 << 20);
  Rng rng(5);
  for (auto _ : state) {
    mt.Upsert(Entry{rng.Next() % (1 << 18), 1, 1, EntryType::kValue});
  }
}
BENCHMARK(BM_MemtableUpsert);

}  // namespace

BENCHMARK_MAIN();
