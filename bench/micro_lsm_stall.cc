// micro_lsm_stall: foreground put latency under compaction pressure — the
// tail-latency view of the compaction scheduler. Two legs over the same
// write-heavy workload (memory backend, small buffer so flushes and
// merges churn constantly):
//
//   inline      background_maintenance off — every flush and the merges
//               it starts run on the writing thread, under its lock.
//   background  the scheduler path — prepare/install under the shard
//               lock, merge I/O off it, with write backpressure instead
//               of inline merges.
//
// Reported per leg: put throughput, p50/p99/p999 single-put latency (ns)
// and the scheduler/stall counters (write_stalls, compaction_stall_ms,
// rate_limited_ms, compactions_partitioned, sched_jobs). On a 1-core
// container the two legs time-slice the same CPU, so throughput is
// similar and the difference shows in the tail percentiles; with spare
// cores the background leg pulls ahead on both.
//
// Scale knobs (environment):
//   MICRO_LSM_OPS  puts per leg (default 200k)
//
// Usage: micro_lsm_stall [output.json]  (always prints to stdout too)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "lsm/sharded_db.h"
#include "util/random.h"

ENDURE_BENCH_DEFINE_ALLOC_COUNTING()

namespace endure::lsm {
namespace {

using bench_util::Meter;
using bench_util::PhaseResult;

Options BenchOptions(bool background) {
  Options o;
  o.size_ratio = 6;
  o.buffer_entries = 4096;
  o.entries_per_page = 256;
  o.filter_bits_per_entry = 8.0;
  o.num_shards = 1;  // one shard: every put contends with its maintenance
  o.background_maintenance = background;
  return o;
}

struct LegResult {
  PhaseResult put;
  uint64_t p50_ns = 0, p99_ns = 0, p999_ns = 0;
  Statistics stats;
};

uint64_t Percentile(std::vector<uint64_t>* sorted_ns, double q) {
  if (sorted_ns->empty()) return 0;
  const size_t idx = std::min(
      sorted_ns->size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ns->size())));
  return (*sorted_ns)[idx];
}

LegResult RunLeg(bool background, uint64_t ops) {
  LegResult out;
  auto db = std::move(ShardedDB::Open(BenchOptions(background))).value();
  Rng rng(47);
  std::vector<uint64_t> lat_ns(ops);
  Meter meter;
  for (uint64_t i = 0; i < ops; ++i) {
    const Key k = 2 * static_cast<Key>(rng.UniformInt(0, 1 << 20));
    const auto t0 = std::chrono::steady_clock::now();
    if (!db->Put(k, i).ok()) std::abort();
    lat_ns[i] = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  db->WaitForMaintenance();
  out.put = meter.Finish(ops, db->TotalStats().pages_written.load());
  std::sort(lat_ns.begin(), lat_ns.end());
  out.p50_ns = Percentile(&lat_ns, 0.50);
  out.p99_ns = Percentile(&lat_ns, 0.99);
  out.p999_ns = Percentile(&lat_ns, 0.999);
  out.stats = db->TotalStats();
  return out;
}

void AppendLegJson(std::string* json, const char* name, const LegResult& r,
                   bool last) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    \"%s\": {\n"
      "      \"put\": {\"ops_per_sec\": %.0f, \"allocs_per_op\": %.4f, "
      "\"alloc_bytes_per_op\": %.1f, \"pages_per_op\": %.3f},\n"
      "      \"put_p50_ns\": %llu, \"put_p99_ns\": %llu, "
      "\"put_p999_ns\": %llu,\n"
      "      \"write_stalls\": %llu, \"compaction_stall_ms\": %llu, "
      "\"rate_limited_ms\": %llu, \"compactions_partitioned\": %llu, "
      "\"sched_jobs\": %llu\n"
      "    }%s\n",
      name, r.put.ops_per_sec, r.put.allocs_per_op,
      r.put.alloc_bytes_per_op, r.put.pages_per_op,
      static_cast<unsigned long long>(r.p50_ns),
      static_cast<unsigned long long>(r.p99_ns),
      static_cast<unsigned long long>(r.p999_ns),
      static_cast<unsigned long long>(r.stats.write_stalls.load()),
      static_cast<unsigned long long>(r.stats.compaction_stall_ms.load()),
      static_cast<unsigned long long>(r.stats.rate_limited_ms.load()),
      static_cast<unsigned long long>(
          r.stats.compactions_partitioned.load()),
      static_cast<unsigned long long>(r.stats.sched_jobs.load()),
      last ? "" : ",");
  *json += buf;
}

int Main(int argc, char** argv) {
  uint64_t ops = 200000;
  if (const char* env = std::getenv("MICRO_LSM_OPS")) {
    ops = std::strtoull(env, nullptr, 10);
  }

  const LegResult inline_leg = RunLeg(/*background=*/false, ops);
  const LegResult bg_leg = RunLeg(/*background=*/true, ops);

  std::string json = bench_util::BeginJson("micro_lsm");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"config\": {\"ops\": %llu, \"entries_per_page\": 256, "
                "\"buffer_entries\": 4096, \"hardware_threads\": %u},\n"
                "  \"legs\": {\n",
                static_cast<unsigned long long>(ops),
                std::thread::hardware_concurrency());
  json += buf;
  AppendLegJson(&json, "inline", inline_leg, /*last=*/false);
  AppendLegJson(&json, "background", bg_leg, /*last=*/true);
  json += "  },\n";
  const double tail_ratio =
      bg_leg.p999_ns > 0 ? static_cast<double>(inline_leg.p999_ns) /
                               static_cast<double>(bg_leg.p999_ns)
                         : 0.0;
  std::snprintf(buf, sizeof(buf),
                "  \"p999_inline_over_background\": %.2f\n}\n", tail_ratio);
  json += buf;
  return bench_util::EmitJson(json, argc, argv);
}

}  // namespace
}  // namespace endure::lsm

int main(int argc, char** argv) { return endure::lsm::Main(argc, argv); }
