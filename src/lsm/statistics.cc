#include "lsm/statistics.h"

#include <cstdio>

namespace endure::lsm {

void Statistics::OnPageRead(IoContext ctx, uint64_t pages) {
  pages_read += pages;
  switch (ctx) {
    case IoContext::kPointQuery:
      point_pages_read += pages;
      break;
    case IoContext::kRangeQuery:
      range_pages_read += pages;
      break;
    case IoContext::kCompaction:
      compaction_pages_read += pages;
      break;
    case IoContext::kRecovery:
      recovery_pages_read += pages;
      break;
    case IoContext::kFlush:
    case IoContext::kBulkLoad:
      break;
  }
}

void Statistics::OnPageWrite(IoContext ctx, uint64_t pages) {
  pages_written += pages;
  switch (ctx) {
    case IoContext::kFlush:
      flush_pages_written += pages;
      break;
    case IoContext::kCompaction:
      compaction_pages_written += pages;
      break;
    case IoContext::kBulkLoad:
      bulk_load_pages_written += pages;
      break;
    case IoContext::kPointQuery:
    case IoContext::kRangeQuery:
    case IoContext::kRecovery:
      break;
  }
}

void Statistics::Accumulate(const Statistics& shard) {
  pages_read += shard.pages_read;
  pages_written += shard.pages_written;
  point_pages_read += shard.point_pages_read;
  range_pages_read += shard.range_pages_read;
  range_seeks += shard.range_seeks;
  flush_pages_written += shard.flush_pages_written;
  compaction_pages_read += shard.compaction_pages_read;
  compaction_pages_written += shard.compaction_pages_written;
  bulk_load_pages_written += shard.bulk_load_pages_written;
  bloom_probes += shard.bloom_probes;
  bloom_negatives += shard.bloom_negatives;
  bloom_false_positives += shard.bloom_false_positives;
  fence_skips += shard.fence_skips;
  gets += shard.gets;
  range_queries += shard.range_queries;
  writes += shard.writes;
  flushes += shard.flushes;
  compactions += shard.compactions;
  reconfigurations += shard.reconfigurations;
  migration_steps += shard.migration_steps;
  wal_records += shard.wal_records;
  wal_bytes += shard.wal_bytes;
  wal_syncs += shard.wal_syncs;
  wal_rotations += shard.wal_rotations;
  manifest_writes += shard.manifest_writes;
  recoveries += shard.recoveries;
  wal_replayed_entries += shard.wal_replayed_entries;
  recovery_pages_read += shard.recovery_pages_read;
  io_retries += shard.io_retries;
  checksum_failures += shard.checksum_failures;
  read_only_transitions += shard.read_only_transitions;
  compaction_stall_ms += shard.compaction_stall_ms;
  write_stalls += shard.write_stalls;
  rate_limited_ms += shard.rate_limited_ms;
  compactions_partitioned += shard.compactions_partitioned;
  compaction_subtasks += shard.compaction_subtasks;
  sched_jobs += shard.sched_jobs;
  sched_requeues += shard.sched_requeues;
  snapshot_acquires += shard.snapshot_acquires;
  cache_hits += shard.cache_hits;
  cache_misses += shard.cache_misses;
  cache_evictions += shard.cache_evictions;
  arbiter_shifts += shard.arbiter_shifts;
  // A gauge, not a sum: the deployment-wide peak is the max over sources.
  if (shard.sched_queue_peak > sched_queue_peak) {
    sched_queue_peak = shard.sched_queue_peak.load();
  }
}

Statistics Statistics::Delta(const Statistics& b) const {
  Statistics d;
  d.pages_read = pages_read - b.pages_read;
  d.pages_written = pages_written - b.pages_written;
  d.point_pages_read = point_pages_read - b.point_pages_read;
  d.range_pages_read = range_pages_read - b.range_pages_read;
  d.range_seeks = range_seeks - b.range_seeks;
  d.flush_pages_written = flush_pages_written - b.flush_pages_written;
  d.compaction_pages_read = compaction_pages_read - b.compaction_pages_read;
  d.compaction_pages_written =
      compaction_pages_written - b.compaction_pages_written;
  d.bulk_load_pages_written =
      bulk_load_pages_written - b.bulk_load_pages_written;
  d.bloom_probes = bloom_probes - b.bloom_probes;
  d.bloom_negatives = bloom_negatives - b.bloom_negatives;
  d.bloom_false_positives = bloom_false_positives - b.bloom_false_positives;
  d.fence_skips = fence_skips - b.fence_skips;
  d.gets = gets - b.gets;
  d.range_queries = range_queries - b.range_queries;
  d.writes = writes - b.writes;
  d.flushes = flushes - b.flushes;
  d.compactions = compactions - b.compactions;
  d.reconfigurations = reconfigurations - b.reconfigurations;
  d.migration_steps = migration_steps - b.migration_steps;
  d.wal_records = wal_records - b.wal_records;
  d.wal_bytes = wal_bytes - b.wal_bytes;
  d.wal_syncs = wal_syncs - b.wal_syncs;
  d.wal_rotations = wal_rotations - b.wal_rotations;
  d.manifest_writes = manifest_writes - b.manifest_writes;
  d.recoveries = recoveries - b.recoveries;
  d.wal_replayed_entries = wal_replayed_entries - b.wal_replayed_entries;
  d.recovery_pages_read = recovery_pages_read - b.recovery_pages_read;
  d.io_retries = io_retries - b.io_retries;
  d.checksum_failures = checksum_failures - b.checksum_failures;
  d.read_only_transitions = read_only_transitions - b.read_only_transitions;
  d.compaction_stall_ms = compaction_stall_ms - b.compaction_stall_ms;
  d.write_stalls = write_stalls - b.write_stalls;
  d.rate_limited_ms = rate_limited_ms - b.rate_limited_ms;
  d.compactions_partitioned =
      compactions_partitioned - b.compactions_partitioned;
  d.compaction_subtasks = compaction_subtasks - b.compaction_subtasks;
  d.sched_jobs = sched_jobs - b.sched_jobs;
  d.sched_requeues = sched_requeues - b.sched_requeues;
  d.snapshot_acquires = snapshot_acquires - b.snapshot_acquires;
  d.cache_hits = cache_hits - b.cache_hits;
  d.cache_misses = cache_misses - b.cache_misses;
  d.cache_evictions = cache_evictions - b.cache_evictions;
  d.arbiter_shifts = arbiter_shifts - b.arbiter_shifts;
  // Gauge: the session's peak is simply the current peak (a baseline
  // subtraction would be meaningless for a max).
  d.sched_queue_peak = sched_queue_peak.load();
  return d;
}

std::string Statistics::ToString() const {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "Statistics{\n"
      "  pages_read=%llu (point=%llu range=%llu compaction=%llu)\n"
      "  pages_written=%llu (flush=%llu compaction=%llu bulk=%llu)\n"
      "  range_seeks=%llu\n"
      "  bloom: probes=%llu negatives=%llu false_positives=%llu\n"
      "  fence_skips=%llu\n"
      "  ops: gets=%llu ranges=%llu writes=%llu flushes=%llu "
      "compactions=%llu\n"
      "  reconfig: applies=%llu migration_steps=%llu\n"
      "  wal: records=%llu bytes=%llu syncs=%llu rotations=%llu\n"
      "  durability: manifest_writes=%llu recoveries=%llu "
      "replayed=%llu recovery_pages=%llu\n"
      "  faults: io_retries=%llu checksum_failures=%llu "
      "read_only_transitions=%llu\n"
      "  scheduler: jobs=%llu requeues=%llu queue_peak=%llu\n"
      "  stalls: write_stalls=%llu stall_ms=%llu rate_limited_ms=%llu\n"
      "  partitioned: merges=%llu subtasks=%llu\n"
      "  read path: snapshot_acquires=%llu\n"
      "  cache: hits=%llu misses=%llu evictions=%llu arbiter_shifts=%llu\n}",
      static_cast<unsigned long long>(pages_read),
      static_cast<unsigned long long>(point_pages_read),
      static_cast<unsigned long long>(range_pages_read),
      static_cast<unsigned long long>(compaction_pages_read),
      static_cast<unsigned long long>(pages_written),
      static_cast<unsigned long long>(flush_pages_written),
      static_cast<unsigned long long>(compaction_pages_written),
      static_cast<unsigned long long>(bulk_load_pages_written),
      static_cast<unsigned long long>(range_seeks),
      static_cast<unsigned long long>(bloom_probes),
      static_cast<unsigned long long>(bloom_negatives),
      static_cast<unsigned long long>(bloom_false_positives),
      static_cast<unsigned long long>(fence_skips),
      static_cast<unsigned long long>(gets),
      static_cast<unsigned long long>(range_queries),
      static_cast<unsigned long long>(writes),
      static_cast<unsigned long long>(flushes),
      static_cast<unsigned long long>(compactions),
      static_cast<unsigned long long>(reconfigurations),
      static_cast<unsigned long long>(migration_steps),
      static_cast<unsigned long long>(wal_records),
      static_cast<unsigned long long>(wal_bytes),
      static_cast<unsigned long long>(wal_syncs),
      static_cast<unsigned long long>(wal_rotations),
      static_cast<unsigned long long>(manifest_writes),
      static_cast<unsigned long long>(recoveries),
      static_cast<unsigned long long>(wal_replayed_entries),
      static_cast<unsigned long long>(recovery_pages_read),
      static_cast<unsigned long long>(io_retries),
      static_cast<unsigned long long>(checksum_failures),
      static_cast<unsigned long long>(read_only_transitions),
      static_cast<unsigned long long>(sched_jobs),
      static_cast<unsigned long long>(sched_requeues),
      static_cast<unsigned long long>(sched_queue_peak),
      static_cast<unsigned long long>(write_stalls),
      static_cast<unsigned long long>(compaction_stall_ms),
      static_cast<unsigned long long>(rate_limited_ms),
      static_cast<unsigned long long>(compactions_partitioned),
      static_cast<unsigned long long>(compaction_subtasks),
      static_cast<unsigned long long>(snapshot_acquires),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      static_cast<unsigned long long>(cache_evictions),
      static_cast<unsigned long long>(arbiter_shifts));
  return buf;
}

std::vector<std::pair<std::string, uint64_t>> Statistics::Named() const {
  return {
      {"pages_read", pages_read},
      {"pages_written", pages_written},
      {"point_pages_read", point_pages_read},
      {"range_pages_read", range_pages_read},
      {"range_seeks", range_seeks},
      {"flush_pages_written", flush_pages_written},
      {"compaction_pages_read", compaction_pages_read},
      {"compaction_pages_written", compaction_pages_written},
      {"bulk_load_pages_written", bulk_load_pages_written},
      {"bloom_probes", bloom_probes},
      {"bloom_negatives", bloom_negatives},
      {"bloom_false_positives", bloom_false_positives},
      {"fence_skips", fence_skips},
      {"gets", gets},
      {"range_queries", range_queries},
      {"writes", writes},
      {"flushes", flushes},
      {"compactions", compactions},
      {"reconfigurations", reconfigurations},
      {"migration_steps", migration_steps},
      {"wal_records", wal_records},
      {"wal_bytes", wal_bytes},
      {"wal_syncs", wal_syncs},
      {"wal_rotations", wal_rotations},
      {"manifest_writes", manifest_writes},
      {"recoveries", recoveries},
      {"wal_replayed_entries", wal_replayed_entries},
      {"recovery_pages_read", recovery_pages_read},
      {"io_retries", io_retries},
      {"checksum_failures", checksum_failures},
      {"read_only_transitions", read_only_transitions},
      {"compaction_stall_ms", compaction_stall_ms},
      {"write_stalls", write_stalls},
      {"rate_limited_ms", rate_limited_ms},
      {"compactions_partitioned", compactions_partitioned},
      {"compaction_subtasks", compaction_subtasks},
      {"sched_jobs", sched_jobs},
      {"sched_requeues", sched_requeues},
      {"sched_queue_peak", sched_queue_peak},
      {"snapshot_acquires", snapshot_acquires},
      {"cache_hits", cache_hits},
      {"cache_misses", cache_misses},
      {"cache_evictions", cache_evictions},
      {"arbiter_shifts", arbiter_shifts},
  };
}

}  // namespace endure::lsm
