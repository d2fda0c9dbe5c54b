#include "lsm/manifest.h"

#include <cstring>

#include "util/env.h"
#include "util/wal.h"

namespace endure::lsm {
namespace {

constexpr uint32_t kManifestMagic = 0x4D444E45u;  // "ENDM"

// Little appenders/readers over a byte string. All integers are stored in
// native (little-endian) byte order, like the segment page encoding.
template <typename T>
void PutFixed(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
bool GetFixed(const std::string& in, size_t* pos, T* v) {
  if (in.size() - *pos < sizeof(T)) return false;
  std::memcpy(v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

void ManifestData::ApplyTuningTo(Options* opts) const {
  opts->size_ratio = size_ratio;
  opts->policy = static_cast<CompactionPolicy>(policy);
  opts->buffer_entries = buffer_entries;
  opts->filter_bits_per_entry = filter_bits_per_entry;
  opts->filter_allocation = static_cast<FilterAllocation>(filter_allocation);
  opts->fence_pointer_skip = fence_pointer_skip;
}

void ManifestData::RecordTuningFrom(const Options& opts) {
  size_ratio = opts.size_ratio;
  policy = static_cast<int>(opts.policy);
  buffer_entries = opts.buffer_entries;
  filter_bits_per_entry = opts.filter_bits_per_entry;
  filter_allocation = static_cast<int>(opts.filter_allocation);
  fence_pointer_skip = opts.fence_pointer_skip;
  entries_per_page = opts.entries_per_page;
}

Status WriteManifest(const std::string& path, const ManifestData& m) {
  std::string payload;
  PutFixed<uint32_t>(&payload, static_cast<uint32_t>(m.size_ratio));
  PutFixed<uint8_t>(&payload, static_cast<uint8_t>(m.policy));
  PutFixed<uint8_t>(&payload, static_cast<uint8_t>(m.filter_allocation));
  PutFixed<uint8_t>(&payload, m.fence_pointer_skip ? 1 : 0);
  PutFixed<uint8_t>(&payload, m.migration_pending ? 1 : 0);
  PutFixed<uint8_t>(&payload, static_cast<uint8_t>(m.kind));
  PutFixed<uint64_t>(&payload, m.buffer_entries);
  PutFixed<uint64_t>(&payload, m.entries_per_page);
  PutFixed<double>(&payload, m.filter_bits_per_entry);
  PutFixed<uint32_t>(&payload, static_cast<uint32_t>(m.num_shards));
  PutFixed<uint64_t>(&payload, m.tuning_epoch);
  PutFixed<uint64_t>(&payload, m.next_seq);
  PutFixed<uint64_t>(&payload, m.next_file_id);
  PutFixed<uint64_t>(&payload, m.wal_min_gen);
  PutFixed<uint32_t>(&payload, static_cast<uint32_t>(m.levels.size()));
  for (const auto& level : m.levels) {
    PutFixed<uint32_t>(&payload, static_cast<uint32_t>(level.size()));
    for (const ManifestRun& run : level) {
      PutFixed<uint64_t>(&payload, run.segment);
      PutFixed<uint64_t>(&payload, run.num_entries);
      PutFixed<uint64_t>(&payload, run.tuning_epoch);
      PutFixed<double>(&payload, run.bloom_bits_per_entry);
    }
  }

  std::string blob;
  blob.reserve(16 + payload.size());
  PutFixed<uint32_t>(&blob, kManifestMagic);
  PutFixed<uint32_t>(&blob, kManifestVersion);
  PutFixed<uint32_t>(&blob, Crc32(payload.data(), payload.size()));
  PutFixed<uint32_t>(&blob, static_cast<uint32_t>(payload.size()));
  blob += payload;
  return WriteFileAtomic(path, blob);
}

StatusOr<ManifestData> ReadManifest(const std::string& path) {
  auto blob_or = ReadFileToString(path);
  if (!blob_or.ok()) return blob_or.status();
  const std::string& blob = *blob_or;

  size_t pos = 0;
  uint32_t magic, version, crc, len;
  if (!GetFixed(blob, &pos, &magic) || magic != kManifestMagic) {
    return Status::IOError("manifest " + path + ": bad magic");
  }
  if (!GetFixed(blob, &pos, &version) || version > kManifestVersion) {
    return Status::IOError("manifest " + path +
                           ": unsupported format version");
  }
  if (!GetFixed(blob, &pos, &crc) || !GetFixed(blob, &pos, &len) ||
      blob.size() - pos < len) {
    return Status::IOError("manifest " + path + ": truncated header");
  }
  if (Crc32(blob.data() + pos, len) != crc) {
    return Status::IOError("manifest " + path + ": payload CRC mismatch");
  }

  ManifestData m;
  uint32_t size_ratio, num_shards, num_levels;
  uint8_t policy, allocation, fence_skip, migration, kind;
  bool ok = GetFixed(blob, &pos, &size_ratio) &&
            GetFixed(blob, &pos, &policy) &&
            GetFixed(blob, &pos, &allocation) &&
            GetFixed(blob, &pos, &fence_skip) &&
            GetFixed(blob, &pos, &migration) &&
            GetFixed(blob, &pos, &kind) &&
            GetFixed(blob, &pos, &m.buffer_entries) &&
            GetFixed(blob, &pos, &m.entries_per_page) &&
            GetFixed(blob, &pos, &m.filter_bits_per_entry) &&
            GetFixed(blob, &pos, &num_shards) &&
            GetFixed(blob, &pos, &m.tuning_epoch) &&
            GetFixed(blob, &pos, &m.next_seq) &&
            GetFixed(blob, &pos, &m.next_file_id) &&
            (version < 2 || GetFixed(blob, &pos, &m.wal_min_gen)) &&
            GetFixed(blob, &pos, &num_levels);
  if (!ok) return Status::IOError("manifest " + path + ": short payload");
  m.size_ratio = static_cast<int>(size_ratio);
  m.policy = policy;
  m.filter_allocation = allocation;
  m.fence_pointer_skip = fence_skip != 0;
  m.migration_pending = migration != 0;
  m.kind = kind;
  m.num_shards = static_cast<int>(num_shards);
  m.levels.resize(num_levels);
  for (auto& level : m.levels) {
    uint32_t num_runs;
    if (!GetFixed(blob, &pos, &num_runs)) {
      return Status::IOError("manifest " + path + ": short level header");
    }
    level.resize(num_runs);
    for (ManifestRun& run : level) {
      if (!GetFixed(blob, &pos, &run.segment) ||
          !GetFixed(blob, &pos, &run.num_entries) ||
          !GetFixed(blob, &pos, &run.tuning_epoch) ||
          !GetFixed(blob, &pos, &run.bloom_bits_per_entry)) {
        return Status::IOError("manifest " + path + ": short run record");
      }
    }
  }
  return m;
}

StatusOr<std::shared_ptr<Run>> RebuildRun(PageStore* store,
                                          const ManifestRun& meta,
                                          uint64_t entries_per_page) {
  const size_t num_pages =
      (meta.num_entries + entries_per_page - 1) / entries_per_page;
  auto bloom = std::make_unique<BloomFilter>(meta.num_entries,
                                             meta.bloom_bits_per_entry);
  std::vector<Key> first_keys;
  first_keys.reserve(num_pages);
  Key last_key = 0;
  // One extent per pread across the whole segment, decoded into the
  // window's pooled page buffer.
  ReadWindow window;
  for (size_t page = 0; page < num_pages; ++page) {
    const StatusOr<PageView> view =
        store->ReadPageView(meta.segment, page, num_pages - 1,
                            IoContext::kRecovery, /*scratch=*/nullptr,
                            &window);
    ENDURE_RETURN_IF_ERROR(view.status());
    if (view->size == 0) {
      return Status::Corruption("empty page " + std::to_string(page) +
                                " in recovered segment " +
                                std::to_string(meta.segment));
    }
    first_keys.push_back((*view)[0].key);
    for (const Entry& e : *view) {
      bloom->Add(e.key);
      last_key = e.key;
    }
  }
  auto fences =
      std::make_unique<FencePointers>(std::move(first_keys), last_key);
  auto run = std::make_shared<Run>(store, meta.segment, std::move(bloom),
                                   std::move(fences), meta.num_entries,
                                   meta.bloom_bits_per_entry);
  run->set_tuning_epoch(meta.tuning_epoch);
  return run;
}

}  // namespace endure::lsm
