#include "util/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ENDURE_CRC32_FOLD 1
#endif

#include "util/env.h"
#include "util/fault_injection.h"

namespace endure {

namespace {

/// Slicing-by-8 tables for the ISO-HDLC (zlib) CRC-32: row 0 is the
/// byte-at-a-time table, and row k advances a byte's remainder through k
/// more zero bytes, so one step folds 8 input bytes with 8 lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

/// Four bytes as a little-endian word, whatever the host order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// Advances the CRC register `c` (pre-inverted, as the loop keeps it)
/// over `len` bytes, 8 per step.
uint32_t ExtendSlicing8(uint32_t c, const unsigned char* p, size_t len) {
  static const CrcTables t = MakeCrcTables();
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c;
}

#ifdef ENDURE_CRC32_FOLD

#define ENDURE_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

ENDURE_FOLD_TARGET inline __m128i Load128(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// `x` carried 128 bits further by the constant pair `k` and added to
/// `next`: the low qwords and the high qwords multiply carry-less.
ENDURE_FOLD_TARGET inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Advances the CRC register `c` over `len` bytes (at least 64, a
/// multiple of 16) by carry-less multiplication: Intel's folding scheme
/// ("Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction", Gopal et al., 2009) with the bit-reflected constants of
/// the ISO-HDLC polynomial that zlib's crc32_simd uses. Four 128-bit
/// lanes fold 64 bytes per step; the lanes then fold into one, which
/// takes the remaining 16-byte blocks, and a Barrett reduction brings the
/// 128-bit remainder down to 32 bits.
ENDURE_FOLD_TARGET uint32_t ExtendFolded(uint32_t c, const unsigned char* p,
                                         size_t len) {
  // Each pair is (high qword, low qword): x^(4*128-32) and x^(4*128+32)
  // mod P fold a lane 512 bits ahead; x^(128-32) and x^(128+32) mod P
  // fold 128 bits ahead; x^64 mod P folds the last 64 bits; then
  // mu = x^64 / P and P itself for the reduction.
  const __m128i fold4 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i fold1 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i fold64 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i a =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i b = Load128(p + 16);
  __m128i d = Load128(p + 32);
  __m128i e = Load128(p + 48);
  for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
    a = Fold(a, fold4, Load128(p));
    b = Fold(b, fold4, Load128(p + 16));
    d = Fold(d, fold4, Load128(p + 32));
    e = Fold(e, fold4, Load128(p + 48));
  }
  a = Fold(a, fold1, b);
  a = Fold(a, fold1, d);
  a = Fold(a, fold1, e);
  for (; len >= 16; p += 16, len -= 16) a = Fold(a, fold1, Load128(p));

  // 128 -> 64 bits: the low qword times x^(128-32) mod P onto the high.
  a = _mm_xor_si128(_mm_srli_si128(a, 8),
                    _mm_clmulepi64_si128(a, fold1, 0x10));
  // 64 -> 32 bits: the low dword times x^64 mod P onto the rest.
  a = _mm_xor_si128(
      _mm_srli_si128(a, 4),
      _mm_clmulepi64_si128(_mm_and_si128(a, low32), fold64, 0x00));
  // Barrett: q = (low dword * mu) mod x^32, remainder = a ^ q * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(a, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(a, q), 1));
}

/// Whether this CPU can run ExtendFolded; asked once per process.
bool CpuCanFold() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // ENDURE_CRC32_FOLD

constexpr size_t kHeaderBytes = 4 + 4 + 1;  // crc32 + len + type

}  // namespace

uint32_t Crc32Portable(const void* data, size_t len) {
  return ~ExtendSlicing8(0xFFFFFFFFu, static_cast<const unsigned char*>(data),
                         len);
}

uint32_t Crc32(const void* data, size_t len) {
#ifdef ENDURE_CRC32_FOLD
  static const bool kFold = CpuCanFold();
  if (kFold && len >= 64) {
    const auto* p = static_cast<const unsigned char*>(data);
    const size_t folded = len & ~size_t{15};
    const uint32_t c = ExtendFolded(0xFFFFFFFFu, p, folded);
    return ~ExtendSlicing8(c, p + folded, len - folded);
  }
#endif
  return Crc32Portable(data, len);
}

// ---------------------------------------------------------------- writer --

std::string WalPath(const std::string& dir, uint64_t gen) {
  if (gen == 0) return dir + "/wal.log";
  return dir + "/wal_" + std::to_string(gen) + ".log";
}

std::optional<uint64_t> ParseWalFileName(const std::string& name) {
  if (name == "wal.log") return 0;
  if (name.size() <= 8 || name.rfind("wal_", 0) != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return std::nullopt;
  }
  uint64_t gen = 0;
  for (size_t i = 4; i < name.size() - 4; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    gen = gen * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return gen == 0 ? std::nullopt : std::optional<uint64_t>(gen);
}

namespace {

/// Opens (creating) a log for appending, consulting the kWalOpen fault.
StatusOr<int> OpenLog(const std::string& path) {
  if (const FaultOutcome f = CheckFault(FaultSite::kWalOpen); f.err != 0) {
    return Status::IOError("open wal " + path + ": " +
                           std::strerror(f.err) + " (injected)");
  }
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IOError("open wal " + path + ": " + std::strerror(errno));
  }
  return fd;
}

}  // namespace

WalWriter::LogFile::~LogFile() { ::close(fd); }

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& dir, uint64_t gen, WalSyncMode mode,
    std::function<void()> on_sync, WalFlushService* service) {
  if (mode == WalSyncMode::kBackground && service == nullptr) {
    return Status::InvalidArgument(
        "wal " + dir + ": background sync mode requires a WalFlushService");
  }
  StatusOr<int> fd = OpenLog(WalPath(dir, gen));
  if (!fd.ok()) return fd.status();
  auto writer = std::unique_ptr<WalWriter>(new WalWriter(
      std::make_shared<LogFile>(*fd), dir, gen, mode, std::move(on_sync),
      mode == WalSyncMode::kBackground ? service : nullptr));
  // Register only once construction is complete: the service thread may
  // sync the writer the moment it appears in the rotation.
  if (writer->service_ != nullptr) writer->service_->Register(writer.get());
  return writer;
}

WalWriter::WalWriter(std::shared_ptr<LogFile> file, std::string dir,
                     uint64_t gen, WalSyncMode mode,
                     std::function<void()> on_sync, WalFlushService* service)
    : mode_(mode),
      dir_(std::move(dir)),
      on_sync_(std::move(on_sync)),
      service_(service),
      file_(std::move(file)),
      gen_(gen) {}

WalWriter::~WalWriter() {
  // Leave the sync rotation first: after Deregister returns, no service
  // pass can touch this writer, so the teardown below races nothing.
  if (service_ != nullptr) service_->Deregister(this);
  if (abandoned_) return;
  // A destructor cannot return a Status; a clean-close durability
  // failure must still not pass silently (every other durability
  // failure path in the engine is loud).
  const Status commit = Commit();
  std::unique_lock<std::mutex> lock(mu_);
  const Status sync = commit.ok() ? SyncWithLock(lock) : commit;
  if (!sync.ok()) {
    std::fprintf(stderr, "wal: final flush failed: %s\n",
                 sync.ToString().c_str());
  }
}

void WalWriter::Append(uint8_t type, const void* payload, uint32_t len) {
  // Frame straight into the commit buffer (no temporary — this is the
  // durable write hot path): crc|len placeholder, then type + payload,
  // then the crc over [type, payload] patched in place. A record whose
  // header or body is torn fails the crc at replay.
  const size_t frame_at = pending_.size();
  char crc_len[8];
  std::memcpy(crc_len + 4, &len, 4);  // crc patched below
  pending_.append(crc_len, 8);
  pending_.push_back(static_cast<char>(type));
  pending_.append(static_cast<const char*>(payload), len);
  const uint32_t crc = Crc32(pending_.data() + frame_at + 8, 1 + len);
  std::memcpy(&pending_[frame_at], &crc, 4);
}

Status WalWriter::Commit() {
  std::unique_lock<std::mutex> lock(mu_);
  // A background fsync failure latched since the last call surfaces
  // here — even on an empty commit: durability degradation must not
  // stay silent.
  if (!deferred_error_.ok()) return deferred_error_;
  if (pending_.empty()) return Status::OK();
  const int fd = file_->fd;
  if (const FaultOutcome f = CheckFault(FaultSite::kWalWrite); f.fires()) {
    // Model a torn group commit: a prefix reaches the file (framing CRCs
    // make replay stop at the tear), the rest stays pending for a retry
    // — the same accounting as a real short write below.
    size_t wrote = 0;
    if (f.short_io && pending_.size() > 1) {
      wrote = pending_.size() / 2;
      size_t woff = 0;
      while (woff < wrote) {
        const ssize_t put = ::write(fd, pending_.data() + woff, wrote - woff);
        if (put <= 0) break;
        woff += static_cast<size_t>(put);
      }
      wrote = woff;
    }
    bytes_committed_ += wrote;
    file_->committed += wrote;
    pending_.erase(0, wrote);
    return Status::IOError(std::string("wal write: ") +
                           std::strerror(f.err != 0 ? f.err : EIO) +
                           " (injected)");
  }
  size_t off = 0;
  while (off < pending_.size()) {
    const ssize_t put =
        ::write(fd, pending_.data() + off, pending_.size() - off);
    if (put < 0) {
      // Trim what did reach the file so a retry (or the destructor's
      // final Commit) continues where the kernel stopped instead of
      // duplicating the prefix and misframing the log.
      bytes_committed_ += off;
      file_->committed += off;
      pending_.erase(0, off);
      return Status::IOError(std::string("wal write: ") +
                             std::strerror(errno));
    }
    off += static_cast<size_t>(put);
  }
  bytes_committed_ += pending_.size();
  file_->committed += pending_.size();
  pending_.clear();
  if (mode_ == WalSyncMode::kPerBatch) return SyncWithLock(lock);
  return Status::OK();
}

Status WalWriter::SyncWithLock(std::unique_lock<std::mutex>& lock) {
  // Capture this pass's work under mu_: a Rotate racing the unlocked
  // fsyncs below only appends to retired_ and re-dirties the directory,
  // which the next pass picks up. A clean writer skips the syscalls (an
  // idle background sync would otherwise fsync every interval forever,
  // and wal_syncs would count elapsed time instead of sync work).
  const std::vector<std::shared_ptr<LogFile>> retired = retired_;
  const std::shared_ptr<LogFile> current = file_;
  const uint64_t target = current->committed;
  const bool sync_current = target > current->synced;
  const bool sync_dir = dir_dirty_;
  if (retired.empty() && !sync_current && !sync_dir) return Status::OK();
  dir_dirty_ = false;
  lock.unlock();  // never hold appenders hostage to device latency
  // Retired logs first: their records precede the current log's.
  bool ok = true;
  size_t synced = 0;
  const auto fsync_log = [&](const LogFile& log) {
    ok = ::fsync(log.fd) == 0 && CheckFault(FaultSite::kWalFsync).err == 0;
    if (ok) ++synced;
  };
  for (size_t i = 0; ok && i < retired.size(); ++i) fsync_log(*retired[i]);
  if (ok && sync_current) fsync_log(*current);
  Status dir_status;
  if (ok && sync_dir) dir_status = SyncDir(dir_);
  lock.lock();
  for (size_t i = 0; i < synced; ++i) {
    if (on_sync_) on_sync_();
  }
  if (!ok || !dir_status.ok()) {
    if (sync_dir) dir_dirty_ = true;
    deferred_error_ = ok ? dir_status : Status::IOError("wal fsync");
    return deferred_error_;
  }
  // The synced retired logs are done for good: drop (and so close) them.
  std::erase_if(retired_, [&retired](const std::shared_ptr<LogFile>& log) {
    return std::find(retired.begin(), retired.end(), log) != retired.end();
  });
  if (sync_current) current->synced = std::max(current->synced, target);
  return Status::OK();
}

Status WalWriter::Rotate() {
  std::lock_guard<std::mutex> rotate_lock(rotate_mu_);
  std::shared_ptr<LogFile> next = std::move(spare_);
  const bool entry_synced = next != nullptr && spare_entry_synced_;
  if (next == nullptr) {
    StatusOr<int> fd = OpenLog(WalPath(dir_, gen_ + 1));
    if (!fd.ok()) return fd.status();
    next = std::make_shared<LogFile>(*fd);
  }
  std::unique_lock<std::mutex> lock(mu_);
  ++gen_;
  if (file_->committed > file_->synced) retired_.push_back(std::move(file_));
  file_ = std::move(next);
  if (!entry_synced) dir_dirty_ = true;
  // kBackground leaves the retired tail and the new directory entry to
  // the flush service's next pass, so the caller never waits on the
  // device. kPerBatch (whose retired tail is already synced) and kNone
  // have no background pass to defer to. Either way the switch stands: a
  // failed sync latches and fails the next Commit, like any fsync error.
  if (mode_ != WalSyncMode::kBackground) (void)SyncWithLock(lock);
  return Status::OK();
}

void WalWriter::PrepareRotation() {
  std::shared_ptr<LogFile> spare;
  {
    // Opened under rotate_mu_, so the file is generation() + 1 — never
    // one a Rotate already moved past (and a publication perhaps
    // unlinked).
    std::lock_guard<std::mutex> rotate_lock(rotate_mu_);
    if (spare_ != nullptr) return;
    StatusOr<int> fd = OpenLog(WalPath(dir_, gen_ + 1));
    if (!fd.ok()) return;  // Rotate opens it itself (and reports failure)
    spare_ = spare = std::make_shared<LogFile>(*fd);
    spare_entry_synced_ = false;
  }
  // The directory fsync runs unlocked, so a Rotate never waits on it; one
  // that takes the file first leaves its entry to the usual sync.
  if (!SyncDir(dir_).ok()) return;
  std::lock_guard<std::mutex> rotate_lock(rotate_mu_);
  if (spare_ == spare) spare_entry_synced_ = true;
}

Status WalWriter::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  return SyncWithLock(lock);
}

void WalWriter::Abandon() {
  pending_.clear();
  abandoned_ = true;
}

// --------------------------------------------------------- flush service --

WalFlushService::WalFlushService(int sync_interval_ms) {
  thread_ = std::thread([this, sync_interval_ms] { Loop(sync_interval_ms); });
}

WalFlushService::~WalFlushService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // Writers deregister in their destructors; a writer still registered
  // here would dangle the moment the owner's teardown continued.
  ENDURE_CHECK_MSG(writers_.empty(),
                   "WalFlushService destroyed with writers registered");
}

void WalFlushService::Register(WalWriter* writer) {
  std::lock_guard<std::mutex> lock(mu_);
  writers_.push_back(writer);
}

void WalFlushService::Deregister(WalWriter* writer) {
  // A pass syncs a snapshot of the registry with mu_ released, so
  // removal alone is not enough — wait until no pass is in flight, or
  // a dying writer could still be in the snapshot being synced.
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !pass_active_; });
  writers_.erase(std::remove(writers_.begin(), writers_.end(), writer),
                 writers_.end());
}

size_t WalFlushService::num_writers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writers_.size();
}

void WalFlushService::Loop(int sync_interval_ms) {
  const auto interval = std::chrono::milliseconds(sync_interval_ms);
  // Absolute deadlines, not wait_for: a pass's fsync time must not
  // stretch the period (interval-plus-pass-duration cadence would
  // silently widen the kBackground loss window).
  auto next_tick = std::chrono::steady_clock::now() + interval;
  std::vector<WalWriter*> pass;  // reused snapshot buffer
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_until(lock, next_tick);
    if (stop_) break;
    if (std::chrono::steady_clock::now() < next_tick) continue;  // spurious
    next_tick += interval;
    // A slow pass (device stall) must not queue a burst of catch-up
    // ticks; resume the cadence from now instead.
    if (next_tick < std::chrono::steady_clock::now()) {
      next_tick = std::chrono::steady_clock::now() + interval;
    }
    // One pass: sync a snapshot of the registry with mu_ released, so
    // shard attach (Register) and teardown (Deregister, which waits
    // out the pass) are never blocked behind device latency. Clean
    // writers skip the fsync syscall, so an idle fleet costs one mutex
    // round per tick. Errors latch in each writer's deferred_error_
    // and surface through its own Commit path.
    pass = writers_;
    pass_active_ = true;
    lock.unlock();
    for (WalWriter* writer : pass) writer->Sync();
    lock.lock();
    pass_active_ = false;
    cv_.notify_all();
  }
}

// ---------------------------------------------------------------- reader --

StatusOr<std::unique_ptr<WalReader>> WalReader::Open(
    const std::string& path) {
  if (!FileExists(path)) {
    return std::unique_ptr<WalReader>(new WalReader(""));
  }
  auto data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  return std::unique_ptr<WalReader>(new WalReader(std::move(data).value()));
}

bool WalReader::Next(uint8_t* type, std::string* payload) {
  if (pos_ == data_.size()) return false;  // clean end
  if (data_.size() - pos_ < kHeaderBytes) {
    tail_torn_ = true;
    return false;
  }
  uint32_t crc, len;
  std::memcpy(&crc, data_.data() + pos_, 4);
  std::memcpy(&len, data_.data() + pos_ + 4, 4);
  if (data_.size() - pos_ - 8 < static_cast<size_t>(len) + 1) {
    tail_torn_ = true;  // length runs past the file: torn append
    return false;
  }
  const char* body = data_.data() + pos_ + 8;
  if (Crc32(body, len + 1) != crc) {
    tail_torn_ = true;
    return false;
  }
  *type = static_cast<uint8_t>(body[0]);
  payload->assign(body + 1, len);
  pos_ += kHeaderBytes + len;
  return true;
}

}  // namespace endure
