// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// Wire protocol of the endure network front-end: length-prefixed binary
// frames over TCP, one frame per request or response, little-endian
// throughout (docs/server.md has the byte tables). The codec is a
// standalone unit with no socket dependency — FrameDecoder consumes raw
// bytes incrementally (torn reads resume exactly where they stopped), so
// the same code path serves the epoll server, the blocking client and
// the seeded fuzz loop in tests/net/protocol_test.cc. Malformed input
// (bad magic, oversized length, truncated or trailing payload bytes)
// is rejected with a Status, never a crash or an unbounded allocation:
// the decoder allocates at most header + max_payload bytes.

#ifndef ENDURE_NET_PROTOCOL_H_
#define ENDURE_NET_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lsm/entry.h"
#include "util/status.h"

namespace endure::net {

/// Frame magic: "EN1\n" — rejects plain-text and cross-protocol traffic
/// on the first four bytes.
inline constexpr uint32_t kFrameMagic = 0x0a314e45u;

/// Fixed frame header: magic u32 | opcode u8 | request_id u64 |
/// payload_len u32.
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 8 + 4;

/// Default ceiling on one frame's payload. A length field above the
/// decoder's limit is rejected *before* any buffer grows to match it, so
/// a hostile 4 GiB length never allocates 4 GiB.
inline constexpr uint32_t kDefaultMaxPayload = 4u << 20;

/// Request opcodes. Responses echo the request opcode with kResponseBit
/// set; kError (protocol-level failure, not attributable to a request)
/// stands alone.
enum class Opcode : uint8_t {
  kGet = 0x01,
  kPut = 0x02,
  kDelete = 0x03,
  kPutBatch = 0x04,
  kScan = 0x05,
  kStats = 0x06,
  kApplyTuning = 0x07,
  kFlush = 0x08,
  kHello = 0x09,
  kError = 0x7f,
};

/// Ceiling on a HELLO tenant id. Small on purpose: tenant ids are
/// routing labels, not data.
inline constexpr size_t kMaxTenantIdBytes = 128;

inline constexpr uint8_t kResponseBit = 0x80;

/// True iff `op` is a known request opcode.
bool IsRequestOpcode(uint8_t op);

/// One decoded frame: opcode byte (request or response), the caller's
/// request id (echoed verbatim in responses; correlates pipelined
/// requests) and the raw payload.
struct Frame {
  uint8_t opcode = 0;
  uint64_t request_id = 0;
  std::string payload;
};

// ---------------------------------------------------------------- codec --

/// Appends little-endian scalars to a byte string (the encode side).
class WireWriter {
 public:
  explicit WireWriter(std::string* out) : out_(out) {}
  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }
  void Bytes(const void* data, size_t n) { Raw(data, n); }

 private:
  void Raw(const void* data, size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }
  std::string* out_;
};

/// Bounds-checked little-endian reads from a byte span (the decode
/// side). Reads past the end set the error flag and return zeros; the
/// caller checks ok() once at the end instead of after every field.
class WireReader {
 public:
  WireReader(const char* data, size_t n) : p_(data), left_(n) {}
  explicit WireReader(const std::string& s) : WireReader(s.data(), s.size()) {}

  uint8_t U8() { return ReadScalar<uint8_t>(); }
  uint16_t U16() { return ReadScalar<uint16_t>(); }
  uint32_t U32() { return ReadScalar<uint32_t>(); }
  uint64_t U64() { return ReadScalar<uint64_t>(); }
  double F64() { return ReadScalar<double>(); }

  /// Reads exactly n bytes into a string (empty + error when short).
  std::string Bytes(size_t n) {
    if (left_ < n) {
      ok_ = false;
      left_ = 0;
      return std::string();
    }
    std::string s(p_, n);
    p_ += n;
    left_ -= n;
    return s;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return left_; }

  /// OK iff every read succeeded AND the payload was fully consumed —
  /// trailing garbage in a fixed-layout message is a malformed frame.
  Status Done(const char* what) const {
    if (!ok_) {
      return Status::InvalidArgument(std::string("truncated ") + what +
                                     " payload");
    }
    if (left_ != 0) {
      return Status::InvalidArgument(std::string("trailing bytes after ") +
                                     what + " payload");
    }
    return Status::OK();
  }

 private:
  template <typename T>
  T ReadScalar() {
    T v{};
    if (left_ < sizeof(T)) {
      ok_ = false;
      left_ = 0;
      return v;
    }
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    left_ -= sizeof(T);
    return v;
  }

  const char* p_;
  size_t left_;
  bool ok_ = true;
};

/// Encodes a complete frame (header + payload) ready to write to a
/// socket.
std::string EncodeFrame(uint8_t opcode, uint64_t request_id,
                        const std::string& payload);

/// Incremental frame decoder. Feed() raw bytes as they arrive (any
/// fragmentation — a torn header or payload resumes on the next Feed);
/// Next() yields complete frames in order. A malformed header (bad
/// magic, unknown opcode byte is NOT checked here — opcode validity is
/// message-level) or an oversized length poisons the decoder: every
/// subsequent Next() returns the same error, because a byte stream with
/// a corrupt frame boundary cannot be resynchronized.
class FrameDecoder {
 public:
  explicit FrameDecoder(uint32_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  /// Appends raw bytes. Cheap when the decoder is already poisoned (the
  /// bytes are dropped).
  void Feed(const char* data, size_t n);

  /// Extracts the next complete frame. Returns OK and sets *got=false
  /// when more bytes are needed; OK and *got=true with *out filled when
  /// a frame completed; a non-OK status once the stream is malformed.
  Status Next(Frame* out, bool* got);

  /// Bytes currently buffered (tests assert the bound).
  size_t buffered_bytes() const { return buf_.size() - consumed_; }

 private:
  uint32_t max_payload_;
  std::string buf_;
  size_t consumed_ = 0;  ///< prefix of buf_ already handed out
  Status error_;         ///< sticky decode error
};

// ------------------------------------------------------------- messages --

/// The tunable knobs APPLY_TUNING carries (the remote subset of
/// lsm::Options a tuner changes at runtime; the server overlays them on
/// the deployment's current options and calls ShardedDB::ApplyTuning).
struct TuningWire {
  uint32_t size_ratio = 10;
  uint8_t policy = 0;             ///< lsm::CompactionPolicy value
  uint8_t filter_allocation = 0;  ///< lsm::FilterAllocation value
  uint64_t buffer_entries = 1024;
  double filter_bits_per_entry = 5.0;
};

/// One named counter of a STATS response.
using StatPair = std::pair<std::string, uint64_t>;

// Request encoders: a complete frame for each opcode.
std::string EncodeGetRequest(uint64_t id, lsm::Key key);
std::string EncodePutRequest(uint64_t id, lsm::Key key, lsm::Value value);
std::string EncodeDeleteRequest(uint64_t id, lsm::Key key);
std::string EncodePutBatchRequest(
    uint64_t id, const std::vector<std::pair<lsm::Key, lsm::Value>>& pairs);
std::string EncodeScanRequest(uint64_t id, lsm::Key lo, lsm::Key hi);
std::string EncodeStatsRequest(uint64_t id);
std::string EncodeApplyTuningRequest(uint64_t id, const TuningWire& tuning);
std::string EncodeFlushRequest(uint64_t id);
/// HELLO binds the connection to a tenant for admission control:
/// payload is `len u16 | tenant bytes` (at most kMaxTenantIdBytes).
/// The response is a status-only frame.
std::string EncodeHelloRequest(uint64_t id, const std::string& tenant_id);

// Request payload parsers (frame.opcode must match; payload layout is
// validated end to end — truncated or oversized payloads are errors).
Status ParseGetRequest(const Frame& f, lsm::Key* key);
Status ParsePutRequest(const Frame& f, lsm::Key* key, lsm::Value* value);
Status ParseDeleteRequest(const Frame& f, lsm::Key* key);
Status ParsePutBatchRequest(
    const Frame& f, std::vector<std::pair<lsm::Key, lsm::Value>>* pairs);
Status ParseScanRequest(const Frame& f, lsm::Key* lo, lsm::Key* hi);
Status ParseApplyTuningRequest(const Frame& f, TuningWire* tuning);
Status ParseHelloRequest(const Frame& f, std::string* tenant_id);

/// Every response payload begins with a status block: code u8 |
/// msg_len u16 | msg bytes, followed by `retry_after_ms u32` when (and
/// only when) the code is kResourceExhausted — the admission throttle's
/// backoff hint travels with the status. On a non-OK status the
/// op-specific body is absent.
std::string EncodeStatusResponse(Opcode request_op, uint64_t id,
                                 const Status& status);
std::string EncodeGetResponse(uint64_t id, std::optional<lsm::Value> value);

/// The SCAN response encoder: writes one frame in place at the end of
/// `out`, an entry at a time, so a server streams a scan into its
/// connection's out-buffer without staging the entries. The constructor
/// appends the header, an OK status block and a zero count; Add appends
/// one `key u64 | value u64` pair; Finish patches the payload length and
/// the count. Abandon instead truncates `out` back to where the frame
/// began, for a scan that fails or outgrows the frame (the caller then
/// answers with a status frame).
class ScanResponseWriter {
 public:
  ScanResponseWriter(std::string* out, uint64_t request_id);

  void Add(lsm::Key key, lsm::Value value) {
    char pair[16];
    std::memcpy(pair, &key, 8);
    std::memcpy(pair + 8, &value, 8);
    out_->append(pair, sizeof(pair));
    ++count_;
  }
  uint32_t count() const { return count_; }
  void Finish();
  void Abandon() { out_->resize(start_); }

 private:
  std::string* out_;
  size_t start_;  ///< offset of the frame's first byte in *out_
  uint32_t count_ = 0;
};

std::string EncodeStatsResponse(uint64_t id,
                                const std::vector<StatPair>& stats);
/// A protocol-level error frame (request id 0): sent once before the
/// server closes a connection it cannot parse.
std::string EncodeErrorFrame(const Status& status);

/// Decodes the leading status block of a response payload via `r`.
/// Wire codes map back onto StatusCode (unknown codes -> kInternal), so
/// a remote degraded-mode IOError or Corruption latch surfaces to the
/// caller exactly as it does in-process.
Status DecodeWireStatus(WireReader* r);

// Response body parsers: each validates the status block first and
// returns the remote status when non-OK.
Status ParseGetResponse(const Frame& f, std::optional<lsm::Value>* value);
Status ParseStatusOnlyResponse(const Frame& f);
Status ParseScanResponse(
    const Frame& f, std::vector<std::pair<lsm::Key, lsm::Value>>* entries);
Status ParseStatsResponse(const Frame& f, std::vector<StatPair>* stats);

}  // namespace endure::net

#endif  // ENDURE_NET_PROTOCOL_H_
