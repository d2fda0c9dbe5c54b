// Copyright (c) endure-cpp authors. Licensed under the MIT license.

#include "net/protocol.h"

#include <algorithm>

namespace endure::net {

namespace {

/// Caps a PUT_BATCH / SCAN / STATS element count so that a forged count
/// field cannot force an allocation beyond what the (already bounded)
/// payload could actually contain.
constexpr size_t kMaxCountedElements = (kDefaultMaxPayload / 16) + 1;

std::string EncodeKeyFrame(Opcode op, uint64_t id, lsm::Key key) {
  std::string payload;
  WireWriter w(&payload);
  w.U64(key);
  return EncodeFrame(static_cast<uint8_t>(op), id, payload);
}

Status ParseKeyFrame(const Frame& f, Opcode op, const char* what,
                     lsm::Key* key) {
  if (f.opcode != static_cast<uint8_t>(op)) {
    return Status::InvalidArgument(std::string("frame is not a ") + what);
  }
  WireReader r(f.payload);
  *key = r.U64();
  return r.Done(what);
}

}  // namespace

bool IsRequestOpcode(uint8_t op) {
  switch (static_cast<Opcode>(op)) {
    case Opcode::kGet:
    case Opcode::kPut:
    case Opcode::kDelete:
    case Opcode::kPutBatch:
    case Opcode::kScan:
    case Opcode::kStats:
    case Opcode::kApplyTuning:
    case Opcode::kFlush:
    case Opcode::kHello:
      return true;
    case Opcode::kError:
    default:
      return false;
  }
}

std::string EncodeFrame(uint8_t opcode, uint64_t request_id,
                        const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  WireWriter w(&out);
  w.U32(kFrameMagic);
  w.U8(opcode);
  w.U64(request_id);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.Bytes(payload.data(), payload.size());
  return out;
}

void FrameDecoder::Feed(const char* data, size_t n) {
  if (!error_.ok()) return;  // poisoned: drop, the connection is dead
  // Compact once the consumed prefix dominates, so long-lived
  // connections do not grow the buffer without bound.
  if (consumed_ > 0 && consumed_ >= buf_.size() / 2) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
  buf_.append(data, n);
}

Status FrameDecoder::Next(Frame* out, bool* got) {
  *got = false;
  if (!error_.ok()) return error_;
  const size_t avail = buf_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return Status::OK();
  const char* p = buf_.data() + consumed_;
  WireReader header(p, kFrameHeaderBytes);
  const uint32_t magic = header.U32();
  const uint8_t opcode = header.U8();
  const uint64_t request_id = header.U64();
  const uint32_t payload_len = header.U32();
  if (magic != kFrameMagic) {
    error_ = Status::InvalidArgument("bad frame magic");
    buf_.clear();
    consumed_ = 0;
    return error_;
  }
  if (payload_len > max_payload_) {
    error_ = Status::InvalidArgument(
        "frame payload length " + std::to_string(payload_len) +
        " exceeds limit " + std::to_string(max_payload_));
    buf_.clear();
    consumed_ = 0;
    return error_;
  }
  if (avail < kFrameHeaderBytes + payload_len) return Status::OK();
  out->opcode = opcode;
  out->request_id = request_id;
  out->payload.assign(p + kFrameHeaderBytes, payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  *got = true;
  return Status::OK();
}

// ------------------------------------------------------------- requests --

std::string EncodeGetRequest(uint64_t id, lsm::Key key) {
  return EncodeKeyFrame(Opcode::kGet, id, key);
}

std::string EncodePutRequest(uint64_t id, lsm::Key key, lsm::Value value) {
  std::string payload;
  WireWriter w(&payload);
  w.U64(key);
  w.U64(value);
  return EncodeFrame(static_cast<uint8_t>(Opcode::kPut), id, payload);
}

std::string EncodeDeleteRequest(uint64_t id, lsm::Key key) {
  return EncodeKeyFrame(Opcode::kDelete, id, key);
}

std::string EncodePutBatchRequest(
    uint64_t id, const std::vector<std::pair<lsm::Key, lsm::Value>>& pairs) {
  std::string payload;
  payload.reserve(4 + pairs.size() * 16);
  WireWriter w(&payload);
  w.U32(static_cast<uint32_t>(pairs.size()));
  for (const auto& [key, value] : pairs) {
    w.U64(key);
    w.U64(value);
  }
  return EncodeFrame(static_cast<uint8_t>(Opcode::kPutBatch), id, payload);
}

std::string EncodeScanRequest(uint64_t id, lsm::Key lo, lsm::Key hi) {
  std::string payload;
  WireWriter w(&payload);
  w.U64(lo);
  w.U64(hi);
  return EncodeFrame(static_cast<uint8_t>(Opcode::kScan), id, payload);
}

std::string EncodeStatsRequest(uint64_t id) {
  return EncodeFrame(static_cast<uint8_t>(Opcode::kStats), id, std::string());
}

std::string EncodeApplyTuningRequest(uint64_t id, const TuningWire& tuning) {
  std::string payload;
  WireWriter w(&payload);
  w.U32(tuning.size_ratio);
  w.U8(tuning.policy);
  w.U8(tuning.filter_allocation);
  w.U64(tuning.buffer_entries);
  w.F64(tuning.filter_bits_per_entry);
  return EncodeFrame(static_cast<uint8_t>(Opcode::kApplyTuning), id, payload);
}

std::string EncodeFlushRequest(uint64_t id) {
  return EncodeFrame(static_cast<uint8_t>(Opcode::kFlush), id, std::string());
}

std::string EncodeHelloRequest(uint64_t id, const std::string& tenant_id) {
  std::string payload;
  WireWriter w(&payload);
  w.U16(static_cast<uint16_t>(tenant_id.size()));
  w.Bytes(tenant_id.data(), tenant_id.size());
  return EncodeFrame(static_cast<uint8_t>(Opcode::kHello), id, payload);
}

Status ParseGetRequest(const Frame& f, lsm::Key* key) {
  return ParseKeyFrame(f, Opcode::kGet, "GET", key);
}

Status ParsePutRequest(const Frame& f, lsm::Key* key, lsm::Value* value) {
  if (f.opcode != static_cast<uint8_t>(Opcode::kPut)) {
    return Status::InvalidArgument("frame is not a PUT");
  }
  WireReader r(f.payload);
  *key = r.U64();
  *value = r.U64();
  return r.Done("PUT");
}

Status ParseDeleteRequest(const Frame& f, lsm::Key* key) {
  return ParseKeyFrame(f, Opcode::kDelete, "DELETE", key);
}

Status ParsePutBatchRequest(
    const Frame& f, std::vector<std::pair<lsm::Key, lsm::Value>>* pairs) {
  if (f.opcode != static_cast<uint8_t>(Opcode::kPutBatch)) {
    return Status::InvalidArgument("frame is not a PUT_BATCH");
  }
  WireReader r(f.payload);
  const uint32_t count = r.U32();
  if (count > kMaxCountedElements ||
      static_cast<uint64_t>(count) * 16 != r.remaining()) {
    return Status::InvalidArgument("PUT_BATCH count disagrees with payload");
  }
  pairs->clear();
  pairs->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const lsm::Key key = r.U64();
    const lsm::Value value = r.U64();
    pairs->emplace_back(key, value);
  }
  return r.Done("PUT_BATCH");
}

Status ParseScanRequest(const Frame& f, lsm::Key* lo, lsm::Key* hi) {
  if (f.opcode != static_cast<uint8_t>(Opcode::kScan)) {
    return Status::InvalidArgument("frame is not a SCAN");
  }
  WireReader r(f.payload);
  *lo = r.U64();
  *hi = r.U64();
  return r.Done("SCAN");
}

Status ParseApplyTuningRequest(const Frame& f, TuningWire* tuning) {
  if (f.opcode != static_cast<uint8_t>(Opcode::kApplyTuning)) {
    return Status::InvalidArgument("frame is not an APPLY_TUNING");
  }
  WireReader r(f.payload);
  tuning->size_ratio = r.U32();
  tuning->policy = r.U8();
  tuning->filter_allocation = r.U8();
  tuning->buffer_entries = r.U64();
  tuning->filter_bits_per_entry = r.F64();
  return r.Done("APPLY_TUNING");
}

Status ParseHelloRequest(const Frame& f, std::string* tenant_id) {
  if (f.opcode != static_cast<uint8_t>(Opcode::kHello)) {
    return Status::InvalidArgument("frame is not a HELLO");
  }
  WireReader r(f.payload);
  const uint16_t len = r.U16();
  if (len > kMaxTenantIdBytes) {
    return Status::InvalidArgument("HELLO tenant id exceeds " +
                                   std::to_string(kMaxTenantIdBytes) +
                                   " bytes");
  }
  *tenant_id = r.Bytes(len);
  return r.Done("HELLO");
}

// ------------------------------------------------------------ responses --

namespace {

void WriteWireStatus(WireWriter* w, const Status& status) {
  // Messages are advisory; cap them so a status can never blow the
  // frame limit.
  std::string msg = status.message();
  if (msg.size() > 1024) msg.resize(1024);
  w->U8(static_cast<uint8_t>(status.code()));
  w->U16(static_cast<uint16_t>(msg.size()));
  w->Bytes(msg.data(), msg.size());
  // The throttle backoff hint rides with (and only with) the throttle
  // code, so every other status block keeps its pre-admission layout.
  if (status.code() == StatusCode::kResourceExhausted) {
    w->U32(status.retry_after_ms());
  }
}

uint8_t ResponseOpcode(Opcode request_op) {
  return static_cast<uint8_t>(request_op) | kResponseBit;
}

Status CheckResponse(const Frame& f, Opcode request_op, const char* what) {
  if (f.opcode == static_cast<uint8_t>(Opcode::kError)) {
    WireReader r(f.payload);
    const Status remote = DecodeWireStatus(&r);
    return remote.ok() ? Status::Internal("malformed error frame") : remote;
  }
  if (f.opcode != ResponseOpcode(request_op)) {
    return Status::InvalidArgument(std::string("frame is not a ") + what +
                                   " response");
  }
  return Status::OK();
}

}  // namespace

Status DecodeWireStatus(WireReader* r) {
  const uint8_t code = r->U8();
  const uint16_t msg_len = r->U16();
  const std::string msg = r->Bytes(msg_len);
  if (!r->ok()) return Status::InvalidArgument("truncated status block");
  uint32_t retry_after_ms = 0;
  if (static_cast<StatusCode>(code) == StatusCode::kResourceExhausted) {
    retry_after_ms = r->U32();
    if (!r->ok()) return Status::InvalidArgument("truncated status block");
  }
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case StatusCode::kNotFound:
      return Status::NotFound(msg);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(msg);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(msg);
    case StatusCode::kInternal:
      return Status::Internal(msg);
    case StatusCode::kIOError:
      return Status::IOError(msg);
    case StatusCode::kNotSupported:
      return Status::NotSupported(msg);
    case StatusCode::kCorruption:
      return Status::Corruption(msg);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(msg, retry_after_ms);
  }
  return Status::Internal("unknown remote status code " +
                          std::to_string(code));
}

std::string EncodeStatusResponse(Opcode request_op, uint64_t id,
                                 const Status& status) {
  std::string payload;
  WireWriter w(&payload);
  WriteWireStatus(&w, status);
  return EncodeFrame(ResponseOpcode(request_op), id, payload);
}

std::string EncodeGetResponse(uint64_t id, std::optional<lsm::Value> value) {
  std::string payload;
  WireWriter w(&payload);
  WriteWireStatus(&w, Status::OK());
  w.U8(value.has_value() ? 1 : 0);
  w.U64(value.value_or(0));
  return EncodeFrame(ResponseOpcode(Opcode::kGet), id, payload);
}

ScanResponseWriter::ScanResponseWriter(std::string* out, uint64_t request_id)
    : out_(out), start_(out->size()) {
  WireWriter w(out);
  w.U32(kFrameMagic);
  w.U8(ResponseOpcode(Opcode::kScan));
  w.U64(request_id);
  w.U32(0);  // payload length, patched by Finish
  // The OK status block: code u8 | msg_len u16, no message.
  w.U8(static_cast<uint8_t>(StatusCode::kOk));
  w.U16(0);
  w.U32(0);  // entry count, patched by Finish
}

void ScanResponseWriter::Finish() {
  char* frame = out_->data() + start_;
  const auto payload_len =
      static_cast<uint32_t>(out_->size() - start_ - kFrameHeaderBytes);
  std::memcpy(frame + kFrameHeaderBytes - 4, &payload_len, 4);
  std::memcpy(frame + kFrameHeaderBytes + 3, &count_, 4);
}

std::string EncodeStatsResponse(uint64_t id,
                                const std::vector<StatPair>& stats) {
  std::string payload;
  WireWriter w(&payload);
  WriteWireStatus(&w, Status::OK());
  w.U32(static_cast<uint32_t>(stats.size()));
  for (const auto& [name, value] : stats) {
    w.U16(static_cast<uint16_t>(name.size()));
    w.Bytes(name.data(), name.size());
    w.U64(value);
  }
  return EncodeFrame(ResponseOpcode(Opcode::kStats), id, payload);
}

std::string EncodeErrorFrame(const Status& status) {
  std::string payload;
  WireWriter w(&payload);
  WriteWireStatus(&w, status.ok() ? Status::Internal("unspecified") : status);
  return EncodeFrame(static_cast<uint8_t>(Opcode::kError), 0, payload);
}

Status ParseGetResponse(const Frame& f, std::optional<lsm::Value>* value) {
  ENDURE_RETURN_IF_ERROR(CheckResponse(f, Opcode::kGet, "GET"));
  WireReader r(f.payload);
  const Status remote = DecodeWireStatus(&r);
  if (!remote.ok()) return remote;
  const uint8_t found = r.U8();
  const lsm::Value v = r.U64();
  ENDURE_RETURN_IF_ERROR(r.Done("GET response"));
  if (found > 1) return Status::InvalidArgument("bad GET found flag");
  *value = found ? std::optional<lsm::Value>(v) : std::nullopt;
  return Status::OK();
}

Status ParseStatusOnlyResponse(const Frame& f) {
  if (f.opcode == static_cast<uint8_t>(Opcode::kError)) {
    WireReader r(f.payload);
    const Status remote = DecodeWireStatus(&r);
    return remote.ok() ? Status::Internal("malformed error frame") : remote;
  }
  if ((f.opcode & kResponseBit) == 0 ||
      !IsRequestOpcode(f.opcode & ~kResponseBit)) {
    return Status::InvalidArgument("frame is not a response");
  }
  WireReader r(f.payload);
  const Status remote = DecodeWireStatus(&r);
  if (!remote.ok()) return remote;
  return r.Done("status response");
}

Status ParseScanResponse(
    const Frame& f, std::vector<std::pair<lsm::Key, lsm::Value>>* entries) {
  ENDURE_RETURN_IF_ERROR(CheckResponse(f, Opcode::kScan, "SCAN"));
  WireReader r(f.payload);
  const Status remote = DecodeWireStatus(&r);
  if (!remote.ok()) return remote;
  const uint32_t count = r.U32();
  if (count > kMaxCountedElements ||
      static_cast<uint64_t>(count) * 16 != r.remaining()) {
    return Status::InvalidArgument("SCAN count disagrees with payload");
  }
  entries->clear();
  entries->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const lsm::Key key = r.U64();
    const lsm::Value value = r.U64();
    entries->emplace_back(key, value);
  }
  return r.Done("SCAN response");
}

Status ParseStatsResponse(const Frame& f, std::vector<StatPair>* stats) {
  ENDURE_RETURN_IF_ERROR(CheckResponse(f, Opcode::kStats, "STATS"));
  WireReader r(f.payload);
  const Status remote = DecodeWireStatus(&r);
  if (!remote.ok()) return remote;
  const uint32_t count = r.U32();
  if (count > kMaxCountedElements) {
    return Status::InvalidArgument("STATS count disagrees with payload");
  }
  stats->clear();
  stats->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint16_t name_len = r.U16();
    std::string name = r.Bytes(name_len);
    const uint64_t value = r.U64();
    if (!r.ok()) break;
    stats->emplace_back(std::move(name), value);
  }
  return r.Done("STATS response");
}

}  // namespace endure::net
