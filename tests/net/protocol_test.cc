// Codec suite for the network wire protocol (src/net/protocol.h): every
// message round-trips; torn and byte-by-byte reads resume across feeds;
// oversized lengths and garbage headers are rejected cleanly (bounded
// allocation, sticky error, no crash); and a seeded random-bytes fuzz
// loop drives the decoder with hostile input. Runs under the ASan CI leg
// (tests/net is part of the asan ctest regex).

#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace endure::net {
namespace {

// Feeds `bytes` in chunks of `chunk` and drains every complete frame.
std::vector<Frame> DecodeAll(const std::string& bytes, size_t chunk,
                             uint32_t max_payload = kDefaultMaxPayload) {
  FrameDecoder dec(max_payload);
  std::vector<Frame> frames;
  for (size_t off = 0; off < bytes.size(); off += chunk) {
    dec.Feed(bytes.data() + off, std::min(chunk, bytes.size() - off));
    Frame f;
    bool got = true;
    while (true) {
      EXPECT_TRUE(dec.Next(&f, &got).ok());
      if (!got) break;
      frames.push_back(f);
    }
  }
  return frames;
}

TEST(ProtocolTest, GetRequestRoundTrips) {
  const std::string bytes = EncodeGetRequest(42, 0xdeadbeefULL);
  auto frames = DecodeAll(bytes, bytes.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].opcode, static_cast<uint8_t>(Opcode::kGet));
  EXPECT_EQ(frames[0].request_id, 42u);
  lsm::Key key = 0;
  ASSERT_TRUE(ParseGetRequest(frames[0], &key).ok());
  EXPECT_EQ(key, 0xdeadbeefULL);
}

TEST(ProtocolTest, PutDeleteRequestsRoundTrip) {
  auto put = DecodeAll(EncodePutRequest(7, 11, 22), 1);
  ASSERT_EQ(put.size(), 1u);
  lsm::Key k = 0;
  lsm::Value v = 0;
  ASSERT_TRUE(ParsePutRequest(put[0], &k, &v).ok());
  EXPECT_EQ(k, 11u);
  EXPECT_EQ(v, 22u);

  auto del = DecodeAll(EncodeDeleteRequest(8, 33), 2);
  ASSERT_EQ(del.size(), 1u);
  ASSERT_TRUE(ParseDeleteRequest(del[0], &k).ok());
  EXPECT_EQ(k, 33u);
}

TEST(ProtocolTest, PutBatchRoundTrips) {
  std::vector<std::pair<lsm::Key, lsm::Value>> pairs;
  for (uint64_t i = 0; i < 257; ++i) pairs.emplace_back(i * 3, i * 7 + 1);
  auto frames = DecodeAll(EncodePutBatchRequest(9, pairs), 13);
  ASSERT_EQ(frames.size(), 1u);
  std::vector<std::pair<lsm::Key, lsm::Value>> out;
  ASSERT_TRUE(ParsePutBatchRequest(frames[0], &out).ok());
  EXPECT_EQ(out, pairs);
}

TEST(ProtocolTest, ScanStatsTuningFlushRoundTrip) {
  auto scan = DecodeAll(EncodeScanRequest(1, 100, 200), 3);
  ASSERT_EQ(scan.size(), 1u);
  lsm::Key lo = 0, hi = 0;
  ASSERT_TRUE(ParseScanRequest(scan[0], &lo, &hi).ok());
  EXPECT_EQ(lo, 100u);
  EXPECT_EQ(hi, 200u);

  auto stats = DecodeAll(EncodeStatsRequest(2), 1);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].opcode, static_cast<uint8_t>(Opcode::kStats));
  EXPECT_TRUE(stats[0].payload.empty());

  TuningWire t;
  t.size_ratio = 6;
  t.policy = 1;
  t.filter_allocation = 1;
  t.buffer_entries = 4096;
  t.filter_bits_per_entry = 7.5;
  auto tune = DecodeAll(EncodeApplyTuningRequest(3, t), 5);
  ASSERT_EQ(tune.size(), 1u);
  TuningWire got;
  ASSERT_TRUE(ParseApplyTuningRequest(tune[0], &got).ok());
  EXPECT_EQ(got.size_ratio, t.size_ratio);
  EXPECT_EQ(got.policy, t.policy);
  EXPECT_EQ(got.filter_allocation, t.filter_allocation);
  EXPECT_EQ(got.buffer_entries, t.buffer_entries);
  EXPECT_DOUBLE_EQ(got.filter_bits_per_entry, t.filter_bits_per_entry);

  auto flush = DecodeAll(EncodeFlushRequest(4), 4);
  ASSERT_EQ(flush.size(), 1u);
  EXPECT_EQ(flush[0].opcode, static_cast<uint8_t>(Opcode::kFlush));
}

TEST(ProtocolTest, ResponsesRoundTrip) {
  // GET hit, GET miss, SCAN body, STATS body, remote error status.
  auto hit = DecodeAll(EncodeGetResponse(5, 77u), 1);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].opcode,
            static_cast<uint8_t>(Opcode::kGet) | kResponseBit);
  std::optional<lsm::Value> value;
  ASSERT_TRUE(ParseGetResponse(hit[0], &value).ok());
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, 77u);

  auto miss = DecodeAll(EncodeGetResponse(6, std::nullopt), 1);
  ASSERT_TRUE(ParseGetResponse(miss[0], &value).ok());
  EXPECT_FALSE(value.has_value());

  std::vector<std::pair<lsm::Key, lsm::Value>> entries = {{1, 2}, {3, 4}};
  std::string scan_bytes;
  ScanResponseWriter writer(&scan_bytes, 7);
  for (const auto& [key, value] : entries) writer.Add(key, value);
  writer.Finish();
  auto scan = DecodeAll(scan_bytes, 2);
  std::vector<std::pair<lsm::Key, lsm::Value>> got_entries;
  ASSERT_TRUE(ParseScanResponse(scan[0], &got_entries).ok());
  EXPECT_EQ(got_entries, entries);

  std::vector<StatPair> stats = {{"pages_read", 12}, {"num_shards", 4}};
  auto sresp = DecodeAll(EncodeStatsResponse(8, stats), 3);
  std::vector<StatPair> got_stats;
  ASSERT_TRUE(ParseStatsResponse(sresp[0], &got_stats).ok());
  EXPECT_EQ(got_stats, stats);
}

// The SCAN response layout, built from the generic codec pieces: the
// frame header, an OK status block, the count, then the pairs.
std::string ReferenceScanResponse(
    uint64_t id, const std::vector<std::pair<lsm::Key, lsm::Value>>& entries) {
  std::string payload;
  WireWriter w(&payload);
  w.U8(static_cast<uint8_t>(StatusCode::kOk));
  w.U16(0);
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const auto& [key, value] : entries) {
    w.U64(key);
    w.U64(value);
  }
  return EncodeFrame(static_cast<uint8_t>(Opcode::kScan) | kResponseBit, id,
                     payload);
}

TEST(ProtocolTest, ScanResponseWriterEncodesTheFrameInPlace) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{62}, size_t{65536}}) {
    SCOPED_TRACE(n);
    std::vector<std::pair<lsm::Key, lsm::Value>> entries;
    for (uint64_t i = 0; i < n; ++i) {
      entries.emplace_back(3 * i + 1, ~i ^ (i << 32));
    }
    // The frame lands after whatever the buffer already holds.
    const std::string queued = EncodeGetResponse(41, 9u);
    std::string out = queued;
    ScanResponseWriter writer(&out, 0x0102030405060708ULL);
    for (const auto& [key, value] : entries) writer.Add(key, value);
    EXPECT_EQ(writer.count(), n);
    writer.Finish();
    EXPECT_EQ(out, queued + ReferenceScanResponse(0x0102030405060708ULL,
                                                  entries));
    auto frames = DecodeAll(out, 4096);
    ASSERT_EQ(frames.size(), 2u);
    std::vector<std::pair<lsm::Key, lsm::Value>> got;
    ASSERT_TRUE(ParseScanResponse(frames[1], &got).ok());
    EXPECT_EQ(got, entries);
  }
}

TEST(ProtocolTest, AbandonedScanResponseLeavesTheBufferAsItWas) {
  const std::string queued = EncodeGetResponse(41, 9u);
  std::string out = queued;
  ScanResponseWriter writer(&out, 5);
  for (uint64_t i = 0; i < 100; ++i) writer.Add(i, i);
  writer.Abandon();
  EXPECT_EQ(out, queued);
}

TEST(ProtocolTest, RemoteStatusTravelsCodeForCode) {
  // A degraded-mode latch (IOError) and a Corruption latch must surface
  // remotely with the same StatusCode they carry in-process.
  for (const Status& st :
       {Status::IOError("shard 2: device gone"),
        Status::Corruption("page checksum"),
        Status::OutOfRange("scan result exceeds frame limit"),
        Status::FailedPrecondition("reopen required")}) {
    auto frames =
        DecodeAll(EncodeStatusResponse(Opcode::kPut, 9, st), 1);
    ASSERT_EQ(frames.size(), 1u);
    const Status back = ParseStatusOnlyResponse(frames[0]);
    EXPECT_EQ(back.code(), st.code()) << st.ToString();
    EXPECT_NE(back.ToString().find(st.message()), std::string::npos);
  }
}

TEST(ProtocolTest, ResourceExhaustedCarriesRetryAfterHint) {
  // A throttle response round-trips code-for-code AND hint-for-hint:
  // the client's backoff honors exactly the hint the admission gate
  // computed. Status equality includes the hint.
  const Status st = Status::ResourceExhausted(
      "tenant \"ads\" over admission quota", /*retry_after_ms=*/137);
  for (size_t chunk : {size_t{1}, size_t{3}, size_t{64}}) {
    auto frames =
        DecodeAll(EncodeStatusResponse(Opcode::kPut, 12, st), chunk);
    ASSERT_EQ(frames.size(), 1u) << "chunk=" << chunk;
    const Status back = ParseStatusOnlyResponse(frames[0]);
    EXPECT_EQ(back.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(back.retry_after_ms(), 137u);
    EXPECT_EQ(back, st);
  }

  // Hintless throttles are legal (hint 0 = "retry whenever").
  auto frames = DecodeAll(
      EncodeStatusResponse(Opcode::kGet, 13, Status::ResourceExhausted("x")),
      1);
  EXPECT_EQ(ParseStatusOnlyResponse(frames[0]).retry_after_ms(), 0u);

  // Non-throttle statuses never carry the trailer.
  frames = DecodeAll(
      EncodeStatusResponse(Opcode::kGet, 14, Status::IOError("disk")), 1);
  EXPECT_EQ(ParseStatusOnlyResponse(frames[0]).retry_after_ms(), 0u);

  // A throttle status truncated before its hint is a decode error, not
  // a hint defaulted to zero.
  std::string whole = EncodeStatusResponse(Opcode::kPut, 15, st);
  std::string torn = whole.substr(0, whole.size() - 2);
  // Fix up the header's payload_len to match the torn payload so the
  // decoder hands the short frame to the status parser.
  const uint32_t torn_len =
      static_cast<uint32_t>(torn.size() - kFrameHeaderBytes);
  std::memcpy(&torn[13], &torn_len, sizeof(torn_len));
  auto torn_frames = DecodeAll(torn, torn.size());
  ASSERT_EQ(torn_frames.size(), 1u);
  EXPECT_EQ(ParseStatusOnlyResponse(torn_frames[0]).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, HelloRequestRoundTrips) {
  const std::string bytes = EncodeHelloRequest(21, "tenant-a");
  for (size_t chunk : {size_t{1}, size_t{5}, bytes.size()}) {
    auto frames = DecodeAll(bytes, chunk);
    ASSERT_EQ(frames.size(), 1u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0].opcode, static_cast<uint8_t>(Opcode::kHello));
    EXPECT_EQ(frames[0].request_id, 21u);
    std::string tenant;
    ASSERT_TRUE(ParseHelloRequest(frames[0], &tenant).ok());
    EXPECT_EQ(tenant, "tenant-a");
  }

  // The empty tenant id is valid: it names the anonymous default tenant.
  auto anon = DecodeAll(EncodeHelloRequest(22, ""), 1);
  ASSERT_EQ(anon.size(), 1u);
  std::string tenant = "stale";
  ASSERT_TRUE(ParseHelloRequest(anon[0], &tenant).ok());
  EXPECT_TRUE(tenant.empty());
}

TEST(ProtocolTest, HelloRejectsOversizedAndMalformedTenantIds) {
  // Longest legal id round-trips; one byte longer is rejected by the
  // parser (the length cap bounds per-connection allocation).
  const std::string max_id(kMaxTenantIdBytes, 't');
  auto ok = DecodeAll(EncodeHelloRequest(1, max_id), 7);
  ASSERT_EQ(ok.size(), 1u);
  std::string tenant;
  ASSERT_TRUE(ParseHelloRequest(ok[0], &tenant).ok());
  EXPECT_EQ(tenant.size(), kMaxTenantIdBytes);

  Frame f;
  f.opcode = static_cast<uint8_t>(Opcode::kHello);
  std::string payload;
  WireWriter w(&payload);
  const std::string big(kMaxTenantIdBytes + 1, 'x');
  w.U16(static_cast<uint16_t>(big.size()));
  w.Bytes(big.data(), big.size());
  f.payload = payload;
  EXPECT_FALSE(ParseHelloRequest(f, &tenant).ok());

  // Forged length: header says 8 bytes, payload holds 3.
  payload.clear();
  WireWriter w2(&payload);
  w2.U16(8);
  w2.Bytes("abc", 3);
  f.payload = payload;
  EXPECT_FALSE(ParseHelloRequest(f, &tenant).ok());

  // Trailing garbage after the id is rejected (full-consumption rule).
  f.payload = EncodeHelloRequest(1, "t").substr(kFrameHeaderBytes) + "zz";
  EXPECT_FALSE(ParseHelloRequest(f, &tenant).ok());

  // Wrong opcode.
  auto get = DecodeAll(EncodeGetRequest(2, 3), 1);
  EXPECT_FALSE(ParseHelloRequest(get[0], &tenant).ok());
}

TEST(ProtocolTest, TornReadsResumeAcrossFeeds) {
  // Several frames back to back, delivered one byte at a time — the
  // pipelined-over-EAGAIN case. Every frame must come out intact.
  std::string stream;
  stream += EncodePutRequest(1, 10, 20);
  stream += EncodeGetRequest(2, 10);
  std::vector<std::pair<lsm::Key, lsm::Value>> pairs = {{5, 6}, {7, 8}};
  stream += EncodePutBatchRequest(3, pairs);
  stream += EncodeFlushRequest(4);

  for (size_t chunk : {size_t{1}, size_t{2}, size_t{7}, stream.size()}) {
    auto frames = DecodeAll(stream, chunk);
    ASSERT_EQ(frames.size(), 4u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0].request_id, 1u);
    EXPECT_EQ(frames[3].request_id, 4u);
    std::vector<std::pair<lsm::Key, lsm::Value>> out;
    ASSERT_TRUE(ParsePutBatchRequest(frames[2], &out).ok());
    EXPECT_EQ(out, pairs);
  }
}

TEST(ProtocolTest, OversizedLengthRejectedBeforeAllocation) {
  // Header advertising a 512 MiB payload against a 1 MiB limit: the
  // decoder must error out on the header alone and never buffer toward
  // the advertised length.
  std::string header;
  WireWriter w(&header);
  w.U32(kFrameMagic);
  w.U8(static_cast<uint8_t>(Opcode::kPut));
  w.U64(1);
  w.U32(512u << 20);
  FrameDecoder dec(1u << 20);
  dec.Feed(header.data(), header.size());
  Frame f;
  bool got = false;
  const Status st = dec.Next(&f, &got);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(got);
  EXPECT_LE(dec.buffered_bytes(), kFrameHeaderBytes);

  // The error is sticky: later feeds are dropped, not buffered.
  const std::string more(4096, 'x');
  dec.Feed(more.data(), more.size());
  EXPECT_FALSE(dec.Next(&f, &got).ok());
  EXPECT_LE(dec.buffered_bytes(), kFrameHeaderBytes);
}

TEST(ProtocolTest, GarbageMagicPoisonsDecoder) {
  std::string junk = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  FrameDecoder dec;
  dec.Feed(junk.data(), junk.size());
  Frame f;
  bool got = false;
  EXPECT_FALSE(dec.Next(&f, &got).ok());
  EXPECT_FALSE(got);
  // Poisoned for good — even a valid frame afterwards stays rejected
  // (the stream's frame boundaries are unrecoverable).
  const std::string valid = EncodeGetRequest(1, 2);
  dec.Feed(valid.data(), valid.size());
  EXPECT_FALSE(dec.Next(&f, &got).ok());
}

TEST(ProtocolTest, TruncatedAndTrailingPayloadsRejected) {
  // Truncated: a PUT payload cut to 12 of 16 bytes.
  Frame f;
  f.opcode = static_cast<uint8_t>(Opcode::kPut);
  f.payload = std::string(12, '\0');
  lsm::Key k;
  lsm::Value v;
  EXPECT_FALSE(ParsePutRequest(f, &k, &v).ok());

  // Trailing: a GET payload with 4 extra bytes after the key.
  f.opcode = static_cast<uint8_t>(Opcode::kGet);
  f.payload = std::string(12, '\0');
  EXPECT_FALSE(ParseGetRequest(f, &k).ok());

  // Forged PUT_BATCH count: count says 1000, payload holds 2 pairs.
  std::string payload;
  WireWriter w(&payload);
  w.U32(1000);
  w.U64(1);
  w.U64(2);
  w.U64(3);
  w.U64(4);
  f.opcode = static_cast<uint8_t>(Opcode::kPutBatch);
  f.payload = payload;
  std::vector<std::pair<lsm::Key, lsm::Value>> pairs;
  EXPECT_FALSE(ParsePutBatchRequest(f, &pairs).ok());
}

TEST(ProtocolTest, WrongOpcodeRejectedByParsers) {
  auto frames = DecodeAll(EncodeGetRequest(1, 2), 1);
  ASSERT_EQ(frames.size(), 1u);
  lsm::Key k;
  lsm::Value v;
  EXPECT_FALSE(ParsePutRequest(frames[0], &k, &v).ok());
  std::optional<lsm::Value> value;
  EXPECT_FALSE(ParseGetResponse(frames[0], &value).ok());
}

TEST(ProtocolTest, BufferedBytesStayBounded) {
  // Stream many max-size-adjacent frames through a small-chunk feed: the
  // decoder's buffer must never exceed one header + one payload.
  std::vector<std::pair<lsm::Key, lsm::Value>> pairs;
  for (uint64_t i = 0; i < 1000; ++i) pairs.emplace_back(i, i);
  std::string stream;
  for (int rep = 0; rep < 4; ++rep) {
    stream += EncodePutBatchRequest(rep, pairs);
  }
  FrameDecoder dec;
  size_t frames = 0;
  for (size_t off = 0; off < stream.size(); off += 4096) {
    dec.Feed(stream.data() + off, std::min<size_t>(4096, stream.size() - off));
    Frame f;
    bool got = true;
    while (true) {
      ASSERT_TRUE(dec.Next(&f, &got).ok());
      if (!got) break;
      ++frames;
      std::vector<std::pair<lsm::Key, lsm::Value>> out;
      ASSERT_TRUE(ParsePutBatchRequest(f, &out).ok());
      ASSERT_EQ(out.size(), pairs.size());
    }
    ASSERT_LE(dec.buffered_bytes(),
              kFrameHeaderBytes + kDefaultMaxPayload);
  }
  EXPECT_EQ(frames, 4u);
}

TEST(ProtocolTest, ErrorFrameRoundTrips) {
  auto frames =
      DecodeAll(EncodeErrorFrame(Status::InvalidArgument("bad frame")), 1);
  ASSERT_EQ(frames.size(), 1u);
  // kError stands alone (no response bit): it answers no specific
  // request, so it is neither a request nor an opcode-echoing response.
  EXPECT_EQ(frames[0].opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(frames[0].request_id, 0u);
  const Status st = ParseStatusOnlyResponse(frames[0]);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------ fuzz --

// Pure random bytes: the decoder must reject (or keep waiting) without
// crashing, over-allocating, or looping. Seeded — a failure names the
// seed, which replays deterministically.
TEST(ProtocolFuzzTest, RandomBytesNeverCrashTheDecoder) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    FrameDecoder dec(64 << 10);
    std::string chunk;
    for (int round = 0; round < 64; ++round) {
      const size_t n = static_cast<size_t>(rng.UniformInt(1, 512));
      chunk.resize(n);
      for (size_t i = 0; i < n; ++i) {
        chunk[i] = static_cast<char>(rng.Next() & 0xff);
      }
      dec.Feed(chunk.data(), chunk.size());
      Frame f;
      bool got = true;
      while (got) {
        const Status st = dec.Next(&f, &got);
        if (!st.ok()) break;  // poisoned: stays poisoned, loop ends below
        ASSERT_LE(f.payload.size(), 64u << 10) << "seed " << seed;
      }
      ASSERT_LE(dec.buffered_bytes(), kFrameHeaderBytes + (64u << 10))
          << "seed " << seed;
    }
  }
}

// Mutated valid frames: flip bytes of a legitimate stream and feed it in
// random fragments. Every outcome must be a clean decode or a clean
// reject; parsed frames must never read out of bounds (ASan enforces).
TEST(ProtocolFuzzTest, MutatedFramesDecodeOrRejectCleanly) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    std::string stream;
    stream += EncodePutRequest(1, rng.Next(), rng.Next());
    std::vector<std::pair<lsm::Key, lsm::Value>> pairs;
    for (int i = 0; i < 16; ++i) pairs.emplace_back(rng.Next(), rng.Next());
    stream += EncodePutBatchRequest(2, pairs);
    stream += EncodeScanRequest(3, 0, 100);
    stream += EncodeStatsRequest(4);
    stream += EncodeHelloRequest(
        5, std::string(static_cast<size_t>(rng.UniformInt(0, 32)), 'n'));
    stream += EncodeStatusResponse(
        Opcode::kPut, 6,
        Status::ResourceExhausted(
            "over quota",
            static_cast<uint32_t>(rng.UniformInt(0, 5000))));

    // Flip up to 8 random bytes.
    const int flips = static_cast<int>(rng.UniformInt(0, 8));
    for (int i = 0; i < flips; ++i) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(0, stream.size() - 1));
      stream[pos] = static_cast<char>(rng.Next() & 0xff);
    }

    FrameDecoder dec;
    size_t off = 0;
    while (off < stream.size()) {
      const size_t n = std::min<size_t>(
          static_cast<size_t>(rng.UniformInt(1, 64)), stream.size() - off);
      dec.Feed(stream.data() + off, n);
      off += n;
      Frame f;
      bool got = true;
      while (got) {
        if (!dec.Next(&f, &got).ok()) break;
        if (!got) break;
        // Parse with whatever parser the opcode claims; status is free
        // to be an error, the process must simply survive.
        lsm::Key k;
        lsm::Value v;
        std::vector<std::pair<lsm::Key, lsm::Value>> ps;
        switch (f.opcode) {
          case static_cast<uint8_t>(Opcode::kPut):
            (void)ParsePutRequest(f, &k, &v);
            break;
          case static_cast<uint8_t>(Opcode::kPutBatch):
            (void)ParsePutBatchRequest(f, &ps);
            break;
          case static_cast<uint8_t>(Opcode::kScan):
            (void)ParseScanRequest(f, &k, &v);
            break;
          case static_cast<uint8_t>(Opcode::kHello): {
            std::string tenant;
            (void)ParseHelloRequest(f, &tenant);
            break;
          }
          case static_cast<uint8_t>(Opcode::kPut) | kResponseBit:
            (void)ParseStatusOnlyResponse(f);
            break;
          default:
            break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace endure::net
