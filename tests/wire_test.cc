// Unit tests of the binary wire codec (service/wire.h): header/frame
// round-trips for every opcode, the packed query payload against the
// same validation windows as the line protocol, and — because a network
// decoder's inputs are hostile by definition — rejection paths for
// truncated, oversized and corrupted bytes, including a deterministic
// fuzz-style corruption loop that the ASan/UBSan CI job turns into a
// no-undefined-behavior proof. The kReplyChunk body codec
// (core/chunk_body.h) gets a round-trip property over random ascending
// bicliques and a seeded hostile-input fuzz of its decoder.

#include "service/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/chunk_body.h"
#include "core/result_sink.h"
#include "graph/varint_codec.h"
#include "service/query.h"

namespace fairbc {
namespace wire {
namespace {

QueryRequest FullQuery() {
  QueryRequest req;
  req.graph = "paper-graph";
  req.model = FairModel::kBsfbc;
  req.algo = FairAlgo::kBcem;
  req.params.alpha = 3;
  req.params.beta = 7;
  req.params.delta = 2;
  req.params.theta = 0.25;
  req.options.ordering = VertexOrdering::kId;
  req.options.pruning = PruningLevel::kCore;
  req.options.time_budget_seconds = 1.5;
  req.options.node_budget = 123456789;
  req.options.num_threads = 16;
  req.use_cache = true;
  return req;
}

TEST(WireFrameTest, RoundTripsEveryOpcode) {
  const Opcode opcodes[] = {Opcode::kPing,  Opcode::kCommand, Opcode::kQuery,
                            Opcode::kPong,  Opcode::kReply,   Opcode::kError};
  for (Opcode op : opcodes) {
    Frame in;
    in.opcode = op;
    in.request_id = 0xDEADBEEFCAFE0001ull;
    in.payload = "payload for opcode " +
                 std::to_string(static_cast<unsigned>(op));
    std::string bytes;
    EncodeFrame(in, &bytes);
    ASSERT_EQ(bytes.size(), kHeaderBytes + in.payload.size());
    EXPECT_TRUE(LooksBinary(static_cast<unsigned char>(bytes[0])));

    Frame out;
    std::size_t consumed = 0;
    const DecodeResult decoded =
        DecodeFrame(bytes, /*max_payload=*/1 << 20, &out, &consumed);
    ASSERT_EQ(decoded.status, FrameStatus::kOk);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(out.version, kVersion);
    EXPECT_EQ(out.opcode, in.opcode);
    EXPECT_EQ(out.request_id, in.request_id);
    EXPECT_EQ(out.payload, in.payload);
  }
}

TEST(WireFrameTest, DecodesBackToBackFramesFromOneBuffer) {
  std::string bytes;
  for (int i = 0; i < 3; ++i) {
    Frame f;
    f.opcode = Opcode::kCommand;
    f.request_id = static_cast<std::uint64_t>(i + 1);
    f.payload = std::string(static_cast<std::size_t>(i) * 7, 'x');
    EncodeFrame(f, &bytes);
  }
  for (int i = 0; i < 3; ++i) {
    Frame out;
    std::size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(bytes, 1 << 20, &out, &consumed).status,
              FrameStatus::kOk);
    EXPECT_EQ(out.request_id, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(out.payload.size(), static_cast<std::size_t>(i) * 7);
    bytes.erase(0, consumed);
  }
  EXPECT_TRUE(bytes.empty());
}

TEST(WireFrameTest, TruncatedPrefixesNeedMoreNeverCrash) {
  Frame in;
  in.opcode = Opcode::kQuery;
  in.request_id = 42;
  in.payload = EncodeQueryPayload(FullQuery());
  std::string bytes;
  EncodeFrame(in, &bytes);
  // Every strict prefix is either "need more" (valid so far) — never kOk,
  // never UB.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Frame out;
    std::size_t consumed = 0;
    const DecodeResult decoded = DecodeFrame(
        std::string_view(bytes).substr(0, len), 1 << 20, &out, &consumed);
    EXPECT_EQ(decoded.status, FrameStatus::kNeedMore) << "prefix " << len;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(WireFrameTest, RejectsBadMagicFromTheFirstBytes) {
  // A line-protocol client's first byte must be rejected immediately —
  // this is the negotiation property the shared port depends on.
  Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(DecodeFrame("ping\n", 1 << 20, &out, &consumed).status,
            FrameStatus::kBad);
  // Right low byte, wrong high byte: provable at two bytes.
  std::string near;
  near.push_back(static_cast<char>(0xBC));
  near.push_back(static_cast<char>(0x00));
  EXPECT_EQ(DecodeFrame(near, 1 << 20, &out, &consumed).status,
            FrameStatus::kBad);
  for (unsigned char printable = 0x20; printable < 0x7F; ++printable) {
    EXPECT_FALSE(LooksBinary(printable)) << static_cast<int>(printable);
  }
  EXPECT_TRUE(LooksBinary(0xBC));
}

TEST(WireFrameTest, RejectsUnsupportedVersionAndUnknownOpcode) {
  Frame in;
  in.opcode = Opcode::kPing;
  in.request_id = 7;
  std::string bytes;
  EncodeFrame(in, &bytes);

  std::string bad_version = bytes;
  bad_version[2] = 9;
  Frame out;
  std::size_t consumed = 0;
  DecodeResult decoded = DecodeFrame(bad_version, 1 << 20, &out, &consumed);
  EXPECT_EQ(decoded.status, FrameStatus::kBad);
  EXPECT_EQ(decoded.code, ErrorCode::kUnsupportedVersion);

  std::string bad_opcode = bytes;
  bad_opcode[3] = 0x44;
  decoded = DecodeFrame(bad_opcode, 1 << 20, &out, &consumed);
  EXPECT_EQ(decoded.status, FrameStatus::kBad);
  EXPECT_EQ(decoded.code, ErrorCode::kBadFrame);
}

TEST(WireFrameTest, OversizedPayloadRejectedFromHeaderAlone) {
  // A hostile "4 GiB follow" length prefix must be refused before any
  // buffering decision — with ONLY the 16 header bytes on hand.
  std::string header;
  AppendU16(&header, kMagic);
  AppendU8(&header, kVersion);
  AppendU8(&header, static_cast<std::uint8_t>(Opcode::kCommand));
  AppendU64(&header, 1);
  AppendU32(&header, 0xFFFFFF00u);
  ASSERT_EQ(header.size(), kHeaderBytes);
  Frame out;
  std::size_t consumed = 0;
  const DecodeResult decoded = DecodeFrame(header, 1 << 20, &out, &consumed);
  EXPECT_EQ(decoded.status, FrameStatus::kBad);
  EXPECT_EQ(decoded.code, ErrorCode::kTooLarge);
}

TEST(WireFrameTest, FuzzStyleCorruptionNeverCrashesTheDecoder) {
  Frame in;
  in.opcode = Opcode::kQuery;
  in.request_id = 99;
  in.payload = EncodeQueryPayload(FullQuery());
  std::string pristine;
  EncodeFrame(in, &pristine);

  // Deterministic xorshift so failures reproduce; ASan/UBSan turn this
  // loop into a no-UB proof for arbitrary byte flips.
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 2000; ++round) {
    std::string bytes = pristine;
    const int flips = 1 + static_cast<int>(next() % 5);
    for (int f = 0; f < flips; ++f) {
      bytes[next() % bytes.size()] ^=
          static_cast<char>(1u << (next() % 8));
    }
    Frame out;
    std::size_t consumed = 0;
    const DecodeResult decoded = DecodeFrame(bytes, 1 << 20, &out, &consumed);
    if (decoded.status == FrameStatus::kOk) {
      // Flips confined to the payload decode fine as a frame; the
      // payload-level decoder must then also survive them.
      (void)DecodeQueryPayload(out.payload);
    }
  }
  // Pure random garbage, any length.
  for (int round = 0; round < 2000; ++round) {
    std::string bytes;
    const std::size_t len = next() % 64;
    for (std::size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(next() & 0xFF));
    }
    Frame out;
    std::size_t consumed = 0;
    (void)DecodeFrame(bytes, 1 << 20, &out, &consumed);
  }
}

TEST(WireQueryPayloadTest, RoundTripsEveryField) {
  const QueryRequest in = FullQuery();
  auto decoded = DecodeQueryPayload(EncodeQueryPayload(in));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const QueryRequest& out = decoded.value();
  EXPECT_EQ(out.graph, in.graph);
  EXPECT_EQ(out.model, in.model);
  EXPECT_EQ(out.algo, in.algo);
  EXPECT_EQ(out.params.alpha, in.params.alpha);
  EXPECT_EQ(out.params.beta, in.params.beta);
  EXPECT_EQ(out.params.delta, in.params.delta);
  EXPECT_EQ(out.params.theta, in.params.theta);
  EXPECT_EQ(out.options.ordering, in.options.ordering);
  EXPECT_EQ(out.options.pruning, in.options.pruning);
  EXPECT_EQ(out.options.time_budget_seconds, in.options.time_budget_seconds);
  EXPECT_EQ(out.options.node_budget, in.options.node_budget);
  EXPECT_EQ(out.options.num_threads, in.options.num_threads);
  EXPECT_EQ(out.use_cache, in.use_cache);
}

TEST(WireQueryPayloadTest, EveryTruncationRejectsWithStatus) {
  const std::string full = EncodeQueryPayload(FullQuery());
  // The top_k/rank/request-id extension tail (u32 + u8 + u16 length +
  // empty id here) may be absent as a whole — that is a valid legacy
  // frame — but may not be cut mid-way.
  const std::size_t legacy = full.size() - (4 + 1 + 2);
  for (std::size_t len = 0; len < full.size(); ++len) {
    auto decoded = DecodeQueryPayload(full.substr(0, len));
    if (len == legacy) {
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded.value().top_k, 0u);  // tail absent = defaults.
      EXPECT_TRUE(decoded.value().request_id.empty());
      continue;
    }
    EXPECT_FALSE(decoded.ok()) << "truncation at " << len;
  }
  // Trailing bytes are just as corrupt as missing ones.
  EXPECT_FALSE(DecodeQueryPayload(full + "x").ok());
}

TEST(WireQueryPayloadTest, EnforcesTheLineProtocolsValidationWindows) {
  // Same [0, 1e9] / [0, 1] / [0, 1024] windows as BuildQueryRequest: the
  // two front doors must accept and reject the same requests.
  QueryRequest req = FullQuery();
  req.params.alpha = 1'000'000'001;
  EXPECT_FALSE(DecodeQueryPayload(EncodeQueryPayload(req)).ok());
  req = FullQuery();
  req.params.theta = 1.5;
  EXPECT_FALSE(DecodeQueryPayload(EncodeQueryPayload(req)).ok());
  req = FullQuery();
  req.params.theta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DecodeQueryPayload(EncodeQueryPayload(req)).ok());
  req = FullQuery();
  req.options.time_budget_seconds = -1.0;
  EXPECT_FALSE(DecodeQueryPayload(EncodeQueryPayload(req)).ok());
  req = FullQuery();
  req.options.num_threads = 2000;
  EXPECT_FALSE(DecodeQueryPayload(EncodeQueryPayload(req)).ok());
  req = FullQuery();
  req.graph.clear();
  EXPECT_FALSE(DecodeQueryPayload(EncodeQueryPayload(req)).ok());

  // Unknown enum bytes (offsets: u16 len + graph, then model, algo).
  const std::string base = EncodeQueryPayload(FullQuery());
  const std::size_t model_off = 2 + FullQuery().graph.size();
  std::string bad = base;
  bad[model_off] = 9;
  EXPECT_FALSE(DecodeQueryPayload(bad).ok());
  bad = base;
  bad[model_off + 1] = 9;
  EXPECT_FALSE(DecodeQueryPayload(bad).ok());
}

TEST(WireErrorPayloadTest, RoundTripsAndRejectsShortPayloads) {
  const std::string payload =
      EncodeErrorPayload(ErrorCode::kBusy, "server busy: max-inflight=256");
  ErrorCode code;
  std::string message;
  ASSERT_TRUE(DecodeErrorPayload(payload, &code, &message).ok());
  EXPECT_EQ(code, ErrorCode::kBusy);
  EXPECT_EQ(message, "server busy: max-inflight=256");
  EXPECT_STREQ(ToString(code), "busy");

  EXPECT_FALSE(DecodeErrorPayload("", &code, &message).ok());
  EXPECT_FALSE(DecodeErrorPayload("x", &code, &message).ok());
}

TEST(WireReaderTest, BoundsCheckedReadsNeverOverrun) {
  std::string buf;
  AppendU32(&buf, 0x01020304u);
  Reader r(buf);
  std::uint64_t v64 = 0;
  EXPECT_FALSE(r.ReadU64(&v64));  // 4 bytes cannot satisfy 8.
  std::uint32_t v32 = 0;
  EXPECT_TRUE(r.ReadU32(&v32));
  EXPECT_EQ(v32, 0x01020304u);
  std::uint8_t v8 = 0;
  EXPECT_FALSE(r.ReadU8(&v8));  // exhausted.
  EXPECT_TRUE(r.AtEnd());

  // String16 whose length prefix overruns the buffer.
  std::string s;
  AppendU16(&s, 100);
  s += "short";
  Reader r2(s);
  std::string out;
  EXPECT_FALSE(r2.ReadString16(&out));
}


// --- chunk bodies -----------------------------------------------------------

/// Deterministic xorshift so failures reproduce.
struct XorShift {
  std::uint64_t state;
  std::uint64_t operator()() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// Up to `n` distinct ascending valid ids drawn from [lo, lo + span).
std::vector<VertexId> AscendingIds(XorShift& rng, std::size_t n,
                                   std::uint64_t lo, std::uint64_t span) {
  const std::uint64_t hi = std::min<std::uint64_t>(lo + span, kInvalidVertex);
  std::vector<VertexId> ids;
  std::uint64_t id = lo;
  for (std::size_t i = 0; i < n; ++i) {
    id += rng() % 5;
    if (id >= hi) break;
    ids.push_back(static_cast<VertexId>(id));
    ++id;
  }
  return ids;
}

/// A random result sequence shaped like FairBCEM++ output: runs that keep
/// one side and vary the other, identical repeats, empty sides, and ids
/// up to the largest valid one.
std::vector<Biclique> RandomResults(XorShift& rng, std::size_t count) {
  std::vector<Biclique> out;
  for (std::size_t i = 0; i < count; ++i) {
    Biclique b;
    const std::uint64_t kind = rng() % 6;
    if (kind == 0 && !out.empty()) {
      b = out.back();  // identical to the previous result.
    } else if (kind <= 2 && !out.empty()) {
      b = out.back();  // keeps a prefix of one side, regrows its tail.
      std::vector<VertexId>& side = rng() % 2 == 0 ? b.upper : b.lower;
      side.resize(side.empty() ? 0 : rng() % (side.size() + 1));
      const std::uint64_t from = side.empty() ? 0 : side.back() + 1;
      for (VertexId v : AscendingIds(rng, rng() % 6, from, 64)) {
        side.push_back(v);
      }
    } else {
      const std::uint64_t lo =
          rng() % 4 == 0 ? kInvalidVertex - 40 : rng() % 1000;
      b.upper = AscendingIds(rng, rng() % 8, lo, 40);
      b.lower = AscendingIds(rng, rng() % 8, rng() % 1000, 200);
    }
    out.push_back(std::move(b));
  }
  return out;
}

TEST(ChunkBodyTest, RoundTripsRandomAscendingBicliquesPerChunk) {
  XorShift rng{0xC0FFEE1234567ull};
  for (int round = 0; round < 200; ++round) {
    const std::vector<Biclique> results = RandomResults(rng, rng() % 200);
    const std::size_t width = 1 + rng() % 70;
    std::vector<ChunkBody> bodies;
    ChunkSink sink(width, [&](ChunkBody&& body, const StreamCheckpoint&) {
      bodies.push_back(std::move(body));
      return true;
    });
    for (const Biclique& b : results) ASSERT_TRUE(sink.Accept(b));
    sink.Finish();

    std::vector<Biclique> decoded;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      // Each body decodes on its own: the prefix state resets at every
      // chunk start, so the sink's body is byte-identical to a fresh
      // encoding of the same slice.
      const std::size_t begin = i * width;
      const std::size_t end = std::min(results.size(), begin + width);
      const std::vector<Biclique> slice(results.begin() + begin,
                                        results.begin() + end);
      EXPECT_EQ(bodies[i].count, slice.size());
      EXPECT_EQ(*bodies[i].bytes, *EncodeChunkBody(slice).bytes);
      std::vector<Biclique> alone;
      ASSERT_TRUE(DecodeChunkBody(*bodies[i].bytes, &alone).ok());
      EXPECT_EQ(alone, slice);
      ASSERT_TRUE(DecodeChunkBody(*bodies[i].bytes, &decoded).ok());
    }
    EXPECT_EQ(decoded, results) << "round " << round;
  }
  // Through the wire payload too, header fields included.
  const std::vector<Biclique> results = RandomResults(rng, 50);
  auto chunk = DecodeChunkPayload(EncodeChunkPayload(4, 200, 17, results));
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk.value().seq, 4u);
  EXPECT_EQ(chunk.value().results_so_far, 200u);
  EXPECT_EQ(chunk.value().nodes_so_far, 17u);
  EXPECT_EQ(chunk.value().bicliques, results);
}

/// A hand-built body: `varints` in order.
std::string Body(std::initializer_list<std::uint64_t> varints) {
  std::string out;
  for (std::uint64_t v : varints) AppendVarint(&out, v);
  return out;
}

TEST(ChunkBodyTest, HandBuiltBodiesAndTheirRejections) {
  std::vector<Biclique> out;
  // count 1: upper {5, 7} (gaps 5, 1), lower {} .
  ASSERT_TRUE(DecodeChunkBody(Body({1, 0, 2, 5, 1, 0, 0}), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].upper, (std::vector<VertexId>{5, 7}));
  EXPECT_TRUE(out[0].lower.empty());
  // Second result shares upper's prefix of 1 ({5}) and appends 6.
  out.clear();
  ASSERT_TRUE(
      DecodeChunkBody(Body({2, 0, 2, 5, 1, 0, 0, 1, 1, 0, 0, 0}), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].upper, (std::vector<VertexId>{5, 6}));
  // The largest valid id decodes; one past it does not.
  out.clear();
  EXPECT_TRUE(DecodeChunkBody(Body({1, 0, 1, kInvalidVertex - 1, 0, 0}), &out)
                  .ok());
  out.clear();

  const std::string rejected[] = {
      Body({}),                                   // no count.
      Body({1000, 0, 0, 0, 0}),                   // count beyond the bytes.
      Body({std::numeric_limits<std::uint64_t>::max()}),
      Body({1, 1, 0, 0, 0}),                      // prefix on the first result.
      Body({2, 0, 1, 5, 0, 0, 2, 0, 0, 0}),       // prefix longer than prev.
      Body({1, 0, 100, 1, 2, 3}),                 // suffix beyond the bytes.
      Body({1, 0, 1, kInvalidVertex, 0, 0}),      // id == kInvalidVertex.
      Body({1, 0, 2, kInvalidVertex - 1, 0, 0, 0}),  // next id overflows.
      Body({1, 0, 1, std::numeric_limits<std::uint64_t>::max(), 0, 0}),
      Body({1, 0, 1, 5, 0, 0, 9}),                // trailing byte.
      std::string("\x01\x00\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f",
                  14),                            // over-long varint.
  };
  for (const std::string& body : rejected) {
    out.assign(1, Biclique{});  // a rejected body leaves `out` as it was.
    EXPECT_FALSE(DecodeChunkBody(body, &out).ok());
    EXPECT_EQ(out.size(), 1u);
  }
}

TEST(ChunkBodyTest, FuzzedBodiesAlwaysComeBackAsStatus) {
  XorShift rng{0x5EED5EED5EEDull};
  const std::string pristine = *EncodeChunkBody(RandomResults(rng, 64)).bytes;
  std::vector<Biclique> out;
  // Every truncation of a valid body, and a trailing byte.
  for (std::size_t len = 0; len < pristine.size(); ++len) {
    out.clear();
    EXPECT_FALSE(DecodeChunkBody(pristine.substr(0, len), &out).ok()) << len;
  }
  EXPECT_FALSE(DecodeChunkBody(pristine + '\0', &out).ok());
  // Bit flips: the decoder may accept a flipped body (a flipped gap is
  // just another id) but must report through Status, and whatever it
  // accepts must be ascending and in range.
  for (int round = 0; round < 3000; ++round) {
    std::string bytes = pristine;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^= static_cast<char>(1u << (rng() % 8));
    }
    out.clear();
    if (!DecodeChunkBody(bytes, &out).ok()) continue;
    for (const Biclique& b : out) {
      for (const auto* side : {&b.upper, &b.lower}) {
        for (std::size_t i = 0; i < side->size(); ++i) {
          ASSERT_LT((*side)[i], kInvalidVertex);
          if (i > 0) {
            ASSERT_LT((*side)[i - 1], (*side)[i]);
          }
        }
      }
    }
  }
  // Random bytes of any length, bare and behind a chunk header.
  for (int round = 0; round < 3000; ++round) {
    std::string bytes;
    const std::size_t len = rng() % 96;
    for (std::size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng() & 0xFF));
    }
    out.clear();
    (void)DecodeChunkBody(bytes, &out);
    (void)DecodeChunkPayload(bytes);
  }
}
// Random payload bytes: the query decoder either rejects them with a
// Status, or what it accepts re-encodes to a payload that decodes to the
// same request (compared through a second encoding, which covers every
// field).
TEST(WireQueryPayloadTest, RandomBytesRejectOrRoundTrip) {
  XorShift rng{0xF00DF00DF00Dull};
  const std::string pristine = EncodeQueryPayload(FullQuery());
  int accepted = 0;
  for (int round = 0; round < 20000; ++round) {
    std::string bytes = pristine;
    if (round % 4 == 3) {
      // Pure random bytes around the payload's length.
      bytes.resize(pristine.size() - 8 + rng() % 16);
      for (char& c : bytes) c = static_cast<char>(rng() & 0xFF);
    } else {
      // A few random bytes over a valid payload hit the typed fields.
      const int writes = 1 + static_cast<int>(rng() % 3);
      for (int w = 0; w < writes; ++w) {
        bytes[rng() % bytes.size()] = static_cast<char>(rng() & 0xFF);
      }
    }
    bool stream = false;
    auto first = DecodeQueryPayload(bytes, &stream);
    if (!first.ok()) {
      EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++accepted;
    const std::string again = EncodeQueryPayload(first.value(), stream);
    bool stream_again = false;
    auto second = DecodeQueryPayload(again, &stream_again);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(stream_again, stream);
    EXPECT_EQ(EncodeQueryPayload(second.value(), stream_again), again);
  }
  // The loop must reach both verdicts to mean anything.
  EXPECT_GT(accepted, 100);
  EXPECT_LT(accepted, 20000);
}

// Each enum byte indexes its name table (service/query.h); the byte just
// past the table's end is rejected, and every index decodes to its entry.
TEST(WireQueryPayloadTest, EnumBytesIndexTheNameTables) {
  QueryRequest req = FullQuery();
  req.request_id.clear();
  const std::string base = EncodeQueryPayload(req);
  const std::size_t model_off = 2 + req.graph.size();
  struct {
    std::size_t offset;
    std::size_t table_size;
  } const bytes[] = {
      {model_off, NamesOf(FairModel{}).size()},
      {model_off + 1, NamesOf(FairAlgo{}).size()},
      {model_off + 22, NamesOf(VertexOrdering{}).size()},
      {model_off + 23, NamesOf(PruningLevel{}).size()},
      {base.size() - 3, NamesOf(TopKRank{}).size()},
  };
  for (const auto& [offset, table_size] : bytes) {
    for (std::size_t index = 0; index <= table_size; ++index) {
      std::string patched = base;
      patched[offset] = static_cast<char>(index);
      auto decoded = DecodeQueryPayload(patched);
      EXPECT_EQ(decoded.ok(), index < table_size) << offset << "/" << index;
      if (decoded.ok()) {
        EXPECT_EQ(EncodeQueryPayload(decoded.value()), patched);
      }
    }
  }
}

}  // namespace
}  // namespace wire
}  // namespace fairbc
