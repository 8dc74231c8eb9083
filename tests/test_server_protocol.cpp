// Wire-protocol suite: every message round-trips bit-exactly through a
// frame, the incremental parser reassembles frames from arbitrary byte
// splits, and damaged input (truncated length prefix, bad version,
// oversized or lying announced lengths, trailing garbage) is skipped
// precisely — the connection keeps decoding the frames after the damage.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/bitstring.hpp"
#include "core/delta.hpp"
#include "graph/generators.hpp"
#include "server/protocol.hpp"

namespace lcp::server {
namespace {

/// Encoded bytes -> one parsed frame; fails the test on anything else.
Frame parse_one(const std::vector<std::uint8_t>& bytes) {
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(parser.next(&frame), DecodeStatus::kOk);
  EXPECT_EQ(parser.buffered(), 0u);
  return frame;
}

Graph sample_graph() {
  Graph g;
  g.add_node(100, 1);
  g.add_node(200, 2);
  g.add_node(300, 0);
  g.add_edge(0, 1, /*label=*/7, /*weight=*/-3);
  g.add_edge(1, 2, /*label=*/0, /*weight=*/5);
  return g;
}

MutationBatch sample_batch() {
  MutationBatch b;
  b.set_node_label(1, 42);
  b.set_edge_label(0, 1, 9);
  b.set_edge_weight(1, 2, -11);
  BitString bits;
  bits.append_bit(true);
  bits.append_bit(false);
  bits.append_bit(true);
  b.set_proof_label(2, bits);
  b.add_edge(0, 2, 3, 4);
  b.remove_edge(1, 2);
  b.add_node(999, 6);
  return b;
}

void expect_graph_eq(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.m(), b.m());
  for (int v = 0; v < a.n(); ++v) {
    EXPECT_EQ(a.id(v), b.id(v)) << v;
    EXPECT_EQ(a.label(v), b.label(v)) << v;
  }
  for (int e = 0; e < a.m(); ++e) {
    EXPECT_EQ(a.edge_u(e), b.edge_u(e)) << e;
    EXPECT_EQ(a.edge_v(e), b.edge_v(e)) << e;
    EXPECT_EQ(a.edge_label(e), b.edge_label(e)) << e;
    EXPECT_EQ(a.edge_weight(e), b.edge_weight(e)) << e;
  }
}

void expect_batch_eq(const MutationBatch& a, const MutationBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const MutationBatch::Op& x = a.ops()[i];
    const MutationBatch::Op& y = b.ops()[i];
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.u, y.u) << i;
    EXPECT_EQ(x.v, y.v) << i;
    EXPECT_EQ(x.label, y.label) << i;
    EXPECT_EQ(x.weight, y.weight) << i;
    EXPECT_EQ(x.id, y.id) << i;
    ASSERT_EQ(x.bits.size(), y.bits.size()) << i;
    for (int bit = 0; bit < x.bits.size(); ++bit) {
      EXPECT_EQ(x.bits.bit(bit), y.bits.bit(bit)) << i << "/" << bit;
    }
  }
}

// ---------------------------------------------------------------------------
// Round trips, one per message type.

TEST(ProtocolRoundTrip, SubmitGraph) {
  SubmitGraphRequest m;
  m.graph_id = 0xdeadbeefcafeull;
  m.graph = sample_graph();
  SubmitGraphRequest out;
  ASSERT_TRUE(decode(parse_one(encode(m)), &out));
  EXPECT_EQ(out.graph_id, m.graph_id);
  expect_graph_eq(m.graph, out.graph);
}

TEST(ProtocolRoundTrip, GraphAck) {
  GraphAckReply m{12, 3, 2};
  GraphAckReply out;
  ASSERT_TRUE(decode(parse_one(encode(m)), &out));
  EXPECT_EQ(out.graph_id, 12u);
  EXPECT_EQ(out.nodes, 3u);
  EXPECT_EQ(out.edges, 2u);
}

TEST(ProtocolRoundTrip, OpenSession) {
  OpenSessionRequest m;
  m.graph_id = 9;
  m.scheme = "leader-election & maximal-matching";
  m.engine = "spotcheck:0.01:direct";
  m.maintain = true;
  OpenSessionRequest out;
  ASSERT_TRUE(decode(parse_one(encode(m)), &out));
  EXPECT_EQ(out.graph_id, 9u);
  EXPECT_EQ(out.scheme, m.scheme);
  EXPECT_EQ(out.engine, m.engine);
  EXPECT_TRUE(out.maintain);
}

TEST(ProtocolRoundTrip, SessionOpened) {
  SessionOpenedReply m{77};
  SessionOpenedReply out;
  ASSERT_TRUE(decode(parse_one(encode(m)), &out));
  EXPECT_EQ(out.session_id, 77u);
}

TEST(ProtocolRoundTrip, ApplyDeltas) {
  ApplyDeltasRequest m;
  m.session_id = 5;
  m.batch = sample_batch();
  ApplyDeltasRequest out;
  ASSERT_TRUE(decode(parse_one(encode(m)), &out));
  EXPECT_EQ(out.session_id, 5u);
  expect_batch_eq(m.batch, out.batch);
}

TEST(ProtocolRoundTrip, DeltasAccepted) {
  DeltasAcceptedReply m{5, 17, 3};
  DeltasAcceptedReply out;
  ASSERT_TRUE(decode(parse_one(encode(m)), &out));
  EXPECT_EQ(out.session_id, 5u);
  EXPECT_EQ(out.ticket, 17u);
  EXPECT_EQ(out.queue_depth, 3u);
}

TEST(ProtocolRoundTrip, PollVerdict) {
  PollVerdictRequest m{5, 17};
  PollVerdictRequest out;
  ASSERT_TRUE(decode(parse_one(encode(m)), &out));
  EXPECT_EQ(out.session_id, 5u);
  EXPECT_EQ(out.ticket, 17u);
}

TEST(ProtocolRoundTrip, Verdict) {
  VerdictReply m;
  m.session_id = 5;
  m.ticket = 17;
  m.status = 1;
  m.all_accept = true;
  m.rejecting = 0;
  m.generation = 33;
  m.fingerprint = 0x1234567890abcdefull;
  m.coalesced = 4;
  VerdictReply out;
  ASSERT_TRUE(decode(parse_one(encode(m)), &out));
  EXPECT_EQ(out.session_id, 5u);
  EXPECT_EQ(out.ticket, 17u);
  EXPECT_EQ(out.status, 1);
  EXPECT_TRUE(out.all_accept);
  EXPECT_EQ(out.rejecting, 0u);
  EXPECT_EQ(out.generation, 33u);
  EXPECT_EQ(out.fingerprint, m.fingerprint);
  EXPECT_EQ(out.coalesced, 4u);
}

TEST(ProtocolRoundTrip, GetStatsAndStats) {
  GetStatsRequest req{8};
  GetStatsRequest req_out;
  ASSERT_TRUE(decode(parse_one(encode(req)), &req_out));
  EXPECT_EQ(req_out.session_id, 8u);

  StatsReply m;
  m.session_id = 8;
  m.generation = 4;
  m.fingerprint = 0xfeedull;
  m.batches = 10;
  m.repaired = 6;
  m.declined = 1;
  m.reproves = 2;
  m.verifies = 11;
  m.spot_sampled = 30;
  m.spot_skipped = 12;
  m.spot_escalations = 1;
  m.spot_miss_bound = 0.125;
  m.queue_depth = 2;
  StatsReply out;
  ASSERT_TRUE(decode(parse_one(encode(m)), &out));
  EXPECT_EQ(out.session_id, 8u);
  EXPECT_EQ(out.generation, 4u);
  EXPECT_EQ(out.fingerprint, 0xfeedull);
  EXPECT_EQ(out.batches, 10u);
  EXPECT_EQ(out.repaired, 6u);
  EXPECT_EQ(out.declined, 1u);
  EXPECT_EQ(out.reproves, 2u);
  EXPECT_EQ(out.verifies, 11u);
  EXPECT_EQ(out.spot_sampled, 30u);
  EXPECT_EQ(out.spot_skipped, 12u);
  EXPECT_EQ(out.spot_escalations, 1u);
  EXPECT_DOUBLE_EQ(out.spot_miss_bound, 0.125);
  EXPECT_EQ(out.queue_depth, 2u);
}

TEST(ProtocolRoundTrip, CloseAndClosed) {
  CloseRequest req{3};
  CloseRequest req_out;
  ASSERT_TRUE(decode(parse_one(encode(req)), &req_out));
  EXPECT_EQ(req_out.session_id, 3u);

  ClosedReply m{3, 40, 0xabcull};
  ClosedReply out;
  ASSERT_TRUE(decode(parse_one(encode(m)), &out));
  EXPECT_EQ(out.session_id, 3u);
  EXPECT_EQ(out.generation, 40u);
  EXPECT_EQ(out.fingerprint, 0xabcull);
}

TEST(ProtocolRoundTrip, OverloadedAndError) {
  OverloadedReply m{6, 64};
  OverloadedReply out;
  ASSERT_TRUE(decode(parse_one(encode(m)), &out));
  EXPECT_EQ(out.session_id, 6u);
  EXPECT_EQ(out.queue_depth, 64u);

  ErrorReply err;
  err.code = ErrorCode::kUnknownSession;
  err.message = "unknown session";
  ErrorReply err_out;
  ASSERT_TRUE(decode(parse_one(encode(err)), &err_out));
  EXPECT_EQ(err_out.code, ErrorCode::kUnknownSession);
  EXPECT_EQ(err_out.message, "unknown session");
}

TEST(ProtocolRoundTrip, GeneratedGraphSurvivesTheWire) {
  SubmitGraphRequest m;
  m.graph_id = 1;
  m.graph = gen::petersen();
  SubmitGraphRequest out;
  ASSERT_TRUE(decode(parse_one(encode(m)), &out));
  expect_graph_eq(m.graph, out.graph);
}

// ---------------------------------------------------------------------------
// Parser mechanics.

TEST(FrameParser, ReassemblesFromSingleByteFeeds) {
  PollVerdictRequest m{1, 2};
  const std::vector<std::uint8_t> bytes = encode(m);
  FrameParser parser;
  Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    parser.feed(&bytes[i], 1);
    EXPECT_EQ(parser.next(&frame), DecodeStatus::kNeedMore) << i;
  }
  parser.feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(parser.next(&frame), DecodeStatus::kOk);
  PollVerdictRequest out;
  ASSERT_TRUE(decode(frame, &out));
  EXPECT_EQ(out.session_id, 1u);
  EXPECT_EQ(out.ticket, 2u);
}

TEST(FrameParser, ManyFramesInOneFeed) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto one = encode(PollVerdictRequest{i, i * 10});
    stream.insert(stream.end(), one.begin(), one.end());
  }
  FrameParser parser;
  parser.feed(stream.data(), stream.size());
  for (std::uint64_t i = 0; i < 5; ++i) {
    Frame frame;
    ASSERT_EQ(parser.next(&frame), DecodeStatus::kOk) << i;
    PollVerdictRequest out;
    ASSERT_TRUE(decode(frame, &out));
    EXPECT_EQ(out.session_id, i);
  }
  Frame frame;
  EXPECT_EQ(parser.next(&frame), DecodeStatus::kNeedMore);
}

TEST(FrameParser, TruncatedLengthPrefixIsNeedMore) {
  // Two bytes of a length prefix are not an error, just incomplete.
  FrameParser parser;
  const std::uint8_t partial[2] = {0x10, 0x00};
  parser.feed(partial, sizeof partial);
  Frame frame;
  EXPECT_EQ(parser.next(&frame), DecodeStatus::kNeedMore);
  EXPECT_EQ(parser.buffered(), 2u);
}

TEST(FrameParser, BadVersionSkipsExactlyThatFrame) {
  std::vector<std::uint8_t> bad = encode(PollVerdictRequest{1, 1});
  bad[4] = 99;  // version byte
  const std::vector<std::uint8_t> good = encode(PollVerdictRequest{2, 2});

  FrameParser parser;
  parser.feed(bad.data(), bad.size());
  parser.feed(good.data(), good.size());
  Frame frame;
  EXPECT_EQ(parser.next(&frame), DecodeStatus::kBadVersion);
  ASSERT_EQ(parser.next(&frame), DecodeStatus::kOk);
  PollVerdictRequest out;
  ASSERT_TRUE(decode(frame, &out));
  EXPECT_EQ(out.session_id, 2u);
}

TEST(FrameParser, OversizedFrameDiscardedWithoutBuffering) {
  // A parser with a 64-byte cap sees a frame announcing 1000 bytes.  The
  // skip must not buffer the lie: buffered() stays at zero while the
  // announced bytes stream through, and the next real frame decodes.
  FrameParser parser(/*max_frame_bytes=*/64);
  std::vector<std::uint8_t> lie;
  WireWriter w(&lie);
  w.u32(1000);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::kPollVerdict));
  parser.feed(lie.data(), lie.size());
  Frame frame;
  EXPECT_EQ(parser.next(&frame), DecodeStatus::kOversized);
  EXPECT_EQ(parser.buffered(), 0u);

  // Stream the rest of the announced 1000 bytes in chunks; the parser
  // swallows them without producing anything.
  std::vector<std::uint8_t> junk(998, 0xab);
  parser.feed(junk.data(), 500);
  EXPECT_EQ(parser.buffered(), 0u);
  EXPECT_EQ(parser.next(&frame), DecodeStatus::kNeedMore);
  parser.feed(junk.data(), 498);
  EXPECT_EQ(parser.buffered(), 0u);

  const std::vector<std::uint8_t> good = encode(PollVerdictRequest{7, 8});
  parser.feed(good.data(), good.size());
  ASSERT_EQ(parser.next(&frame), DecodeStatus::kOk);
  PollVerdictRequest out;
  ASSERT_TRUE(decode(frame, &out));
  EXPECT_EQ(out.session_id, 7u);
}

TEST(FrameParser, FullyBufferedOversizedFrameAlsoSkips) {
  FrameParser parser(/*max_frame_bytes=*/16);
  const std::vector<std::uint8_t> big =
      encode(PollVerdictRequest{1, 1});  // 22 bytes: 18-byte body > 16 cap
  const std::vector<std::uint8_t> good = encode(GetStatsRequest{4});
  parser.feed(big.data(), big.size());
  parser.feed(good.data(), good.size());
  Frame frame;
  EXPECT_EQ(parser.next(&frame), DecodeStatus::kOversized);
  ASSERT_EQ(parser.next(&frame), DecodeStatus::kOk);
  GetStatsRequest out;
  ASSERT_TRUE(decode(frame, &out));
  EXPECT_EQ(out.session_id, 4u);
}

TEST(FrameParser, UnderLengthFrameWithLateBodyStaysInSync) {
  // The prefix announcing a 1-byte body arrives alone; the body byte
  // lands in a later feed.  That byte must be discarded, not parsed as
  // the start of the next length prefix.
  std::vector<std::uint8_t> prefix;
  WireWriter w(&prefix);
  w.u32(1);
  FrameParser parser;
  parser.feed(prefix.data(), prefix.size());
  Frame frame;
  EXPECT_EQ(parser.next(&frame), DecodeStatus::kMalformed);

  const std::uint8_t late_body = 0x55;
  parser.feed(&late_body, 1);
  EXPECT_EQ(parser.buffered(), 0u);

  const std::vector<std::uint8_t> good = encode(GetStatsRequest{11});
  parser.feed(good.data(), good.size());
  ASSERT_EQ(parser.next(&frame), DecodeStatus::kOk);
  GetStatsRequest out;
  ASSERT_TRUE(decode(frame, &out));
  EXPECT_EQ(out.session_id, 11u);
}

TEST(FrameParser, UnderLengthFrameIsMalformed) {
  // length == 1 cannot hold version + type.
  std::vector<std::uint8_t> bad;
  WireWriter w(&bad);
  w.u32(1);
  w.u8(0x55);  // the announced single body byte
  const std::vector<std::uint8_t> good = encode(GetStatsRequest{9});
  FrameParser parser;
  parser.feed(bad.data(), bad.size());
  parser.feed(good.data(), good.size());
  Frame frame;
  EXPECT_EQ(parser.next(&frame), DecodeStatus::kMalformed);
  ASSERT_EQ(parser.next(&frame), DecodeStatus::kOk);
  GetStatsRequest out;
  ASSERT_TRUE(decode(frame, &out));
  EXPECT_EQ(out.session_id, 9u);
}

// ---------------------------------------------------------------------------
// Payload-level malformation: decode() must reject, never crash.

TEST(ProtocolDecode, RejectsWrongType) {
  const Frame frame = parse_one(encode(PollVerdictRequest{1, 2}));
  GetStatsRequest wrong;
  EXPECT_FALSE(decode(frame, &wrong));
}

TEST(ProtocolDecode, RejectsTruncatedPayload) {
  Frame frame = parse_one(encode(PollVerdictRequest{1, 2}));
  frame.payload.resize(frame.payload.size() - 1);
  PollVerdictRequest out;
  EXPECT_FALSE(decode(frame, &out));
}

TEST(ProtocolDecode, RejectsTrailingBytes) {
  Frame frame = parse_one(encode(PollVerdictRequest{1, 2}));
  frame.payload.push_back(0);
  PollVerdictRequest out;
  EXPECT_FALSE(decode(frame, &out));
}

TEST(ProtocolDecode, RejectsLyingGraphCounts) {
  // A graph header announcing 2^20 nodes inside a tiny payload must fail
  // before allocating node storage.
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(1);          // graph_id
  w.u32(1u << 20);   // node count lie
  w.u32(0);          // edges
  Frame frame;
  frame.type = MsgType::kSubmitGraph;
  frame.payload = payload;
  SubmitGraphRequest out;
  EXPECT_FALSE(decode(frame, &out));
}

TEST(ProtocolDecode, RejectsLyingBatchCounts) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(1);          // session_id
  w.u32(1u << 24);   // op count lie
  Frame frame;
  frame.type = MsgType::kApplyDeltas;
  frame.payload = payload;
  ApplyDeltasRequest out;
  EXPECT_FALSE(decode(frame, &out));
}

TEST(ProtocolDecode, RejectsInvalidOpKind) {
  MutationBatch batch;
  batch.set_node_label(0, 1);
  ApplyDeltasRequest m;
  m.session_id = 1;
  m.batch = batch;
  Frame frame = parse_one(encode(m));
  frame.payload[12] = 0xee;  // the op kind byte (after u64 id + u32 count)
  ApplyDeltasRequest out;
  EXPECT_FALSE(decode(frame, &out));
}

TEST(ProtocolDecode, RejectsInconsistentGraphTables) {
  // Duplicate node ids make Graph::add_node throw; the reader must latch
  // failure instead of leaking the exception.
  Graph dup;
  dup.add_node(1, 0);
  dup.add_node(2, 0);
  SubmitGraphRequest m;
  m.graph_id = 1;
  m.graph = dup;
  std::vector<std::uint8_t> bytes = encode(m);
  // Both node records live at fixed offsets: 6 header + 8 graph_id +
  // 8 counts; overwrite the second id (8 label bytes after the first) with
  // the first.
  const std::size_t first_id = 6 + 8 + 8;
  const std::size_t second_id = first_id + 16;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[second_id + i] = bytes[first_id + i];
  }
  SubmitGraphRequest out;
  EXPECT_FALSE(decode(parse_one(bytes), &out));
}

TEST(ProtocolDecode, WireReaderLatchesOverrun) {
  const std::uint8_t two[2] = {1, 2};
  WireReader r(two, sizeof two);
  EXPECT_EQ(r.u64(), 0u);  // overruns: latched zero
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // stays latched
  EXPECT_FALSE(r.exhausted());
}

TEST(ProtocolNames, CoverTheVocabulary) {
  EXPECT_STREQ(msg_type_name(MsgType::kSubmitGraph), "SUBMIT_GRAPH");
  EXPECT_STREQ(msg_type_name(MsgType::kOverloaded), "OVERLOADED");
  EXPECT_STREQ(msg_type_name(MsgType::kError), "ERROR");
  EXPECT_STREQ(msg_type_name(static_cast<MsgType>(0x7f)), "UNKNOWN");
}

}  // namespace
}  // namespace lcp::server
