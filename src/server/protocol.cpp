#include "server/protocol.hpp"

#include <algorithm>
#include <cstring>

namespace lcp::server {

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kSubmitGraph:
      return "SUBMIT_GRAPH";
    case MsgType::kOpenSession:
      return "OPEN_SESSION";
    case MsgType::kApplyDeltas:
      return "APPLY_DELTAS";
    case MsgType::kPollVerdict:
      return "POLL_VERDICT";
    case MsgType::kGetStats:
      return "GET_STATS";
    case MsgType::kClose:
      return "CLOSE";
    case MsgType::kGraphAck:
      return "GRAPH_ACK";
    case MsgType::kSessionOpened:
      return "SESSION_OPENED";
    case MsgType::kDeltasAccepted:
      return "DELTAS_ACCEPTED";
    case MsgType::kVerdict:
      return "VERDICT";
    case MsgType::kStats:
      return "STATS";
    case MsgType::kClosed:
      return "CLOSED";
    case MsgType::kOverloaded:
      return "OVERLOADED";
    case MsgType::kError:
      return "ERROR";
  }
  return "UNKNOWN";
}

// ---------------------------------------------------------------------------
// WireWriter.

void WireWriter::u16(std::uint16_t v) {
  out_->push_back(static_cast<std::uint8_t>(v));
  out_->push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out_->push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out_->push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void WireWriter::f64(double v) {
  std::uint64_t pattern = 0;
  std::memcpy(&pattern, &v, sizeof pattern);
  u64(pattern);
}

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
}

void WireWriter::bits(const BitString& b) {
  // Bit i goes to byte i / 8 at bit 7 - i % 8 (MSB-first), the last byte
  // zero-padded: exactly BitReader's 8-bit MSB-first fields.
  u32(static_cast<std::uint32_t>(b.size()));
  BitReader r(b);
  while (r.remaining() >= 8) {
    out_->push_back(static_cast<std::uint8_t>(r.read_uint(8)));
  }
  const int tail = r.remaining();
  if (tail > 0) {
    out_->push_back(static_cast<std::uint8_t>(r.read_uint(tail) << (8 - tail)));
  }
}

void WireWriter::graph(const Graph& g) {
  u32(static_cast<std::uint32_t>(g.n()));
  u32(static_cast<std::uint32_t>(g.m()));
  for (int v = 0; v < g.n(); ++v) {
    u64(g.id(v));
    u64(g.label(v));
  }
  for (int e = 0; e < g.m(); ++e) {
    u32(static_cast<std::uint32_t>(g.edge_u(e)));
    u32(static_cast<std::uint32_t>(g.edge_v(e)));
    u64(g.edge_label(e));
    i64(g.edge_weight(e));
  }
}

void WireWriter::batch(const MutationBatch& b) {
  u32(static_cast<std::uint32_t>(b.size()));
  for (const MutationBatch::Op& op : b.ops()) {
    u8(static_cast<std::uint8_t>(op.kind));
    i32(op.u);
    i32(op.v);
    u64(op.label);
    i64(op.weight);
    u64(op.id);
    bits(op.bits);
  }
}

// ---------------------------------------------------------------------------
// WireReader.

std::uint8_t WireReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t WireReader::u16() {
  if (!take(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double WireReader::f64() {
  const std::uint64_t pattern = u64();
  double v = 0;
  std::memcpy(&v, &pattern, sizeof v);
  return v;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  if (!take(n)) return {};
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

BitString WireReader::bits() {
  const std::uint32_t nbits = u32();
  const std::size_t nbytes = (static_cast<std::size_t>(nbits) + 7) / 8;
  BitString b;
  if (!take(nbytes)) return b;
  const std::uint8_t* byte = data_ + pos_;
  for (std::uint32_t left = nbits; left > 0; ++byte) {
    const int width = left < 8 ? static_cast<int>(left) : 8;
    b.append_uint(static_cast<std::uint64_t>(*byte >> (8 - width)), width);
    left -= static_cast<std::uint32_t>(width);
  }
  pos_ += nbytes;
  return b;
}

Graph WireReader::graph() {
  Graph g;
  const std::uint32_t n = u32();
  const std::uint32_t m = u32();
  // Each node costs 16 wire bytes, each edge 24: reject counts the
  // remaining payload cannot possibly hold before allocating anything.
  if (static_cast<std::uint64_t>(n) * 16 + static_cast<std::uint64_t>(m) * 24 >
      remaining()) {
    ok_ = false;
    pos_ = size_;
    return g;
  }
  try {
    for (std::uint32_t v = 0; v < n; ++v) {
      const NodeId id = u64();
      const std::uint64_t label = u64();
      if (!ok_) return g;
      g.add_node(id, label);
    }
    for (std::uint32_t e = 0; e < m; ++e) {
      const int u = i32();
      const int v = i32();
      const std::uint64_t label = u64();
      const std::int64_t weight = i64();
      if (!ok_) return g;
      g.add_edge(u, v, label, weight);
    }
  } catch (const std::exception&) {
    ok_ = false;  // duplicate ids, self-loops, bad endpoints
  }
  return g;
}

MutationBatch WireReader::batch() {
  MutationBatch b;
  const std::uint32_t n = u32();
  // Each op costs at least 33 wire bytes (kind + u + v + label + weight +
  // id + empty bitstring header).
  if (static_cast<std::uint64_t>(n) * 33 > remaining()) {
    ok_ = false;
    pos_ = size_;
    return b;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint8_t kind = u8();
    const int u = i32();
    const int v = i32();
    const std::uint64_t label = u64();
    const std::int64_t weight = i64();
    const std::uint64_t id = u64();
    BitString bs = bits();
    if (!ok_) return b;
    switch (static_cast<MutationBatch::Kind>(kind)) {
      case MutationBatch::Kind::kNodeLabel:
        b.set_node_label(u, label);
        break;
      case MutationBatch::Kind::kEdgeLabel:
        b.set_edge_label(u, v, label);
        break;
      case MutationBatch::Kind::kEdgeWeight:
        b.set_edge_weight(u, v, weight);
        break;
      case MutationBatch::Kind::kProofLabel:
        b.set_proof_label(u, std::move(bs));
        break;
      case MutationBatch::Kind::kAddEdge:
        b.add_edge(u, v, label, weight);
        break;
      case MutationBatch::Kind::kRemoveEdge:
        b.remove_edge(u, v);
        break;
      case MutationBatch::Kind::kAddNode:
        b.add_node(id, label);
        break;
      default:
        ok_ = false;
        return b;
    }
  }
  return b;
}

// ---------------------------------------------------------------------------
// Frames.

std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 6);
  WireWriter w(&out);
  w.u32(static_cast<std::uint32_t>(payload.size() + 2));
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void FrameParser::feed(const std::uint8_t* data, std::size_t size) {
  std::size_t offset = 0;
  if (discard_remaining_ > 0) {
    const std::size_t drop =
        size < discard_remaining_ ? size : static_cast<std::size_t>(
                                               discard_remaining_);
    discard_remaining_ -= drop;
    offset = drop;
  }
  buffer_.insert(buffer_.end(), data + offset, data + size);
}

DecodeStatus FrameParser::next(Frame* frame) {
  if (buffer_.size() < 4) return DecodeStatus::kNeedMore;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(buffer_[static_cast<std::size_t>(i)])
              << (8 * i);
  }
  if (length < 2) {
    // Too short to hold even the version + type header: skip the prefix
    // and whatever body it announced.  Announced bytes that have not
    // arrived yet must still be dropped when they do (discard_remaining_,
    // as in the oversized path), or a late body byte would be parsed as
    // the start of the next length prefix and desynchronise the stream.
    const std::size_t total = 4 + static_cast<std::size_t>(length);
    const std::size_t have = buffer_.size();
    if (have >= total) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(total));
    } else {
      buffer_.clear();
      discard_remaining_ = total - have;
    }
    return DecodeStatus::kMalformed;
  }
  if (length > max_frame_bytes_) {
    // Discard the announced bytes without ever buffering them.
    const std::uint64_t total = 4 + static_cast<std::uint64_t>(length);
    const std::size_t have = buffer_.size();
    if (have >= total) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(total));
    } else {
      buffer_.clear();
      discard_remaining_ = total - have;
    }
    return DecodeStatus::kOversized;
  }
  if (buffer_.size() < 4 + static_cast<std::size_t>(length)) {
    return DecodeStatus::kNeedMore;
  }
  const std::uint8_t version = buffer_[4];
  const std::uint8_t type = buffer_[5];
  if (version != kProtocolVersion) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(4 + length));
    return DecodeStatus::kBadVersion;
  }
  frame->type = static_cast<MsgType>(type);
  frame->payload.assign(buffer_.begin() + 6,
                        buffer_.begin() +
                            static_cast<std::ptrdiff_t>(4 + length));
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(4 + length));
  return DecodeStatus::kOk;
}

// ---------------------------------------------------------------------------
// Messages.

namespace {

/// Begins decoding: checks the frame type and hands back a reader.
bool open_payload(const Frame& f, MsgType expected, WireReader* out) {
  if (f.type != expected) return false;
  *out = WireReader(f.payload.data(), f.payload.size());
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode(const SubmitGraphRequest& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(m.graph_id);
  w.graph(m.graph);
  return encode_frame(MsgType::kSubmitGraph, payload);
}

bool decode(const Frame& f, SubmitGraphRequest* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kSubmitGraph, &r)) return false;
  m->graph_id = r.u64();
  m->graph = r.graph();
  return r.exhausted();
}

std::vector<std::uint8_t> encode(const GraphAckReply& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(m.graph_id);
  w.u32(m.nodes);
  w.u32(m.edges);
  return encode_frame(MsgType::kGraphAck, payload);
}

bool decode(const Frame& f, GraphAckReply* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kGraphAck, &r)) return false;
  m->graph_id = r.u64();
  m->nodes = r.u32();
  m->edges = r.u32();
  return r.exhausted();
}

std::vector<std::uint8_t> encode(const OpenSessionRequest& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(m.graph_id);
  w.str(m.scheme);
  w.str(m.engine);
  w.u8(m.maintain ? 1 : 0);
  return encode_frame(MsgType::kOpenSession, payload);
}

bool decode(const Frame& f, OpenSessionRequest* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kOpenSession, &r)) return false;
  m->graph_id = r.u64();
  m->scheme = r.str();
  m->engine = r.str();
  m->maintain = r.u8() != 0;
  return r.exhausted();
}

std::vector<std::uint8_t> encode(const SessionOpenedReply& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(m.session_id);
  return encode_frame(MsgType::kSessionOpened, payload);
}

bool decode(const Frame& f, SessionOpenedReply* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kSessionOpened, &r)) return false;
  m->session_id = r.u64();
  return r.exhausted();
}

std::vector<std::uint8_t> encode(const ApplyDeltasRequest& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(m.session_id);
  w.batch(m.batch);
  return encode_frame(MsgType::kApplyDeltas, payload);
}

bool decode(const Frame& f, ApplyDeltasRequest* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kApplyDeltas, &r)) return false;
  m->session_id = r.u64();
  m->batch = r.batch();
  return r.exhausted();
}

std::vector<std::uint8_t> encode(const DeltasAcceptedReply& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(m.session_id);
  w.u64(m.ticket);
  w.u32(m.queue_depth);
  return encode_frame(MsgType::kDeltasAccepted, payload);
}

bool decode(const Frame& f, DeltasAcceptedReply* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kDeltasAccepted, &r)) return false;
  m->session_id = r.u64();
  m->ticket = r.u64();
  m->queue_depth = r.u32();
  return r.exhausted();
}

std::vector<std::uint8_t> encode(const PollVerdictRequest& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(m.session_id);
  w.u64(m.ticket);
  return encode_frame(MsgType::kPollVerdict, payload);
}

bool decode(const Frame& f, PollVerdictRequest* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kPollVerdict, &r)) return false;
  m->session_id = r.u64();
  m->ticket = r.u64();
  return r.exhausted();
}

std::vector<std::uint8_t> encode(const VerdictReply& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(m.session_id);
  w.u64(m.ticket);
  w.u8(m.status);
  w.u8(m.all_accept ? 1 : 0);
  w.u32(m.rejecting);
  w.u64(m.generation);
  w.u64(m.fingerprint);
  w.u32(m.coalesced);
  return encode_frame(MsgType::kVerdict, payload);
}

bool decode(const Frame& f, VerdictReply* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kVerdict, &r)) return false;
  m->session_id = r.u64();
  m->ticket = r.u64();
  m->status = r.u8();
  m->all_accept = r.u8() != 0;
  m->rejecting = r.u32();
  m->generation = r.u64();
  m->fingerprint = r.u64();
  m->coalesced = r.u32();
  return r.exhausted();
}

std::vector<std::uint8_t> encode(const GetStatsRequest& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(m.session_id);
  return encode_frame(MsgType::kGetStats, payload);
}

bool decode(const Frame& f, GetStatsRequest* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kGetStats, &r)) return false;
  m->session_id = r.u64();
  return r.exhausted();
}

std::vector<std::uint8_t> encode(const StatsReply& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(m.session_id);
  w.u64(m.generation);
  w.u64(m.fingerprint);
  w.u64(m.batches);
  w.u64(m.repaired);
  w.u64(m.declined);
  w.u64(m.reproves);
  w.u64(m.verifies);
  w.u64(m.spot_sampled);
  w.u64(m.spot_skipped);
  w.u64(m.spot_escalations);
  w.f64(m.spot_miss_bound);
  w.u32(m.queue_depth);
  return encode_frame(MsgType::kStats, payload);
}

bool decode(const Frame& f, StatsReply* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kStats, &r)) return false;
  m->session_id = r.u64();
  m->generation = r.u64();
  m->fingerprint = r.u64();
  m->batches = r.u64();
  m->repaired = r.u64();
  m->declined = r.u64();
  m->reproves = r.u64();
  m->verifies = r.u64();
  m->spot_sampled = r.u64();
  m->spot_skipped = r.u64();
  m->spot_escalations = r.u64();
  m->spot_miss_bound = r.f64();
  m->queue_depth = r.u32();
  return r.exhausted();
}

std::vector<std::uint8_t> encode(const CloseRequest& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(m.session_id);
  return encode_frame(MsgType::kClose, payload);
}

bool decode(const Frame& f, CloseRequest* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kClose, &r)) return false;
  m->session_id = r.u64();
  return r.exhausted();
}

std::vector<std::uint8_t> encode(const ClosedReply& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(m.session_id);
  w.u64(m.generation);
  w.u64(m.fingerprint);
  return encode_frame(MsgType::kClosed, payload);
}

bool decode(const Frame& f, ClosedReply* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kClosed, &r)) return false;
  m->session_id = r.u64();
  m->generation = r.u64();
  m->fingerprint = r.u64();
  return r.exhausted();
}

std::vector<std::uint8_t> encode(const OverloadedReply& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u64(m.session_id);
  w.u32(m.queue_depth);
  return encode_frame(MsgType::kOverloaded, payload);
}

bool decode(const Frame& f, OverloadedReply* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kOverloaded, &r)) return false;
  m->session_id = r.u64();
  m->queue_depth = r.u32();
  return r.exhausted();
}

std::vector<std::uint8_t> encode(const ErrorReply& m) {
  std::vector<std::uint8_t> payload;
  WireWriter w(&payload);
  w.u16(static_cast<std::uint16_t>(m.code));
  w.str(m.message);
  return encode_frame(MsgType::kError, payload);
}

bool decode(const Frame& f, ErrorReply* m) {
  WireReader r(nullptr, 0);
  if (!open_payload(f, MsgType::kError, &r)) return false;
  m->code = static_cast<ErrorCode>(r.u16());
  m->message = r.str();
  return r.exhausted();
}

}  // namespace lcp::server
