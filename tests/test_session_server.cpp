// SessionServer behaviour suite: session lifecycle through the in-process
// surface and the wire protocol, admission backpressure (OVERLOADED and
// recovery), batch coalescing, verdict polling with a bounded history,
// close-with-drain semantics, observability wiring, and the blocking
// socket front end driven over a socketpair.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/delta.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "obs/journal.hpp"
#include "obs/telemetry.hpp"
#include "server/protocol.hpp"
#include "server/session_server.hpp"
#include "server/socket_server.hpp"

namespace lcp::server {
namespace {

constexpr std::uint64_t kGraphId = 1;

SessionServerOptions small_options() {
  SessionServerOptions options;
  options.lanes = 2;
  return options;
}

/// A server preloaded with one small bipartite grid.
std::unique_ptr<SessionServer> grid_server(SessionServerOptions options) {
  auto server = std::make_unique<SessionServer>(std::move(options));
  server->submit_graph(kGraphId, gen::grid(6, 6));
  return server;
}

std::uint64_t open_bipartite(SessionServer& server) {
  const OpenResult opened =
      server.open_session(kGraphId, "bipartite", "incremental", false);
  EXPECT_TRUE(opened.ok) << opened.error;
  return opened.session_id;
}

MutationBatch relabel(int node, std::uint64_t label) {
  MutationBatch batch;
  batch.set_node_label(node, label);
  return batch;
}

/// Polls until the ticket resolves (the server applies asynchronously).
VerdictRecord await_verdict(SessionServer& server, std::uint64_t session,
                            std::uint64_t ticket) {
  VerdictRecord record;
  for (int i = 0; i < 20000; ++i) {
    const PollStatus status = server.poll(session, ticket, &record);
    if (status == PollStatus::kDone) return record;
    EXPECT_EQ(status, PollStatus::kPending);
    std::this_thread::yield();
  }
  ADD_FAILURE() << "ticket " << ticket << " never resolved";
  return record;
}

TEST(SessionServer, LifecycleAndVerdicts) {
  auto server = grid_server(small_options());
  const std::uint64_t session = open_bipartite(*server);
  EXPECT_EQ(server->session_count(), 1u);

  std::uint64_t ticket = 0;
  std::uint32_t depth = 0;
  ASSERT_EQ(server->apply_deltas(session, relabel(3, 5), &ticket, &depth),
            AdmitStatus::kAccepted);
  EXPECT_GE(ticket, 1u);
  const VerdictRecord record = await_verdict(*server, session, ticket);
  // Node labels are inert for bipartiteness: the verdict stays accepting.
  EXPECT_FALSE(record.failed);
  EXPECT_TRUE(record.all_accept);
  EXPECT_EQ(record.rejecting, 0u);
  EXPECT_GE(record.generation, 1u);
  EXPECT_GE(record.coalesced, 1u);

  SessionSnapshot snapshot;
  ASSERT_TRUE(server->get_stats(session, &snapshot));
  EXPECT_EQ(snapshot.generation, record.generation);
  EXPECT_EQ(snapshot.fingerprint, record.fingerprint);
  EXPECT_EQ(snapshot.engine, "incremental");
  EXPECT_GE(snapshot.stats.batches, 1u);

  std::uint64_t generation = 0;
  std::uint64_t fingerprint = 0;
  ASSERT_TRUE(server->close_session(session, &generation, &fingerprint));
  EXPECT_EQ(generation, record.generation);
  EXPECT_EQ(fingerprint, record.fingerprint);
  EXPECT_EQ(server->session_count(), 0u);
  // The handle is dead: every surface reports unknown.
  EXPECT_EQ(server->apply_deltas(session, relabel(0, 1), &ticket, &depth),
            AdmitStatus::kUnknownSession);
  EXPECT_EQ(server->poll(session, ticket, nullptr),
            PollStatus::kUnknownSession);
  EXPECT_FALSE(server->close_session(session));
}

TEST(SessionServer, RejectionIsReportedNotFatal) {
  auto server = grid_server(small_options());
  const std::uint64_t session = open_bipartite(*server);
  // An odd cycle via one chord: (0,0)-(0,1)-(1,1)-(1,0) plus the chord
  // (0,0)-(1,1) makes a triangle, so bipartiteness fails somewhere.
  MutationBatch chord;
  chord.add_edge(0, 7, 0, 1);  // grid(6,6): node 7 is (1,1)
  std::uint64_t ticket = 0;
  ASSERT_EQ(server->apply_deltas(session, chord, &ticket, nullptr),
            AdmitStatus::kAccepted);
  const VerdictRecord record = await_verdict(*server, session, ticket);
  EXPECT_FALSE(record.failed);
  EXPECT_FALSE(record.all_accept);
  EXPECT_GT(record.rejecting, 0u);
  // The session survives a rejection: undo and re-verify clean.
  MutationBatch undo;
  undo.remove_edge(0, 7);
  ASSERT_EQ(server->apply_deltas(session, undo, &ticket, nullptr),
            AdmitStatus::kAccepted);
  EXPECT_TRUE(await_verdict(*server, session, ticket).all_accept);
}

TEST(SessionServer, FailedApplyMarksTicketAndSurvives) {
  auto server = grid_server(small_options());
  const std::uint64_t session = open_bipartite(*server);
  // Removing a non-existent edge makes the tracker throw; the ticket must
  // resolve as failed and the session must keep serving.
  MutationBatch bogus;
  bogus.remove_edge(0, 35);
  std::uint64_t ticket = 0;
  ASSERT_EQ(server->apply_deltas(session, bogus, &ticket, nullptr),
            AdmitStatus::kAccepted);
  EXPECT_TRUE(await_verdict(*server, session, ticket).failed);

  ASSERT_EQ(server->apply_deltas(session, relabel(1, 2), &ticket, nullptr),
            AdmitStatus::kAccepted);
  EXPECT_FALSE(await_verdict(*server, session, ticket).failed);
}

TEST(SessionServer, UnknownGraphAndBadScheme) {
  auto server = grid_server(small_options());
  const OpenResult unknown =
      server->open_session(99, "bipartite", "", false);
  EXPECT_FALSE(unknown.ok);
  EXPECT_TRUE(unknown.unknown_graph);
  const OpenResult bad =
      server->open_session(kGraphId, "no-such-scheme", "", false);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.unknown_graph);
  EXPECT_FALSE(bad.error.empty());
}

TEST(SessionServer, RemovedShardedBackendIsRefused) {
  // "sharded[:K[:PART]]" names no backend: the open fails with an error,
  // like any unknown engine, and leaves no session behind.
  auto server = grid_server(small_options());
  const std::size_t before = server->session_count();
  const OpenResult opened =
      server->open_session(kGraphId, "bipartite", "sharded:4", false);
  EXPECT_FALSE(opened.ok);
  EXPECT_FALSE(opened.unknown_graph);
  EXPECT_FALSE(opened.error.empty());
  EXPECT_EQ(server->session_count(), before);
}

TEST(SessionServer, VerdictHistoryEvictsOldTickets) {
  SessionServerOptions options = small_options();
  options.verdict_history = 2;
  auto server = grid_server(options);
  const std::uint64_t session = open_bipartite(*server);
  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < 6; ++i) {
    std::uint64_t ticket = 0;
    ASSERT_EQ(server->apply_deltas(session, relabel(i, 1), &ticket, nullptr),
              AdmitStatus::kAccepted);
    tickets.push_back(ticket);
    await_verdict(*server, session, ticket);  // serialise: no coalescing
  }
  server->drain();
  // Only the last two verdicts remain; older tickets answer kUnknownTicket
  // (they were applied — completed_through covers them — but evicted).
  EXPECT_EQ(server->poll(session, tickets.front(), nullptr),
            PollStatus::kUnknownTicket);
  EXPECT_EQ(server->poll(session, tickets.back(), nullptr),
            PollStatus::kDone);
  // Never-issued tickets are unknown too, not pending.
  EXPECT_EQ(server->poll(session, 1000, nullptr),
            PollStatus::kUnknownTicket);
}

TEST(SessionServer, OverloadAndRecovery) {
  SessionServerOptions options;
  options.lanes = 1;
  options.max_pending_per_session = 2;
  options.telemetry = std::make_shared<obs::Telemetry>();
  auto server = std::make_unique<SessionServer>(options);
  // A big enough graph that one apply gives the submitter time to flood
  // the bounded queue of a second session.
  server->submit_graph(kGraphId, gen::grid(40, 40));
  const std::uint64_t blocker = open_bipartite(*server);
  const std::uint64_t victim = open_bipartite(*server);

  bool overloaded = false;
  for (int attempt = 0; attempt < 50 && !overloaded; ++attempt) {
    // Occupy the single lane: a structural batch on the big grid keeps it
    // busy while the victim's queue fills.
    MutationBatch churn;
    churn.add_edge(0, 81, 0, 1);
    std::uint64_t ticket = 0;
    ASSERT_EQ(server->apply_deltas(blocker, churn, &ticket, nullptr),
              AdmitStatus::kAccepted);
    for (int i = 0; i < 8; ++i) {
      std::uint32_t depth = 0;
      const AdmitStatus status =
          server->apply_deltas(victim, relabel(i, 1), nullptr, &depth);
      if (status == AdmitStatus::kOverloaded) {
        overloaded = true;
        EXPECT_EQ(depth, 2u);  // the reply reports the full queue
        break;
      }
      ASSERT_EQ(status, AdmitStatus::kAccepted);
    }
    server->drain();
    MutationBatch undo;
    undo.remove_edge(0, 81);
    std::uint64_t ticket2 = 0;
    ASSERT_EQ(server->apply_deltas(blocker, undo, &ticket2, nullptr),
              AdmitStatus::kAccepted);
    server->drain();
  }
  ASSERT_TRUE(overloaded) << "queue never filled; lane too fast?";

  // Recovery: once drained, the same session admits again.
  std::uint64_t ticket = 0;
  ASSERT_EQ(server->apply_deltas(victim, relabel(0, 3), &ticket, nullptr),
            AdmitStatus::kAccepted);
  EXPECT_FALSE(await_verdict(*server, victim, ticket).failed);

  const obs::MetricSnapshot snap = options.telemetry->metrics.snapshot();
  bool saw_overloads = false;
  for (const auto& counter : snap.counters) {
    if (counter.name == "server.overloads") {
      saw_overloads = counter.value >= 1;
    }
  }
  EXPECT_TRUE(saw_overloads);
}

TEST(SessionServer, CoalescingMergesQueuedBatches) {
  SessionServerOptions options;
  options.lanes = 1;
  options.record_applied_batches = true;
  auto server = std::make_unique<SessionServer>(options);
  server->submit_graph(kGraphId, gen::grid(40, 40));
  const std::uint64_t blocker = open_bipartite(*server);
  const std::uint64_t target = open_bipartite(*server);

  std::uint32_t best = 0;
  for (int attempt = 0; attempt < 50 && best < 2; ++attempt) {
    // The blocker's structural apply holds the single lane (FIFO ring:
    // it was pushed first), so the target's batches pile up behind it.
    MutationBatch churn;
    if (attempt % 2 == 0) {
      churn.add_edge(0, 81, 0, 1);
    } else {
      churn.remove_edge(0, 81);
    }
    ASSERT_EQ(server->apply_deltas(blocker, churn, nullptr, nullptr),
              AdmitStatus::kAccepted);
    std::vector<std::uint64_t> tickets;
    for (int i = 0; i < 6; ++i) {
      std::uint64_t ticket = 0;
      ASSERT_EQ(
          server->apply_deltas(target, relabel(i, 1 + attempt), &ticket,
                               nullptr),
          AdmitStatus::kAccepted);
      tickets.push_back(ticket);
    }
    server->drain();
    for (const std::uint64_t ticket : tickets) {
      VerdictRecord record;
      ASSERT_EQ(server->poll(target, ticket, &record), PollStatus::kDone);
      if (record.coalesced > best) best = record.coalesced;
      // Tickets served by one apply share its verdict markers.
      EXPECT_TRUE(record.all_accept);
    }
  }
  EXPECT_GE(best, 2u) << "no admission group ever coalesced";

  // The coalesced applies were recorded: fewer applies than client
  // batches, and the op total matches what the clients submitted.
  const std::vector<MutationBatch> applied =
      server->applied_batches(target);
  std::size_t ops = 0;
  for (const MutationBatch& b : applied) ops += b.size();
  std::size_t admitted = 0;
  {
    SessionSnapshot snapshot;
    ASSERT_TRUE(server->get_stats(target, &snapshot));
    admitted = snapshot.stats.batches;  // one per apply, not per client
  }
  EXPECT_EQ(applied.size(), admitted);
  EXPECT_LT(applied.size(), ops);  // every client batch had exactly 1 op
}

TEST(SessionServer, MaxCoalesceOneDisablesMerging) {
  SessionServerOptions options = small_options();
  options.max_coalesce = 1;
  auto server = grid_server(options);
  const std::uint64_t session = open_bipartite(*server);
  const int batches = 12;
  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < batches; ++i) {
    std::uint64_t ticket = 0;
    ASSERT_EQ(server->apply_deltas(session, relabel(i % 36, 2), &ticket,
                                   nullptr),
              AdmitStatus::kAccepted);
    tickets.push_back(ticket);
  }
  server->drain();
  for (const std::uint64_t ticket : tickets) {
    VerdictRecord record;
    ASSERT_EQ(server->poll(session, ticket, &record), PollStatus::kDone);
    EXPECT_EQ(record.coalesced, 1u);
  }
  // One tracker generation per client batch: nothing merged.
  SessionSnapshot snapshot;
  ASSERT_TRUE(server->get_stats(session, &snapshot));
  EXPECT_EQ(snapshot.generation, static_cast<std::uint64_t>(batches));
}

TEST(SessionServer, CloseDrainsQueuedWork) {
  SessionServerOptions options;
  options.lanes = 1;
  auto server = grid_server(options);
  const std::uint64_t session = open_bipartite(*server);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(server->apply_deltas(session, relabel(i, 7), nullptr, nullptr),
              AdmitStatus::kAccepted);
  }
  std::uint64_t generation = 0;
  ASSERT_TRUE(server->close_session(session, &generation, nullptr));
  // Every queued batch was applied before the session died.
  EXPECT_GE(generation, 1u);
  EXPECT_EQ(server->total_queue_depth(), 0u);
}

TEST(SessionServer, ObservabilitySurfaces) {
  SessionServerOptions options = small_options();
  options.telemetry = std::make_shared<obs::Telemetry>();
  options.journal = std::make_shared<obs::Journal>();
  auto server = grid_server(options);
  const std::uint64_t session = open_bipartite(*server);
  std::uint64_t ticket = 0;
  ASSERT_EQ(server->apply_deltas(session, relabel(0, 1), &ticket, nullptr),
            AdmitStatus::kAccepted);
  await_verdict(*server, session, ticket);

  const obs::MetricSnapshot snap = options.telemetry->metrics.snapshot();
  EXPECT_TRUE(snap.has("server.admitted"));
  EXPECT_TRUE(snap.has("server.applies"));
  EXPECT_TRUE(snap.has("server.coalesced_batches"));
  EXPECT_TRUE(snap.has("server.apply.latency"));
  EXPECT_TRUE(snap.has("server.sessions"));
  EXPECT_TRUE(snap.has("server.queue_depth"));
  EXPECT_TRUE(snap.has("server.max_queue_depth"));
  EXPECT_TRUE(snap.has("pool.server.lanes"));
  double sessions_gauge = -1;
  for (const auto& gauge : snap.gauges) {
    if (gauge.name == "server.sessions") sessions_gauge = gauge.value;
  }
  EXPECT_EQ(sessions_gauge, 1.0);
  for (const auto& hist : snap.histograms) {
    if (hist.name == "server.apply.latency") {
      EXPECT_GE(hist.count, 1u);
    }
  }

  bool admit = false;
  for (const obs::JournalEvent& event : options.journal->events()) {
    if (event.kind == obs::JournalEventKind::kServerAdmit) admit = true;
  }
  EXPECT_TRUE(admit);

  // Tearing the server down withdraws its derived gauges: a snapshot
  // after destruction must not call into freed memory.
  server.reset();
  const obs::MetricSnapshot after = options.telemetry->metrics.snapshot();
  EXPECT_FALSE(after.has("server.sessions"));
  EXPECT_TRUE(after.has("server.admitted"));  // counters stay
}

// ---------------------------------------------------------------------------
// Wire surface: loopback connection.

/// Feeds one request frame and decodes the single reply it produces.
template <typename Reply>
Reply ask(LoopbackConnection& conn, const std::vector<std::uint8_t>& bytes) {
  const auto replies = conn.feed(bytes);
  EXPECT_EQ(replies.size(), 1u);
  FrameParser parser;
  parser.feed(replies[0].data(), replies[0].size());
  Frame frame;
  EXPECT_EQ(parser.next(&frame), DecodeStatus::kOk);
  Reply reply;
  EXPECT_TRUE(decode(frame, &reply))
      << "unexpected reply type " << msg_type_name(frame.type);
  return reply;
}

TEST(LoopbackConnection, FullProtocolConversation) {
  SessionServer server(small_options());
  LoopbackConnection conn(server);

  SubmitGraphRequest submit;
  submit.graph_id = 42;
  submit.graph = gen::grid(5, 5);
  const GraphAckReply ack = ask<GraphAckReply>(conn, encode(submit));
  EXPECT_EQ(ack.graph_id, 42u);
  EXPECT_EQ(ack.nodes, 25u);
  EXPECT_EQ(ack.edges, 40u);

  OpenSessionRequest open;
  open.graph_id = 42;
  open.scheme = "bipartite";
  const SessionOpenedReply opened =
      ask<SessionOpenedReply>(conn, encode(open));
  ASSERT_GE(opened.session_id, 1u);

  ApplyDeltasRequest apply;
  apply.session_id = opened.session_id;
  apply.batch.set_node_label(3, 9);
  const DeltasAcceptedReply accepted =
      ask<DeltasAcceptedReply>(conn, encode(apply));
  EXPECT_EQ(accepted.session_id, opened.session_id);
  ASSERT_GE(accepted.ticket, 1u);

  PollVerdictRequest poll;
  poll.session_id = opened.session_id;
  poll.ticket = accepted.ticket;
  VerdictReply verdict;
  for (int i = 0; i < 20000; ++i) {
    verdict = ask<VerdictReply>(conn, encode(poll));
    if (verdict.status != 0) break;
    std::this_thread::yield();
  }
  EXPECT_EQ(verdict.status, 1);
  EXPECT_TRUE(verdict.all_accept);
  EXPECT_GE(verdict.coalesced, 1u);

  GetStatsRequest stats_req;
  stats_req.session_id = opened.session_id;
  const StatsReply stats = ask<StatsReply>(conn, encode(stats_req));
  EXPECT_EQ(stats.generation, verdict.generation);
  EXPECT_EQ(stats.fingerprint, verdict.fingerprint);
  EXPECT_GE(stats.batches, 1u);

  CloseRequest close_req;
  close_req.session_id = opened.session_id;
  const ClosedReply closed = ask<ClosedReply>(conn, encode(close_req));
  EXPECT_EQ(closed.generation, verdict.generation);
  EXPECT_EQ(closed.fingerprint, verdict.fingerprint);

  // The handle is gone: polling now earns an ERROR reply.
  const ErrorReply error = ask<ErrorReply>(conn, encode(poll));
  EXPECT_EQ(error.code, ErrorCode::kUnknownSession);
}

TEST(LoopbackConnection, SurvivesDamagedFrames) {
  SessionServer server(small_options());
  LoopbackConnection conn(server, /*max_frame_bytes=*/4096);

  // 1. A bad-version frame earns an ERROR and is skipped.
  std::vector<std::uint8_t> bad = encode(GetStatsRequest{1});
  bad[4] = 9;
  ErrorReply error = ask<ErrorReply>(conn, bad);
  EXPECT_EQ(error.code, ErrorCode::kBadVersion);

  // 2. An oversized announcement earns an ERROR; its streamed body is
  // swallowed without a reply.
  std::vector<std::uint8_t> lie;
  WireWriter w(&lie);
  w.u32(100000);
  error = ask<ErrorReply>(conn, lie);
  EXPECT_EQ(error.code, ErrorCode::kOversizedFrame);
  std::vector<std::uint8_t> junk(100000, 0x5a);
  EXPECT_TRUE(conn.feed(junk).empty());

  // 3. An under-length frame earns an ERROR.
  std::vector<std::uint8_t> runt;
  WireWriter rw(&runt);
  rw.u32(0);
  error = ask<ErrorReply>(conn, runt);
  EXPECT_EQ(error.code, ErrorCode::kMalformedFrame);

  // 4. A well-framed payload of the wrong shape earns an ERROR with the
  // malformed code (decode failure, not a parser skip).
  std::vector<std::uint8_t> short_payload = {1, 2, 3};
  error = ask<ErrorReply>(
      conn, encode_frame(MsgType::kGetStats, short_payload));
  EXPECT_EQ(error.code, ErrorCode::kMalformedFrame);

  // 5. An unknown frame type earns kUnknownType.
  error = ask<ErrorReply>(conn, encode_frame(static_cast<MsgType>(0x55), {}));
  EXPECT_EQ(error.code, ErrorCode::kUnknownType);

  // After all that damage, the connection still serves real requests.
  SubmitGraphRequest submit;
  submit.graph_id = 7;
  submit.graph = gen::cycle(8);
  const GraphAckReply ack = ask<GraphAckReply>(conn, encode(submit));
  EXPECT_EQ(ack.nodes, 8u);
}

// ---------------------------------------------------------------------------
// Socket front end.

/// Client-side helper over a connected fd: send bytes, parse reply frames.
class FdClient {
 public:
  explicit FdClient(int fd) : fd_(fd) {}

  template <typename Reply>
  Reply ask(const std::vector<std::uint8_t>& bytes) {
    EXPECT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    Frame frame;
    for (;;) {
      const DecodeStatus status = parser_.next(&frame);
      if (status == DecodeStatus::kOk) break;
      EXPECT_EQ(status, DecodeStatus::kNeedMore);
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      EXPECT_GT(n, 0);
      if (n <= 0) return Reply{};
      parser_.feed(buf, static_cast<std::size_t>(n));
    }
    Reply reply;
    EXPECT_TRUE(decode(frame, &reply))
        << "unexpected reply type " << msg_type_name(frame.type);
    return reply;
  }

 private:
  int fd_;
  FrameParser parser_;
};

TEST(SocketServer, ServeFdOverSocketpair) {
  SessionServer server(small_options());
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread serving([&] { serve_fd(server, fds[0]); });

  FdClient client(fds[1]);
  SubmitGraphRequest submit;
  submit.graph_id = 3;
  submit.graph = gen::grid(4, 4);
  EXPECT_EQ(client.ask<GraphAckReply>(encode(submit)).nodes, 16u);

  OpenSessionRequest open;
  open.graph_id = 3;
  open.scheme = "bipartite";
  const SessionOpenedReply opened =
      client.ask<SessionOpenedReply>(encode(open));
  ASSERT_GE(opened.session_id, 1u);

  ApplyDeltasRequest apply;
  apply.session_id = opened.session_id;
  apply.batch.set_node_label(0, 4);
  const DeltasAcceptedReply accepted =
      client.ask<DeltasAcceptedReply>(encode(apply));
  EXPECT_GE(accepted.ticket, 1u);

  CloseRequest close_req;
  close_req.session_id = opened.session_id;
  const ClosedReply closed = client.ask<ClosedReply>(encode(close_req));
  EXPECT_GE(closed.generation, 1u);

  ::close(fds[1]);  // orderly shutdown: serve_fd returns
  serving.join();
  ::close(fds[0]);
}

TEST(SocketServer, ListensAndServesConcurrentConnections) {
  SessionServer server(small_options());
  server.submit_graph(kGraphId, gen::grid(5, 5));
  SocketServer listener(server, /*port=*/0);
  ASSERT_GT(listener.port(), 0);

  auto run_client = [&](int rounds) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(listener.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
    FdClient client(fd);
    OpenSessionRequest open;
    open.graph_id = kGraphId;
    open.scheme = "bipartite";
    const SessionOpenedReply opened =
        client.ask<SessionOpenedReply>(encode(open));
    ASSERT_GE(opened.session_id, 1u);
    for (int i = 0; i < rounds; ++i) {
      ApplyDeltasRequest apply;
      apply.session_id = opened.session_id;
      apply.batch.set_node_label(i % 25, static_cast<std::uint64_t>(i));
      const DeltasAcceptedReply accepted =
          client.ask<DeltasAcceptedReply>(encode(apply));
      ASSERT_GE(accepted.ticket, 1u);
    }
    CloseRequest close_req;
    close_req.session_id = opened.session_id;
    client.ask<ClosedReply>(encode(close_req));
    ::close(fd);
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back(run_client, 20);
  }
  for (std::thread& t : clients) t.join();
  listener.stop();
  EXPECT_EQ(server.session_count(), 0u);
}

TEST(SocketServer, StopUnblocksIdleConnections) {
  // A client that connects and then goes silent must not wedge stop():
  // the server shuts the connection down, the blocked recv() returns,
  // and the client observes EOF.
  SessionServer server(small_options());
  server.submit_graph(kGraphId, gen::grid(5, 5));
  SocketServer listener(server, /*port=*/0);
  ASSERT_GT(listener.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(listener.port());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
      0);
  FdClient client(fd);
  OpenSessionRequest open;
  open.graph_id = kGraphId;
  open.scheme = "bipartite";
  const SessionOpenedReply opened =
      client.ask<SessionOpenedReply>(encode(open));
  ASSERT_GE(opened.session_id, 1u);

  listener.stop();  // connection still open — must return anyway

  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // server closed its end
  ::close(fd);
}

}  // namespace
}  // namespace lcp::server
