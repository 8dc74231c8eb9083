// server-sessions: an open loop of independent users talking to one
// SessionServer through the wire protocol, over one LoopbackConnection
// driven by one client thread (no socket, so kernel scheduling noise
// stays out while the frame codec and handle_frame are still measured).
//
// Traffic, per run:
//   - 64 long-lived sessions on two small base graphs; even ones run
//     "bipartite" (no maintainer, so every apply reproves) under node-label
//     churn, odd ones "maximal-matching" with its maintainer under edge
//     churn from bench/churn_stream.hpp (no growth), generated against a
//     client-side mirror of the session's topology;
//   - Poisson arrivals at one fixed offered rate, each for a uniformly
//     chosen session of the client thread; at most kWindow batches per
//     session are in flight (admitted, verdict not yet seen), so the
//     server's coalescer can merge them;
//   - POLL_VERDICT for the oldest in-flight ticket of every session, the
//     first at a random point within kPollInterval of the send, then
//     every kPollInterval;
//   - every 200 batches a session is drained, closed (CLOSE) and
//     reopened (OPEN_SESSION), so session builds are part of the traffic.
//
// Latency is timed from each batch's *scheduled* arrival to the first
// poll that sees its verdict; gen.lag_ms says how late sends ran.
//
// Oracle: after the timed phase each session incarnation's admitted
// batches are replayed through a plain VerificationSession, grouped the
// way the server coalesced them (tickets served by one apply share its
// generation); every group's verdict, generation and fingerprint, and the
// CLOSE reply's final generation and fingerprint, must match.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/churn_stream.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "obs/telemetry.hpp"
#include "server/protocol.hpp"
#include "server/session_server.hpp"
#include "host_speed.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace lcp;
using namespace lcp::server;

constexpr std::uint64_t kBipartiteGraph = 1;
constexpr std::uint64_t kMatchingGraph = 2;
/// Batches in flight per session before further arrivals queue client-side.
constexpr std::size_t kWindow = 4;
/// A client polls a pending ticket at most this often.  Unpaced, a
/// client sends many polls per verdict, each taking the server's
/// session-map lock that admission and the lane also take.  The first
/// poll of a batch comes at a random point of the interval: at fixed
/// offsets, latencies fell on a staircase of interval steps and the
/// median jumped a whole step between runs.
constexpr auto kPollInterval = std::chrono::microseconds(20);
/// Offered load, batches per second across all sessions: under half the
/// capacity found by sweeping the offered rate on a 4-vCPU x86 VM (the
/// median latency rose 1.4x from 1,000/s to 2,000/s and 2x by 3,000/s,
/// where the p90 passed 1.8 ms).
constexpr double kOfferedRate = 1500;
/// One lane (lanes stay at most nproc - 2); see Placement.
constexpr int kLanes = 1;

/// Where the threads run.  The client loop runs on the first allowed CPU
/// and spins while it waits; the server (its lane and pool threads) runs
/// on the second, beside a SCHED_IDLE thread that spins whenever the lane
/// sleeps.  A lane woken for a batch then lands on a CPU that is already
/// running and takes it at once.  Sleeping threads on idle virtual CPUs
/// made every hand-off wait for a halted CPU to be scheduled again by the
/// host, and clients sharing the lane's CPUs delayed it by scheduler time
/// slices; either way the median latency swung by tens of percent between
/// identical runs.  With one allowed CPU nothing is pinned.
class Placement {
 public:
  Placement() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE && cpus_.size() < 2; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
    if (cpus_.size() < 2) return;
    pin(cpus_[0]);
    keep_awake_ = std::thread([this] {
      pin(cpus_[1]);
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
  ~Placement() {
    stop_.store(true, std::memory_order_relaxed);
    if (keep_awake_.joinable()) keep_awake_.join();
  }
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

  /// Starts a server on the server's CPU: the threads it starts inherit
  /// the calling thread's affinity, which then returns to the client CPU.
  std::unique_ptr<SessionServer> start_server(
      const SessionServerOptions& options) const {
    if (cpus_.size() == 2) pin(cpus_[1]);
    auto server = std::make_unique<SessionServer>(options);
    if (cpus_.size() == 2) pin(cpus_[0]);
    return server;
  }

 private:
  static void pin(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);  // best effort
  }

  std::vector<int> cpus_;
  std::atomic<bool> stop_{false};
  std::thread keep_awake_;
};

struct Sizes {
  int sessions = 64;
  int quota = 200;  // batches per session incarnation before close/reopen
  int setup_reps = 21;
};

/// One admitted batch whose verdict has not been seen yet.
struct InFlight {
  std::uint64_t ticket = 0;
  Clock::time_point due;
  Clock::time_point next_poll;
  double lag_us = 0;    // due -> send start
  double codec_us = 0;  // client encode/decode for this batch's frames
  double frame_us = 0;  // LoopbackConnection::feed for them
  std::size_t batch_index = 0;  // into the incarnation's batch list
};

/// Everything the oracle needs about one session incarnation.
struct Incarnation {
  int session = 0;  // global session index
  int number = 0;   // 0 for the initial session, then one per reopen
  bool matching = false;
  std::vector<MutationBatch> batches;  // admitted, in ticket order
  std::vector<VerdictReply> verdicts;  // one per batch
  bool closed = false;
  std::uint64_t final_generation = 0;
  std::uint64_t final_fingerprint = 0;
};

/// Samples (ms) split by session kind: [0] bipartite, [1] maximal-matching.
struct ByKind {
  std::vector<double> ms[2];

  void add(bool matching, double v) { ms[matching ? 1 : 0].push_back(v); }
  /// Appends `other`'s samples, each times `factor`.
  void append_scaled(const ByKind& other, double factor) {
    for (int k = 0; k < 2; ++k) {
      for (const double v : other.ms[k]) ms[k].push_back(v * factor);
    }
  }
  /// The mean of the two kinds' exact medians.  Each kind takes half the
  /// sessions and the traffic, and a matching batch or open costs several
  /// times a bipartite one, so the median of the pooled samples falls in
  /// the sparse gap between the two modes, where a small change in the
  /// mix moved it by 15-37% between runs.
  double p50() const { return (median(ms[0]) + median(ms[1])) / 2; }
  void note(Result& r, const std::string& name) const {
    r.note(name + ".bipartite_p50_ms", median(ms[0]));
    r.note(name + ".bipartite_samples", static_cast<double>(ms[0].size()));
    r.note(name + ".matching_p50_ms", median(ms[1]));
    r.note(name + ".matching_samples", static_cast<double>(ms[1].size()));
  }
};

struct FrameStats {
  double us = 0;
  std::uint64_t count = 0;
};

/// The client thread's tallies of one pass.
struct ClientStats {
  std::vector<double> latency_ms;
  ByKind latency_by_kind;
  ByKind open_ms;
  std::vector<double> lag_ms;
  std::vector<SpanRecord> spans;  // traced pass only
  double codec_us = 0;
  double covered_us = 0;  // lag + codec + frame, summed over batches
  double e2e_us = 0;      // summed over batches
  FrameStats apply_frames, poll_frames, open_frames, close_frames;
  std::uint64_t polls = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t verdicts_in_window = 0;  // seen by the end of the schedule
  std::uint64_t errors = 0;
  std::uint64_t frames = 0;
  std::vector<Incarnation> incarnations;
  std::string failure;
};

/// The client side of one connection: encode, feed, decode, with the
/// codec and frame times recorded when `timed`.
class Client {
 public:
  Client(SessionServer& server, bool timed) : conn_(server), timed_(timed) {}

  /// Sends one request frame and decodes its single reply frame.
  /// Returns false on a transport-level problem (no or several replies).
  template <typename Request>
  bool call(const Request& request, Frame* reply, FrameStats* stats,
            double* codec_us = nullptr, double* frame_us = nullptr) {
    const Clock::time_point t0 = timed_ ? Clock::now() : Clock::time_point();
    const std::vector<std::uint8_t> bytes = encode(request);
    const Clock::time_point t1 = timed_ ? Clock::now() : Clock::time_point();
    const std::vector<std::vector<std::uint8_t>> replies = conn_.feed(bytes);
    const Clock::time_point t2 = timed_ ? Clock::now() : Clock::time_point();
    bool ok = replies.size() == 1;
    if (ok) {
      FrameParser parser;
      parser.feed(replies[0].data(), replies[0].size());
      ok = parser.next(reply) == DecodeStatus::kOk;
    }
    if (timed_) {
      const Clock::time_point t3 = Clock::now();
      const double codec = us_between(t0, t1) + us_between(t2, t3);
      const double frame = us_between(t1, t2);
      stats->us += frame;
      if (codec_us != nullptr) *codec_us += codec;
      if (frame_us != nullptr) *frame_us += frame;
    }
    ++stats->count;
    return ok;
  }

 private:
  LoopbackConnection conn_;
  bool timed_;
};

/// The two base graphs, grids so that their structure is the same for
/// every seed (with a random matching graph its cost moved with the seed).
/// A bipartite apply reproves the whole graph and a matching apply
/// repairs, so the bipartite graph is the larger one: with 960 against 40
/// nodes a bipartite apply took about half as long as a matching one (113
/// and 224 us), where at 192 against 200 nodes it took a fifth.
Graph bipartite_base(std::uint32_t seed) {
  return gen::shuffle_ids(gen::grid(12, 80), seed);
}

Graph matching_base(std::uint32_t seed) {
  Graph g = gen::shuffle_ids(gen::grid(5, 8), seed + 17);
  label_greedy_matching(g);
  return g;
}

OpenSessionRequest open_request(bool matching) {
  OpenSessionRequest req;
  req.graph_id = matching ? kMatchingGraph : kBipartiteGraph;
  req.scheme = matching ? "maximal-matching" : "bipartite";
  req.engine = "incremental";
  req.maintain = matching;
  return req;
}

/// Opens a session over the wire; returns 0 on failure.
std::uint64_t open_over_wire(Client& client, bool matching, FrameStats* stats) {
  Frame frame;
  SessionOpenedReply opened;
  if (!client.call(open_request(matching), &frame, stats) ||
      !decode(frame, &opened)) {
    return 0;
  }
  return opened.session_id;
}

/// A started server with its graphs submitted and sessions opened.
struct Deployment {
  std::unique_ptr<SessionServer> server;
  std::vector<std::uint64_t> session_ids;
  ByKind open_ms;  // each OPEN_SESSION round trip
  double setup_s = 0;
};

/// Opens the deployment's sessions over the wire; a pass closes every
/// session it used, so this also readies a deployment for the next pass.
void open_sessions(const Sizes& z, Deployment& d) {
  Client client(*d.server, false);
  FrameStats unused;
  d.session_ids.clear();
  for (int i = 0; i < z.sessions; ++i) {
    const Clock::time_point open_start = Clock::now();
    const std::uint64_t sid = open_over_wire(client, i % 2 == 1, &unused);
    d.open_ms.add(i % 2 == 1, us_between(open_start, Clock::now()) / 1e3);
    if (sid == 0) throw std::runtime_error("OPEN_SESSION failed");
    d.session_ids.push_back(sid);
  }
}

std::unique_ptr<Deployment> deploy(const Placement& placement, const Sizes& z,
                                   const Graph& bip, const Graph& mat,
                                   std::shared_ptr<obs::Telemetry> telemetry) {
  auto d = std::make_unique<Deployment>();
  SessionServerOptions options;
  options.lanes = kLanes;
  options.telemetry = std::move(telemetry);
  const Clock::time_point t0 = Clock::now();
  d->server = placement.start_server(options);
  Client client(*d->server, false);
  FrameStats unused;
  Frame frame;
  GraphAckReply ack;
  for (const auto& [id, graph] :
       {std::pair<std::uint64_t, const Graph*>{kBipartiteGraph, &bip},
        {kMatchingGraph, &mat}}) {
    SubmitGraphRequest req;
    req.graph_id = id;
    req.graph = *graph;
    if (!client.call(req, &frame, &unused) || !decode(frame, &ack)) {
      throw std::runtime_error("SUBMIT_GRAPH failed");
    }
  }
  open_sessions(z, *d);
  d->setup_s = seconds_between(t0, Clock::now());
  return d;
}

/// Client-side state of one session.
struct UserSession {
  bool matching = false;
  std::uint64_t sid = 0;
  Graph mirror;  // matching sessions: the server's topology
  std::unique_ptr<bench::ChurnStream> stream;
  int stream_it = 0;
  std::mt19937 rng;
  MutationBatch next;  // generated ahead, outside the timed interval
  std::deque<Clock::time_point> backlog;  // due arrivals not yet sent
  std::deque<InFlight> in_flight;
  int sent = 0;  // in this incarnation
  std::size_t incarnation = 0;  // index into ClientStats::incarnations
};

void generate(UserSession& s, const Graph& bip) {
  s.next.clear();
  if (s.matching) {
    s.stream->next(s.stream_it++, s.mirror, &s.next);
    for (const MutationBatch::Op& op : s.next.ops()) {
      if (op.kind == MutationBatch::Kind::kAddEdge) {
        s.mirror.add_edge(op.u, op.v, op.label, op.weight);
      } else if (op.kind == MutationBatch::Kind::kRemoveEdge) {
        s.mirror.remove_edge(op.u, op.v);
      }
    }
  } else {
    const int count = 1 + static_cast<int>(s.rng() % 4);
    for (int i = 0; i < count; ++i) {
      s.next.set_node_label(static_cast<int>(s.rng() % bip.n()),
                            s.rng() % 1024);
    }
  }
}

void start_incarnation(UserSession& s, int session, int number,
                       ClientStats& st, const Graph& bip, const Graph& mat,
                       std::uint32_t seed) {
  if (s.matching) {
    s.mirror = mat;
    s.stream = std::make_unique<bench::ChurnStream>(
        bench::ChurnStream::Options{.grow_probability = 0,
                                    .attach_edges = 0,
                                    .churn_edges = 2,
                                    .window = 8,
                                    .seed = seed});
    s.stream_it = 0;
  }
  s.rng.seed(seed);
  s.sent = 0;
  s.incarnation = st.incarnations.size();
  st.incarnations.emplace_back();
  st.incarnations.back().session = session;
  st.incarnations.back().number = number;
  st.incarnations.back().matching = s.matching;
  generate(s, bip);
}

struct ClientPlan {
  const Sizes* z = nullptr;
  const Graph* bip = nullptr;
  const Graph* mat = nullptr;
  std::vector<std::uint64_t> sids;  // the initial sessions
  std::vector<int> global_index;    // their session indices
  std::uint32_t seed = 0;
  double rate = 0;  // batches/s
  double seconds = 0;
  bool traced = false;
  Clock::time_point start;
};

void client_loop(SessionServer& server, const ClientPlan& plan,
                 ClientStats& st) {
  Client client(server, plan.traced);
  std::vector<UserSession> sessions(plan.sids.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    UserSession& s = sessions[i];
    s.matching = plan.global_index[i] % 2 == 1;
    s.sid = plan.sids[i];
    start_incarnation(s, plan.global_index[i], 0, st, *plan.bip, *plan.mat,
                      plan.seed * 7919u +
                          static_cast<std::uint32_t>(plan.global_index[i]));
  }
  std::mt19937_64 arrivals(plan.seed * 104729u + plan.global_index[0]);
  std::mt19937 poll_phase(plan.seed * 31337u);
  std::uniform_real_distribution<double> first_poll(0.0, 1.0);
  std::exponential_distribution<double> gap(plan.rate);
  const auto offset = [&](double s) {
    return plan.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(s));
  };
  double next_s = gap(arrivals);
  const Clock::time_point end = offset(plan.seconds);
  std::uint64_t span_id = 0;
  std::vector<int> reopens(sessions.size(), 1);

  const auto fail = [&](const std::string& what) {
    if (st.failure.empty()) st.failure = what;
    ++st.errors;
  };

  for (;;) {
    const Clock::time_point now = Clock::now();
    bool busy = false;
    // 1. Arrivals due by now (none after the end of the timed phase).
    while (next_s < plan.seconds && offset(next_s) <= now) {
      UserSession& s = sessions[arrivals() % sessions.size()];
      s.backlog.push_back(offset(next_s));
      next_s += gap(arrivals);
    }
    bool pending = next_s < plan.seconds;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      UserSession& s = sessions[i];
      Incarnation& inc = st.incarnations[s.incarnation];
      // 2. Sends.
      while (!s.backlog.empty() && s.in_flight.size() < kWindow &&
             s.sent < plan.z->quota) {
        InFlight f;
        f.due = s.backlog.front();
        const Clock::time_point send = Clock::now();
        f.lag_us = std::max(0.0, us_between(f.due, send));
        ApplyDeltasRequest req;
        req.session_id = s.sid;
        req.batch = s.next;
        Frame frame;
        ++st.frames;
        if (!client.call(req, &frame, &st.apply_frames, &f.codec_us,
                         &f.frame_us)) {
          fail("APPLY_DELTAS: no reply");
          break;
        }
        DeltasAcceptedReply accepted;
        if (frame.type == MsgType::kOverloaded) {
          fail("APPLY_DELTAS: OVERLOADED");
          break;
        }
        if (!decode(frame, &accepted)) {
          fail("APPLY_DELTAS: ERROR reply");
          break;
        }
        f.ticket = accepted.ticket;
        f.next_poll =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                kPollInterval * first_poll(poll_phase));
        f.batch_index = inc.batches.size();
        inc.batches.push_back(std::move(req.batch));
        inc.verdicts.emplace_back();
        s.in_flight.push_back(f);
        s.backlog.pop_front();
        ++s.sent;
        generate(s, *plan.bip);
        busy = true;
      }
      // 3. One poll for the oldest in-flight ticket, when it is due.
      if (!s.in_flight.empty() && s.in_flight.front().next_poll <= now) {
        InFlight& f = s.in_flight.front();
        PollVerdictRequest req;
        req.session_id = s.sid;
        req.ticket = f.ticket;
        Frame frame;
        VerdictReply verdict;
        ++st.polls;
        ++st.frames;
        const bool ok = client.call(req, &frame, &st.poll_frames,
                                    &f.codec_us, &f.frame_us);
        if (!ok || !decode(frame, &verdict) ||
            (verdict.status != 0 && verdict.status != 1)) {
          // ERROR reply, unknown ticket, or an apply that threw.
          fail("POLL_VERDICT: bad reply");
          s.in_flight.pop_front();
          busy = true;
        } else if (verdict.status == 1) {
          const Clock::time_point seen = Clock::now();
          const double e2e = us_between(f.due, seen);
          st.latency_ms.push_back(e2e / 1e3);
          st.latency_by_kind.add(s.matching, e2e / 1e3);
          st.lag_ms.push_back(f.lag_us / 1e3);
          ++st.verdicts;
          if (seen <= end) ++st.verdicts_in_window;
          inc.verdicts[f.batch_index] = verdict;
          if (plan.traced) {
            const double covered = f.lag_us + f.codec_us + f.frame_us;
            st.covered_us += covered;
            st.e2e_us += e2e;
            st.codec_us += f.codec_us;
            if (covered > e2e + 1.0) fail("ledger: batch spans exceed e2e");
            const std::uint64_t batch = ++span_id;
            const auto ns = [&](Clock::time_point t) {
              return static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t - plan.start)
                      .count());
            };
            const int tid = plan.global_index[0];
            st.spans.push_back({"batch", batch * 8, 0, batch, tid, ns(f.due),
                                ns(seen) - ns(f.due)});
            st.spans.push_back({"gen.lag", batch * 8 + 1, batch * 8, batch,
                                tid, ns(f.due),
                                static_cast<std::uint64_t>(f.lag_us * 1e3)});
            st.spans.push_back({"server.frame", batch * 8 + 2, batch * 8,
                                batch, tid, ns(f.due),
                                static_cast<std::uint64_t>(f.frame_us * 1e3)});
            st.spans.push_back({"server.client_codec", batch * 8 + 3,
                                batch * 8, batch, tid, ns(f.due),
                                static_cast<std::uint64_t>(f.codec_us * 1e3)});
          }
          s.in_flight.pop_front();
          busy = true;
        } else {
          f.next_poll = Clock::now() + kPollInterval;
        }
      }
      // 4. Close and reopen a drained session that used up its quota.
      if (s.sent >= plan.z->quota && s.in_flight.empty()) {
        CloseRequest close;
        close.session_id = s.sid;
        Frame frame;
        ClosedReply closed;
        ++st.frames;
        if (!client.call(close, &frame, &st.close_frames) ||
            !decode(frame, &closed)) {
          fail("CLOSE: bad reply");
        } else {
          inc.closed = true;
          inc.final_generation = closed.generation;
          inc.final_fingerprint = closed.fingerprint;
        }
        const Clock::time_point t0 = Clock::now();
        ++st.frames;
        s.sid = open_over_wire(client, s.matching, &st.open_frames);
        st.open_ms.add(s.matching, us_between(t0, Clock::now()) / 1e3);
        if (s.sid == 0) {
          fail("OPEN_SESSION: bad reply");
          return;
        }
        const int number = reopens[i]++;
        start_incarnation(
            s, plan.global_index[i], number, st, *plan.bip, *plan.mat,
            plan.seed * 7919u +
                static_cast<std::uint32_t>(plan.global_index[i]) +
                1000003u * static_cast<std::uint32_t>(number));
        busy = true;
      }
      pending = pending || !s.backlog.empty() || !s.in_flight.empty();
    }
    if (!pending) break;
    if (!busy) {
      // No progress this pass: wait for the next arrival or poll.  The
      // wait spins instead of sleeping; see Placement for why.
      Clock::time_point wake = end + std::chrono::seconds(1);
      if (next_s < plan.seconds) wake = offset(next_s);
      for (const UserSession& s : sessions) {
        if (!s.in_flight.empty()) {
          wake = std::min(wake, s.in_flight.front().next_poll);
        }
      }
      while (Clock::now() < wake) std::this_thread::yield();
    }
    if (Clock::now() > end + std::chrono::seconds(60)) {
      fail("timed out draining in-flight batches");
      return;
    }
  }
  // Close every session still open; its CLOSE reply ends the incarnation.
  for (UserSession& s : sessions) {
    CloseRequest close;
    close.session_id = s.sid;
    Frame frame;
    ClosedReply closed;
    ++st.frames;
    if (!client.call(close, &frame, &st.close_frames) ||
        !decode(frame, &closed)) {
      fail("CLOSE: bad reply");
      continue;
    }
    Incarnation& inc = st.incarnations[s.incarnation];
    inc.closed = true;
    inc.final_generation = closed.generation;
    inc.final_fingerprint = closed.fingerprint;
  }
}

/// Replays one incarnation through a plain session; returns "" or the
/// first disagreement.
std::string replay(const Incarnation& inc, const Graph& bip,
                   const Graph& mat) {
  VerificationSession::Builder builder =
      VerificationSession::on(inc.matching ? mat : bip);
  builder.scheme(inc.matching ? "maximal-matching" : "bipartite")
      .engine(EngineKind::kIncremental);
  if (inc.matching) builder.maintain(true);
  VerificationSession session = builder.build();
  std::size_t i = 0;
  while (i < inc.batches.size()) {
    const std::uint64_t generation = inc.verdicts[i].generation;
    MutationBatch group;
    std::size_t j = i;
    for (; j < inc.batches.size() && inc.verdicts[j].generation == generation;
         ++j) {
      group.append(inc.batches[j]);
    }
    const RunResult r = session.apply(group);
    const VerdictReply& want = inc.verdicts[i];
    if (r.all_accept != want.all_accept ||
        r.rejecting.size() != want.rejecting ||
        session.tracker().generation() != want.generation ||
        session.tracker().state_fingerprint() != want.fingerprint) {
      return "replay diverged at batch " + std::to_string(i);
    }
    i = j;
  }
  if (!inc.closed) return "incarnation never closed";
  if (session.tracker().generation() != inc.final_generation ||
      session.tracker().state_fingerprint() != inc.final_fingerprint) {
    return "final generation/fingerprint differ from the CLOSE reply";
  }
  return "";
}

struct PassResult {
  ClientStats client;
  std::uint64_t checksum = 0;
  std::size_t max_queue_depth = 0;
};

PassResult run_pass(const Sizes& z, const Graph& bip, const Graph& mat,
                    Deployment& d, const Options& o, double rate,
                    bool traced) {
  ClientPlan plan;
  plan.z = &z;
  plan.bip = &bip;
  plan.mat = &mat;
  for (int i = 0; i < z.sessions; ++i) {
    plan.sids.push_back(d.session_ids[static_cast<std::size_t>(i)]);
    plan.global_index.push_back(i);
  }
  plan.seed = o.seed;
  plan.rate = rate;
  plan.seconds = o.seconds;
  plan.traced = traced;
  plan.start = Clock::now() + std::chrono::milliseconds(5);
  PassResult p;
  ClientStats& m = p.client;
  client_loop(*d.server, plan, m);
  p.max_queue_depth = d.server->max_queue_depth();
  // Order-independent over incarnations: the interleaving of sessions
  // varies with timing, each incarnation's own batches do not.  A verdict's
  // generation and fingerprint depend on which batches the lane coalesced
  // into its apply, which differs between passes (the replay checks them);
  // the CLOSE reply's fingerprint is of the state after all the
  // incarnation's batches, which does not.
  for (const Incarnation& inc : m.incarnations) {
    std::uint64_t h = mix(static_cast<std::uint64_t>(inc.session),
                          static_cast<std::uint64_t>(inc.number));
    h = mix(h, inc.batches.size());
    for (const VerdictReply& v : inc.verdicts) h = mix(h, v.all_accept);
    h = mix(h, inc.final_fingerprint);
    p.checksum += h;
  }
  return p;
}

/// Replays every incarnation; counts mismatches into `r`.
void check_oracle(const PassResult& p, const Graph& bip, const Graph& mat,
                  Result& r) {
  std::uint64_t mismatches = 0;
  for (const Incarnation& inc : p.client.incarnations) {
    const std::string err = replay(inc, bip, mat);
    if (!err.empty()) {
      if (mismatches == 0) r.fail("server-sessions oracle: " + err);
      ++mismatches;
    }
  }
  r.failed += mismatches;
  r.attempted += p.client.incarnations.size();
}

/// The library layers, which this workload runs inside the server but
/// does not time from outside (the library workloads do).
constexpr LayerMetric kLibraryLayers[] = {
    {"schemes.prove.ms", "ms"},
    {"schemes.accept.calls", "count"},
    {"schemes.accept.ns_per_call", "ns"},
    {"core.session.apply.us", "us"},
    {"core.session.mutate.us", "us"},
    {"core.session.self.us", "us"},
    {"core.incremental.engine_self.us", "us"},
    {"core.incremental.dirty_scan.us", "us"},
    {"core.incremental.reextract.us", "us"},
    {"core.incremental.nodes_reverified", "count"},
    {"core.incremental.reextractions", "count"},
    {"core.incremental.views_patched", "count"},
    {"core.incremental.patch_fallbacks", "count"},
    {"core.incremental.patch_ratio", "ratio"},
    {"core.incremental.full_sweeps", "count"},
    {"core.incremental.fallbacks", "count"},
    {"core.incremental.sharded_rounds", "count"},
    {"dynamic.repair.us", "us"},
    {"dynamic.repair.ops", "count"},
    {"dynamic.declines", "count"},
    {"core.session.reproves", "count"},
};

}  // namespace

Result run_server_sessions(const Options& o) {
  Result r;
  Sizes z;
  if (o.smoke) {
    z.sessions = 8;
    z.quota = 40;
    z.setup_reps = 2;
  }
  const Graph bip = bipartite_base(o.seed);
  const Graph mat = matching_base(o.seed);
  const double rate = o.smoke ? 500 : kOfferedRate;
  const Placement placement;

  // Set-up times are normalised by the host's speed (host_speed.hpp),
  // each by reference samples taken just before and after it.  The
  // verdict latency is not: scaled by samples taken just before and after
  // the pass, its 5-seed spread was 0.31 of the median where the raw
  // medians spread 0.06; scaled by samples that a SCHED_IDLE thread took
  // on the lane's CPU during the pass, 0.086 against 0.071.  It is mostly
  // hand-offs, queueing and poll waits rather than computation.
  HostSpeed speed;
  std::vector<double> setup_s;
  ByKind open_ms;
  std::unique_ptr<Deployment> d;
  // Set-up samples from before and after the steady phase, so their
  // median spans the run; the last one before it serves the pass.  (A
  // set-up takes milliseconds, so repeating it costs nothing.)
  const auto set_up = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      d.reset();  // one server alive at a time
      const double before = speed.sample();
      d = deploy(placement, z, bip, mat, nullptr);
      const double f = 2 * HostSpeed::kNominalMs / (before + speed.sample());
      setup_s.push_back(d->setup_s * f);
      open_ms.append_scaled(d->open_ms, f);
    }
  };
  const int reps = o.trace ? 1 : z.setup_reps;
  set_up((reps + 1) / 2);
  {
    // A 2 s warm-up pass: the first pass in a process ran 10-35% slower
    // than later ones.  It runs on the deployment the measured pass then
    // uses, with fresh sessions, as a long-lived server would: after a
    // warm-up on a throw-away server, that server's freed session memory
    // stayed in its lane thread's malloc arena on some seeds and not on
    // others, and peak_rss_mb moved 53-79 MB with the seed.
    Options warm = o;
    warm.seconds = std::min(2.0, o.seconds);
    const PassResult p = run_pass(z, bip, mat, *d, warm, rate, false);
    if (!p.client.failure.empty()) {
      r.fail("server-sessions warm-up: " + p.client.failure);
    }
    open_sessions(z, *d);
  }
  const PassResult plain = run_pass(z, bip, mat, *d, o, rate, false);
  set_up(reps / 2);
  d.reset();
  const ClientStats& m = plain.client;
  if (!m.failure.empty()) r.fail("server-sessions: " + m.failure);
  r.attempted = m.frames;
  r.failed = m.errors;
  check_oracle(plain, bip, mat, r);
  r.note("offered_rate_per_s", rate);
  r.note("verdicts", static_cast<double>(m.verdicts));
  r.note("verdicts_in_window", static_cast<double>(m.verdicts_in_window));
  r.note("incarnations", static_cast<double>(m.incarnations.size()));
  char checksum[32];
  std::snprintf(checksum, sizeof checksum, "%016llx",
                static_cast<unsigned long long>(plain.checksum));
  r.note("verdict_checksum", checksum);
  r.note("host_speed_factor", speed.factor());
  if (!o.trace) {
    r.add("setup_s", median(setup_s), "s");
    m.latency_by_kind.note(r, "latency");
    add_latency_metrics(r, m.latency_ms, m.latency_by_kind.p50(), false);
    // Verdicts seen within the scheduled window.  The drain after it serves
    // every arrival, so counting those too would report the offered rate
    // however slow the server got.
    r.add("batches_per_s",
          static_cast<double>(m.verdicts_in_window) / o.seconds, "1/s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    // Every OPEN_SESSION round trip: set-up opens on an idle server and
    // the reopens inside the traffic.
    open_ms.append_scaled(m.open_ms, speed.factor());
    r.add("open_p50_ms", open_ms.p50(), "ms");
    open_ms.note(r, "open");
    r.note("setup_samples", static_cast<double>(setup_s.size()));
    r.note("gen_lag_p99_ms", percentile(m.lag_ms, 99));
    return r;
  }

  add_latency_metrics(r, m.latency_ms, 0, true);
  r.add("latency_raw_p50_ms", m.latency_by_kind.p50(), "ms");
  // Traced pass: same seed, so the same arrival schedule and batches.
  auto telemetry = std::make_shared<obs::Telemetry>();
  d = deploy(placement, z, bip, mat, telemetry);
  const PassResult traced = run_pass(z, bip, mat, *d, o, rate, true);
  const obs::MetricSnapshot snap = telemetry->metrics.snapshot();
  d.reset();
  const ClientStats& t = traced.client;
  if (!t.failure.empty()) r.fail("server-sessions traced: " + t.failure);
  r.attempted += t.frames;
  r.failed += t.errors;
  check_oracle(traced, bip, mat, r);
  if (traced.checksum != plain.checksum || t.verdicts != m.verdicts) {
    r.fail("server-sessions: traced run's verdict checksum differs");
  }
  std::uint64_t admitted = 0, applies = 0, overloads = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "server.admitted") admitted = c.value;
    if (c.name == "server.applies") applies = c.value;
    if (c.name == "server.overloads") overloads = c.value;
  }
  double apply_mean_us = 0;
  for (const auto& h : snap.histograms) {
    if (h.name == "server.apply.latency" && h.count > 0) {
      apply_mean_us = static_cast<double>(h.sum_ns) / 1e3 /
                      static_cast<double>(h.count);
    }
  }
  const double n = std::max<double>(1, static_cast<double>(t.verdicts));
  const auto per = [](const FrameStats& f) {
    return f.count > 0 ? f.us / static_cast<double>(f.count) : 0;
  };
  const double e2e_mean = t.e2e_us / n;
  const double frame_per_batch =
      (t.apply_frames.us + t.poll_frames.us) / n;
  r.add("server.frame.apply_deltas.us", per(t.apply_frames), "us");
  r.add("server.frame.poll_verdict.us", per(t.poll_frames), "us");
  r.add("server.frame.open_session.us", per(t.open_frames), "us");
  r.add("server.frame.close.us", per(t.close_frames), "us");
  r.add("server.client_codec.us", t.codec_us / n, "us");
  r.add("server.coalesce_ratio",
        applies > 0 ? static_cast<double>(admitted) / applies : 0, "ratio");
  r.add("server.apply.mean_us", apply_mean_us, "us");
  // Derived, not measured: what is left of the verdict latency after the
  // generator's lag, the client codec, the frames and the mean apply.
  r.add("server.wait.us",
        e2e_mean - mean(t.lag_ms) * 1e3 - t.codec_us / n - frame_per_batch -
            apply_mean_us,
        "us");
  r.add("server.polls_per_verdict", static_cast<double>(t.polls) / n,
        "count");
  r.add("server.overloads", static_cast<double>(overloads), "count");
  r.add("server.max_queue_depth", static_cast<double>(traced.max_queue_depth),
        "count");
  r.add("gen.lag_ms", mean(t.lag_ms), "ms");
  r.add("unattributed_pct",
        t.e2e_us > 0 ? 100.0 * (t.e2e_us - t.covered_us) / t.e2e_us : 0, "%");
  // Medians: a few multi-millisecond stalls move a pass's mean by tens
  // of percent.
  const double plain_p50 = m.latency_by_kind.p50();
  r.add("trace_overhead_pct",
        plain_p50 > 0
            ? 100.0 * (t.latency_by_kind.p50() - plain_p50) / plain_p50
            : 0,
        "%");
  r.add("error_rate",
        r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0,
        "ratio");
  add_layers_not_run(r, kLibraryLayers);
  r.note("ledger.covered_us_per_batch", t.covered_us / n);
  r.note("ledger.e2e_us_per_batch", e2e_mean);
  if (!write_spans(o.out_dir, "server-sessions.trace.json", t.spans)) {
    std::fprintf(stderr, "perfbench: could not write the server trace\n");
  }
  return r;
}

}  // namespace perfbench
