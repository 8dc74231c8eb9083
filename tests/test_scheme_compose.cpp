// The scheme algebra (core/compose.hpp) + registry (core/registry.hpp) +
// VerificationSession facade (core/session.hpp) property suite:
//
//   - conjunction(A, B).holds == A.holds && B.holds, the composed prover
//     is accepted iff both components hold, and the composed verdict is
//     bit-identical across sweep_sequential and IncrementalEngine on a
//     randomized corpus drawn over the registered schemes;
//   - tampered concatenated proofs are rejected by at least one node;
//   - radius_pad verdicts are bit-identical to the base scheme, honest
//     and tampered alike;
//   - relabel matches the base scheme on the directly relabelled graph;
//   - registry hygiene: duplicate and reserved names are rejected at
//     registration, advertised_size sums across conjunctions and
//     propagates -1;
//   - a conjunction session (Session + ComposedMaintainer) tracks the
//     AND of the component ground truths under churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "algo/matching.hpp"
#include "core/checker.hpp"
#include "core/compose.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "dynamic/composed_maintainer.hpp"
#include "graph/generators.hpp"
#include "schemes/lcp_const.hpp"
#include "schemes/matching_schemes.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

void expect_equal(const RunResult& expected, const RunResult& actual,
                  const std::string& context) {
  ASSERT_EQ(expected.all_accept, actual.all_accept) << context;
  ASSERT_EQ(expected.rejecting, actual.rejecting) << context;
}

/// A labelled corpus instance: the generators cover trees (both bipartite
/// and acyclic hold), cycles, and general random graphs, with the
/// leader/matching input labellings some schemes need.
std::vector<Graph> corpus(std::uint32_t seed) {
  std::vector<Graph> out;
  out.push_back(gen::random_tree(12, seed));
  out.push_back(gen::cycle(8));
  out.push_back(gen::cycle(9));
  out.push_back(gen::random_connected(12, 0.2, seed + 1));
  out.push_back(gen::random_graph(12, 0.25, seed + 2));
  for (Graph& g : out) {
    g.set_label(0, schemes::kLeaderFlag);
    const std::vector<bool> matched = greedy_maximal_matching(g);
    for (int e = 0; e < g.m(); ++e) {
      if (matched[static_cast<std::size_t>(e)]) {
        g.set_edge_label(e, schemes::MaximalMatchingScheme::kMatchedBit);
      }
    }
  }
  return out;
}

// ------------------------------------------------------------- encoding --

TEST(SchemeCompose, LabelEncodingRoundTrips) {
  std::mt19937 rng(7);
  for (int k = 2; k <= 4; ++k) {
    for (int round = 0; round < 200; ++round) {
      std::vector<BitString> slices(static_cast<std::size_t>(k));
      for (BitString& s : slices) {
        const int len = static_cast<int>(rng() % 20);
        for (int b = 0; b < len; ++b) s.append_bit(rng() % 2 == 1);
      }
      const BitString label = ConjunctionScheme::encode_label(slices);
      std::vector<BitString> decoded;
      ASSERT_TRUE(ConjunctionScheme::decode_label(label, k, &decoded));
      ASSERT_EQ(slices.size(), decoded.size());
      for (int j = 0; j < k; ++j) {
        EXPECT_EQ(slices[static_cast<std::size_t>(j)],
                  decoded[static_cast<std::size_t>(j)]);
      }
    }
  }
  // All-empty encodes to the empty label, and the empty label decodes.
  const BitString empty =
      ConjunctionScheme::encode_label({BitString(), BitString()});
  EXPECT_TRUE(empty.empty());
  std::vector<BitString> decoded;
  EXPECT_TRUE(ConjunctionScheme::decode_label(empty, 2, &decoded));
}

TEST(SchemeCompose, MalformedLabelsAreRejectedNotCrashed) {
  // Truncations and bit appends of a valid label must decode to false;
  // adversarial length fields must not cost super-linear work.
  std::vector<BitString> slices(2);
  slices[0] = BitString::from_string("10110");
  slices[1] = BitString::from_string("001");
  const BitString label = ConjunctionScheme::encode_label(slices);
  std::vector<BitString> decoded;

  BitString longer = label;
  longer.append_bit(true);
  EXPECT_FALSE(ConjunctionScheme::decode_label(longer, 2, &decoded));

  BitString truncated;
  for (int i = 0; i + 1 < label.size(); ++i) {
    truncated.append_bit(label.bit(i));
  }
  EXPECT_FALSE(ConjunctionScheme::decode_label(truncated, 2, &decoded));

  // A length field claiming far more payload than exists.
  BitString huge;
  huge.append_uint(40, 6);       // width 40
  huge.append_uint(1u << 20, 40);  // slice 0 "has" 2^20 bits
  huge.append_uint(0, 40);
  huge.append_bit(true);
  EXPECT_FALSE(ConjunctionScheme::decode_label(huge, 2, &decoded));
}

// ------------------------------------------------------------- registry --

TEST(SchemeCompose, RegistryRejectsDuplicatesAndReservedNames) {
  SchemeRegistry r;
  r.add("bip", [] {
    return std::unique_ptr<Scheme>(new schemes::BipartiteScheme());
  });
  EXPECT_THROW(r.add("bip",
                     [] {
                       return std::unique_ptr<Scheme>(
                           new schemes::BipartiteScheme());
                     }),
               std::invalid_argument);
  EXPECT_THROW(r.add("", [] {
                 return std::unique_ptr<Scheme>(
                     new schemes::BipartiteScheme());
               }),
               std::invalid_argument);
  EXPECT_THROW(r.add("a & b",
                     [] {
                       return std::unique_ptr<Scheme>(
                           new schemes::BipartiteScheme());
                     }),
               std::invalid_argument);
  EXPECT_THROW((void)r.make("unknown"), std::invalid_argument);
  EXPECT_THROW((void)r.build("bip & unknown"), std::invalid_argument);
  EXPECT_THROW((void)r.build("bip & "), std::invalid_argument);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.contains("bip"));
  EXPECT_FALSE(r.has_maintainer("bip"));
}

TEST(SchemeCompose, BuiltinRegistryInstantiatesEverything) {
  SchemeRegistry& reg = builtin_registry();
  EXPECT_GE(reg.size(), 15u);
  for (const std::string& name : reg.names()) {
    const auto scheme = reg.make(name);
    ASSERT_NE(scheme, nullptr) << name;
    EXPECT_EQ(scheme->name(), name)
        << "registry key must match the scheme's own name";
    EXPECT_GE(scheme->verifier().radius(), 1) << name;
  }
  for (const char* expected :
       {"leader-election", "bipartite", "maximal-matching", "acyclic",
        "odd-n", "chromatic<=3"}) {
    EXPECT_TRUE(reg.contains(expected)) << expected;
  }
  EXPECT_TRUE(reg.has_maintainer("leader-election"));
  EXPECT_TRUE(reg.has_maintainer("maximal-matching"));
}

TEST(SchemeCompose, AdvertisedSizeSumsAndPropagatesUnknown) {
  SchemeRegistry& reg = builtin_registry();
  const Graph g = gen::cycle(8);
  const auto a = reg.make("bipartite");
  const auto b = reg.make("leader-election");
  const auto conj = reg.build("bipartite & leader-election");
  for (int n : {4, 64, 1024}) {
    EXPECT_EQ(conj->advertised_size(n),
              a->advertised_size(n) + b->advertised_size(n));
  }
  EXPECT_EQ(conj->name(), "bipartite & leader-election");
  (void)g;

  // A component without a closed-form bound poisons the sum to -1.
  class Unbounded final : public Scheme {
   public:
    std::string name() const override { return "unbounded"; }
    bool holds(const Graph&) const override { return true; }
    std::optional<Proof> prove(const Graph& g2) const override {
      return Proof::empty(g2.n());
    }
    const LocalVerifier& verifier() const override { return verifier_; }

   private:
    LambdaVerifier verifier_{1, [](const View&) { return true; }};
  };
  const Unbounded u;
  const auto mixed = conjunction(*a, u);
  EXPECT_EQ(mixed->advertised_size(128), -1);
}

// ---------------------------------------------------- conjunction == AND --

TEST(SchemeCompose, ConjunctionMatchesComponentAndAcrossEngines) {
  SchemeRegistry& reg = builtin_registry();
  const std::vector<std::string> names = reg.names();
  std::mt19937 rng(20260730);

  int yes_instances = 0;
  for (int round = 0; round < 14; ++round) {
    const std::string& a = names[rng() % names.size()];
    const std::string& b = names[rng() % names.size()];
    if (a == b) continue;
    const auto lhs = reg.make(a);
    const auto rhs = reg.make(b);
    const auto conj = reg.build(a + " & " + b);
    ASSERT_EQ(conj->verifier().radius(),
              std::max(lhs->verifier().radius(), rhs->verifier().radius()))
        << conj->name();

    for (const Graph& g : corpus(static_cast<std::uint32_t>(round + 1))) {
      const bool expected = lhs->holds(g) && rhs->holds(g);
      const std::string context =
          conj->name() + " on n=" + std::to_string(g.n()) + "/m=" +
          std::to_string(g.m());
      ASSERT_EQ(conj->holds(g), expected) << context;

      const auto proof = conj->prove(g);
      if (expected) {
        ++yes_instances;
        ASSERT_TRUE(proof.has_value()) << context;
        // Verdict == AND of the component verdicts on their own proofs.
        ASSERT_TRUE(scheme_accepts_own_proof(*lhs, g)) << context;
        ASSERT_TRUE(scheme_accepts_own_proof(*rhs, g)) << context;
      }
      const Proof p = proof.value_or(Proof::empty(g.n()));
      const RunResult want = sweep_sequential(g, p, conj->verifier());
      ASSERT_EQ(want.all_accept, expected) << context;

      IncrementalEngine incremental;
      expect_equal(want, incremental.run(g, p, conj->verifier()),
                   context + "/incremental");
    }
  }
  EXPECT_GT(yes_instances, 0) << "corpus never exercised completeness";
}

TEST(SchemeCompose, TripleConjunctionStaysFirstClass) {
  SchemeRegistry& reg = builtin_registry();
  const auto conj = reg.build("bipartite & acyclic & even-n");
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    const Graph g = gen::random_tree(11 + static_cast<int>(seed), seed);
    const bool expected = conj->holds(g);
    const auto proof = conj->prove(g);
    const Proof p = proof.value_or(Proof::empty(g.n()));
    EXPECT_EQ(sweep_sequential(g, p, conj->verifier()).all_accept, expected);
  }
}

TEST(SchemeCompose, TamperedConjunctionProofsAreRejected) {
  SchemeRegistry& reg = builtin_registry();
  std::mt19937 rng(99);
  for (const char* expr :
       {"bipartite & acyclic", "leader-election & maximal-matching"}) {
    const auto conj = reg.build(expr);
    Graph g = gen::random_tree(14, 5);
    g.set_label(0, schemes::kLeaderFlag);
    const std::vector<bool> matched = greedy_maximal_matching(g);
    for (int e = 0; e < g.m(); ++e) {
      if (matched[static_cast<std::size_t>(e)]) {
        g.set_edge_label(e, schemes::MaximalMatchingScheme::kMatchedBit);
      }
    }
    ASSERT_TRUE(conj->holds(g)) << expr;
    const auto proof = conj->prove(g);
    ASSERT_TRUE(proof.has_value()) << expr;
    ASSERT_TRUE(sweep_sequential(g, *proof, conj->verifier()).all_accept) << expr;

    for (int v = 0; v < g.n(); ++v) {
      // Breaking the offset-table framing at any node must be caught.
      Proof longer = *proof;
      longer.labels[static_cast<std::size_t>(v)].append_bit(rng() % 2 == 1);
      EXPECT_FALSE(sweep_sequential(g, longer, conj->verifier()).all_accept)
          << expr << " node " << v << " appended bit";

      const BitString& orig = proof->labels[static_cast<std::size_t>(v)];
      if (orig.empty()) continue;
      Proof shorter = *proof;
      BitString cut;
      for (int i = 0; i + 1 < orig.size(); ++i) cut.append_bit(orig.bit(i));
      shorter.labels[static_cast<std::size_t>(v)] = cut;
      EXPECT_FALSE(sweep_sequential(g, shorter, conj->verifier()).all_accept)
          << expr << " node " << v << " truncated";
    }
  }
}

// ------------------------------------------------------------- adapters --

TEST(SchemeCompose, RadiusPadVerdictsBitIdenticalToBase) {
  SchemeRegistry& reg = builtin_registry();
  std::mt19937 rng(1234);
  for (const char* name : {"bipartite", "acyclic", "leader-election"}) {
    const auto base = reg.make(name);
    const int r = base->verifier().radius();
    EXPECT_THROW((void)radius_pad(*base, r - 1), std::invalid_argument);
    for (const int pad : {r, r + 1, r + 2}) {
      const auto padded = radius_pad(*base, pad);
      ASSERT_EQ(padded->verifier().radius(), pad);
      for (const Graph& g : corpus(11)) {
        const Proof honest =
            base->prove(g).value_or(Proof::empty(g.n()));
        expect_equal(sweep_sequential(g, honest, base->verifier()),
                     sweep_sequential(g, honest, padded->verifier()),
                     std::string(name) + "@r=" + std::to_string(pad));
        for (const Proof& tampered : tampered_variants(honest, 6, rng())) {
          expect_equal(
              sweep_sequential(g, tampered, base->verifier()),
              sweep_sequential(g, tampered, padded->verifier()),
              std::string(name) + "@r=" + std::to_string(pad) + "/tampered");
        }
      }
    }
  }
}

TEST(SchemeCompose, RelabelMatchesDirectRelabelling) {
  // Leader flags arrive encoded as label 7; the adapter maps them onto the
  // scheme's expected flag.
  SchemeRegistry& reg = builtin_registry();
  const auto base = reg.make("leader-election");
  const auto adapted = relabel(*base, [](std::uint64_t label) {
    return label == 7 ? schemes::kLeaderFlag : 0;
  });
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    Graph g = gen::random_connected(14, 0.15, seed);
    g.set_label(3, 7);
    Graph mapped = g;
    mapped.set_label(3, schemes::kLeaderFlag);

    ASSERT_EQ(adapted->holds(g), base->holds(mapped));
    const Proof p = adapted->prove(g).value_or(Proof::empty(g.n()));
    const Proof q = base->prove(mapped).value_or(Proof::empty(g.n()));
    expect_equal(sweep_sequential(mapped, q, base->verifier()),
                 sweep_sequential(g, p, adapted->verifier()), "relabel");
    EXPECT_TRUE(sweep_sequential(g, p, adapted->verifier()).all_accept);
  }
}

// -------------------------------------------------------------- session --

TEST(SchemeCompose, SessionFacadeVerifiesAndApplies) {
  auto session = VerificationSession::on(gen::cycle(6))
                     .scheme("bipartite")
                     .engine(EngineKind::kDirect)
                     .build();
  EXPECT_TRUE(session.verify().all_accept);
  EXPECT_EQ(session.scheme().name(), "bipartite");
  EXPECT_EQ(session.incremental_engine(), nullptr);

  // An out-of-band proof edit flows through apply();  with no maintainer
  // the session reproves and keeps accepting.
  MutationBatch tamper;
  tamper.set_proof_label(2, BitString::from_string("101"));
  EXPECT_TRUE(session.apply(tamper).all_accept);
  EXPECT_EQ(session.stats().reproves, 1u);

  EXPECT_THROW((void)VerificationSession::on(gen::cycle(4)).build(),
               std::invalid_argument);
  EXPECT_THROW((void)VerificationSession::on(gen::cycle(4))
                   .scheme("bipartite")
                   .engine("warp-drive"),
               std::invalid_argument);
}

TEST(SchemeCompose, ConjunctionSessionTracksComponentAndUnderChurn) {
  SchemeRegistry& reg = builtin_registry();
  const auto leader = reg.make("leader-election");
  const auto matching = reg.make("maximal-matching");

  Graph start = gen::random_connected(20, 0.12, 77);
  start.set_label(0, schemes::kLeaderFlag);
  const std::vector<bool> matched = greedy_maximal_matching(start);
  for (int e = 0; e < start.m(); ++e) {
    if (matched[static_cast<std::size_t>(e)]) {
      start.set_edge_label(e,
                           schemes::MaximalMatchingScheme::kMatchedBit);
    }
  }

  auto session = VerificationSession::on(std::move(start))
                     .scheme("leader-election & maximal-matching")
                     .engine(EngineKind::kIncremental)
                     .maintain(true)
                     .build();
  ASSERT_TRUE(session.maintainer_bound());
  ASSERT_TRUE(session.verify().all_accept);
  std::mt19937 rng(4242);
  for (int step = 0; step < 120; ++step) {
    const Graph& g = session.graph();
    MutationBatch batch;
    const int roll = static_cast<int>(rng() % 100);
    if (roll < 40 && g.m() > 2) {
      const int e = static_cast<int>(rng() % static_cast<unsigned>(g.m()));
      batch.remove_edge(g.edge_u(e), g.edge_v(e));
    } else if (roll < 75) {
      for (int tries = 0; tries < 16; ++tries) {
        const int u = static_cast<int>(rng() % static_cast<unsigned>(g.n()));
        const int v = static_cast<int>(rng() % static_cast<unsigned>(g.n()));
        if (u != v && !g.has_edge(u, v)) {
          batch.add_edge(u, v);
          break;
        }
      }
    } else if (roll < 90 && g.m() > 0) {
      // Out-of-band matched-bit toggle: the matching component heals it,
      // the tree component must shrug off the relayed edge-label op.
      const int e = static_cast<int>(rng() % static_cast<unsigned>(g.m()));
      batch.set_edge_label(
          g.edge_u(e), g.edge_v(e),
          g.edge_label(e) ^ schemes::MaximalMatchingScheme::kMatchedBit);
    } else {
      const int v = static_cast<int>(rng() % static_cast<unsigned>(g.n()));
      if (g.label(v) == 0) {
        const int old =
            g.find_label(schemes::kLeaderFlag).value_or(-1);
        if (old >= 0) batch.set_node_label(old, 0);
        batch.set_node_label(v, schemes::kLeaderFlag);
      }
    }
    if (batch.empty()) continue;

    const RunResult got = session.apply(batch);
    const RunResult want =
        sweep_sequential(session.graph(), session.proof(),
                  session.scheme().verifier());
    ASSERT_EQ(got.all_accept, want.all_accept) << "step " << step;
    ASSERT_EQ(got.rejecting, want.rejecting) << "step " << step;
    ASSERT_EQ(got.all_accept, leader->holds(session.graph()) &&
                                  matching->holds(session.graph()))
        << "step " << step;
  }

  const auto* composed = dynamic_cast<const dynamic::ComposedMaintainer*>(
      session.maintainer());
  ASSERT_NE(composed, nullptr);
  EXPECT_GT(session.stats().repaired, 80u);
  EXPECT_GT(composed->stats().labels_emitted, 0u);
  EXPECT_GT(composed->stats().relayed_ops, 0u);
}

}  // namespace
}  // namespace lcp
