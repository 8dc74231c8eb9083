// Forwarding wrappers that time each layer from outside, through its
// public interface only.  They are used in the traced run alone; the
// untraced run hands the session the plain registry scheme.
//
//   TimedScheme      -> schemes: prove() and, through TimedVerifier,
//                       every accept()/accept_batch() call
//   TimedMaintainer  -> dynamic: repair() time and ops emitted
//
// Each opens a span in the session's TraceRecorder while it runs, so the
// span nests under the library's own session.* / incremental.* spans on
// the calling thread.
#ifndef PERFBENCH_PROBES_HPP_
#define PERFBENCH_PROBES_HPP_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "core/scheme.hpp"
#include "core/verifier.hpp"
#include "dynamic/maintainer.hpp"
#include "obs/trace.hpp"

namespace perfbench {

inline std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

class TimedVerifier final : public lcp::LocalVerifier {
 public:
  TimedVerifier(const lcp::LocalVerifier& inner, lcp::obs::TraceRecorder& trace)
      : inner_(inner), trace_(trace) {}

  int radius() const override { return inner_.radius(); }

  bool accept(const lcp::View& view) const override {
    const auto span = trace_.span("schemes.accept");
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = inner_.accept(view);
    ns_ += elapsed_ns(t0);
    ++calls_;
    return ok;
  }

  void accept_batch(const lcp::View* const* views, std::size_t count,
                    std::uint8_t* out) const override {
    const auto span = trace_.span("schemes.accept");
    const auto t0 = std::chrono::steady_clock::now();
    inner_.accept_batch(views, count, out);
    ns_ += elapsed_ns(t0);
    calls_ += count;
  }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t ns() const { return ns_; }

 private:
  const lcp::LocalVerifier& inner_;
  lcp::obs::TraceRecorder& trace_;
  // Sessions are single-caller and the workloads run the incremental
  // engine serially, so plain counters suffice.
  mutable std::uint64_t calls_ = 0;
  mutable std::uint64_t ns_ = 0;
};

class TimedScheme final : public lcp::Scheme {
 public:
  TimedScheme(std::unique_ptr<lcp::Scheme> inner,
              lcp::obs::TraceRecorder& trace)
      : inner_(std::move(inner)),
        trace_(trace),
        verifier_(inner_->verifier(), trace) {}

  std::string name() const override { return inner_->name(); }
  bool holds(const lcp::Graph& g) const override { return inner_->holds(g); }
  std::optional<lcp::Proof> prove(const lcp::Graph& g) const override {
    const auto span = trace_.span("schemes.prove");
    const auto t0 = std::chrono::steady_clock::now();
    auto proof = inner_->prove(g);
    prove_ns_ += elapsed_ns(t0);
    return proof;
  }
  const lcp::LocalVerifier& verifier() const override { return verifier_; }
  int advertised_size(int n) const override {
    return inner_->advertised_size(n);
  }

  const TimedVerifier& timed_verifier() const { return verifier_; }
  std::uint64_t prove_ns() const { return prove_ns_; }

 private:
  std::unique_ptr<lcp::Scheme> inner_;
  lcp::obs::TraceRecorder& trace_;
  TimedVerifier verifier_;
  mutable std::uint64_t prove_ns_ = 0;
};

class TimedMaintainer final : public lcp::dynamic::ProofMaintainer {
 public:
  TimedMaintainer(std::unique_ptr<lcp::dynamic::ProofMaintainer> inner,
                  lcp::obs::TraceRecorder& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::string name() const override { return inner_->name(); }
  bool bind(const lcp::Graph& g, const lcp::Proof& p) override {
    return inner_->bind(g, p);
  }
  bool repair(const lcp::Graph& g, const lcp::Proof& p,
              const lcp::MutationBatch& applied,
              lcp::MutationBatch* out) override {
    const auto span = trace_.span("dynamic.repair");
    const std::size_t before = out->size();
    const bool ok = inner_->repair(g, p, applied, out);
    ops_ += out->size() - before;
    return ok;
  }
  void register_metrics(lcp::obs::MetricRegistry& registry,
                        const void* owner) override {
    inner_->register_metrics(registry, owner);
  }
  void attach_journal(lcp::obs::Journal* journal) override {
    inner_->attach_journal(journal);
  }

  std::uint64_t ops() const { return ops_; }

 private:
  std::unique_ptr<lcp::dynamic::ProofMaintainer> inner_;
  lcp::obs::TraceRecorder& trace_;
  std::uint64_t ops_ = 0;
};

/// A maintainer for callers that write the certificate themselves: it
/// adopts any assignment and repairs nothing.  Without a bound maintainer
/// VerificationSession::apply() reproves after every batch, which would
/// overwrite the labels an attack loop just wrote.
class KeepLabelsMaintainer final : public lcp::dynamic::ProofMaintainer {
 public:
  std::string name() const override { return "keep-labels"; }
  bool bind(const lcp::Graph&, const lcp::Proof&) override { return true; }
  bool repair(const lcp::Graph&, const lcp::Proof&, const lcp::MutationBatch&,
              lcp::MutationBatch*) override {
    return true;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_HPP_
