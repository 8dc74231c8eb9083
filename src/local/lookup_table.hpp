// Section 7.4: LogLCP verifiers as lookup tables.
//
// On bounded-degree graphs a LogLCP verifier reads only O(log n) bits of
// input (a constant number of nodes, each with an O(log n)-bit id and
// proof), so the whole verifier can be tabulated in 2^{O(log n)} = poly(n)
// entries — that is how the paper places bounded-degree LogLCP properties
// inside NP/poly.  This adapter materialises the table on demand: every
// distinct view is evaluated once through the wrapped verifier and then
// answered from the table.  Tests confirm verdict equality and that the
// table stays polynomial across instance families.
#ifndef LCP_LOCAL_LOOKUP_TABLE_HPP_
#define LCP_LOCAL_LOOKUP_TABLE_HPP_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "core/verifier.hpp"

namespace lcp {

/// A canonical serialisation of a view: the exact O(log n)-bit input of
/// the paper's argument (ids, input labels, proof labels, adjacency,
/// centre).
std::string view_fingerprint(const View& view);

/// Wraps a verifier with a demand-built lookup table.
class LookupTableVerifier final : public LocalVerifier {
 public:
  explicit LookupTableVerifier(const LocalVerifier& inner) : inner_(&inner) {}

  int radius() const override { return inner_->radius(); }

  bool accept(const View& view) const override;

  /// Batched fast path: one lock round-trip for the whole batch instead of
  /// one per view.  Fingerprints and miss evaluations happen outside the
  /// lock; engines with materialised views (IncrementalEngine dirty
  /// sets) route through this, so table lookups
  /// on those paths stop paying per-node lock and dispatch overhead.
  void accept_batch(const View* const* views, std::size_t count,
                    std::uint8_t* out) const override;

  /// Number of distinct view fingerprints tabulated so far.
  std::size_t table_size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return table_.size();
  }

  /// Number of accept() calls answered from the table.
  std::size_t hits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }

 private:
  const LocalVerifier* inner_;
  // The demand-built table is shared mutable state; the lock keeps accept()
  // safe under a multi-thread SweepEngine's concurrent sweeps.
  mutable std::mutex mutex_;
  mutable std::map<std::string, bool> table_;
  mutable std::size_t hits_ = 0;
};

}  // namespace lcp

#endif  // LCP_LOCAL_LOOKUP_TABLE_HPP_
