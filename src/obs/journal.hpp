// The flight-recorder journal: a bounded per-thread ring buffer of
// structured events, dumped as JSONL on demand.
//
// Metrics (obs/metrics.hpp) say how *much* happened and traces
// (obs/trace.hpp) say how *long* it took; neither says what happened in
// what order right before a verdict flipped.  The journal is that third
// artefact: every layer of the stack emits compact structured events —
// batch applied, repair emitted, patch-vs-reextract fallback, lane
// dispatch, verdict change — into a per-thread ring, and
// rejection forensics (obs/forensics.hpp) snapshots the tail as the
// "black box" window preceding a flip.
//
// Cost model, mirroring the rest of src/obs/:
//   - disabled (null Journal*): one branch per emit site, nothing else —
//     verdicts and fingerprints are bit-identical either way;
//   - enabled: each thread writes its own fixed-capacity ring under its
//     own (uncontended) mutex, so lanes never serialise against each
//     other and memory is bounded regardless of run length.  Old events
//     are overwritten; total_emitted() keeps the true count.
//
// Event keys are static string literals (like trace span names), so an
// emit allocates nothing.
#ifndef LCP_OBS_JOURNAL_HPP_
#define LCP_OBS_JOURNAL_HPP_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace lcp::obs {

/// The event vocabulary.  The CI schema checker
/// (tools/check_telemetry.py) validates dumped journals against exactly
/// these spellings, so new kinds must be added in both places.
enum class JournalEventKind : std::uint8_t {
  kBatchApplied,    ///< a MutationBatch went through the tracker
  kRepairEmitted,   ///< a maintainer healed the batch
  kRepairDeclined,  ///< a maintainer gave up; reprove follows
  kReprove,         ///< full prover fallback (diff ops applied)
  kPatchFallback,   ///< cached views re-extracted instead of patched
  kLaneDispatch,    ///< work fanned out across worker lanes
  kStoreAdopt,      ///< a BallStore lookup served a full sweep
  kStorePublish,    ///< a sweep published its balls to the store
  kCacheOverflow,   ///< a view cache was abandoned (budget blown)
  kVerdictFlip,     ///< the global verdict changed accept<->reject
  kSpotSample,      ///< a spot-check run sampled k of the dirty pool
  kSpotEscalate,    ///< a sampled rejection/audit forced an exact sweep
  kServerAdmit,     ///< the session server accepted a delta batch
  kServerCoalesce,  ///< queued batches merged into one apply()
  kServerOverload,  ///< a submission bounced off a full admission queue
};

/// Stable lower_snake_case name of a kind ("batch_applied", ...).
const char* journal_kind_name(JournalEventKind kind);

/// One recorded event: a kind, an optional static label (the emitting
/// component, e.g. a maintainer name), and up to four integer arguments
/// keyed by static strings.
struct JournalEvent {
  static constexpr std::size_t kMaxArgs = 4;
  struct Arg {
    const char* key = nullptr;  ///< nullptr = slot unused
    std::int64_t value = 0;
  };

  JournalEventKind kind = JournalEventKind::kBatchApplied;
  const char* label = nullptr;  ///< emitting component; may be null
  std::uint64_t seq = 0;        ///< global order across threads
  std::uint64_t ts_ns = 0;      ///< since the journal's construction
  int tid = 0;                  ///< journal-local thread index
  std::array<Arg, kMaxArgs> args{};

  /// One JSON object (no trailing newline):
  /// {"seq":..,"ts_ns":..,"tid":..,"kind":"..","label":"..","args":{..}}.
  std::string to_json() const;
};

class Journal {
 public:
  /// `per_thread_capacity` bounds each thread's ring (events beyond it
  /// overwrite the oldest).
  explicit Journal(std::size_t per_thread_capacity = 4096);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Records one event on the calling thread's ring.  `label` and every
  /// arg key must be static strings (literals); at most
  /// JournalEvent::kMaxArgs args are kept.
  void emit(JournalEventKind kind, const char* label,
            std::initializer_list<std::pair<const char*, std::int64_t>>
                args = {});

  /// All retained events, merged across threads in seq order.
  std::vector<JournalEvent> events() const;
  /// The most recent `max_events` retained events, seq order.
  std::vector<JournalEvent> tail(std::size_t max_events) const;

  /// Every retained event as one JSON object per line (JSONL).
  std::string to_jsonl() const;

  /// Total events ever emitted (including overwritten ones).
  std::uint64_t total_emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }
  std::size_t per_thread_capacity() const { return capacity_; }
  /// Threads that have emitted at least once.
  std::size_t thread_count() const;

 private:
  struct Ring;

  Ring* ring_for_current_thread();

  const std::chrono::steady_clock::time_point epoch_;
  const std::size_t capacity_;
  const std::uint64_t journal_id_;  // process-unique, never reused
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> emitted_{0};
  mutable std::mutex rings_mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// Null-guarded emit: one branch when journaling is off, exactly like
/// maybe_span (obs/telemetry.hpp).
inline void maybe_emit(Journal* journal, JournalEventKind kind,
                       const char* label,
                       std::initializer_list<
                           std::pair<const char*, std::int64_t>>
                           args = {}) {
  if (journal != nullptr) journal->emit(kind, label, args);
}

}  // namespace lcp::obs

#endif  // LCP_OBS_JOURNAL_HPP_
