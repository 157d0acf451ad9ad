// Step-phase tracing: hierarchical scoped spans with thread and rank
// attribution.
//
// The paper's capability claims rest on per-phase utilization and load
// balance (the Fig. 6 node-utilization breakdown and the figure-of-merit
// accounting for the Frontier-E run). This recorder provides the timeline
// those numbers come from: every phase of a PM step opens a span, spans
// nest, and each span is stamped with the thread that ran it and the rank
// that owns the recorder.
//
// Hot-path contract:
//   - Recording a span touches only a per-thread single-producer ring
//     buffer: no locks, no allocation, two atomic ops per span close.
//   - Memory is bounded by `buffer_events` per thread. When a ring is
//     full the newest event is dropped and counted; existing events are
//     never corrupted.
//   - When tracing is disabled (or no recorder is installed on the
//     thread), HACC_TRACE_SPAN is a thread-local load and a null check.
//
// Rings are drained by flush(step), which the simulation calls at the
// end of each PM step — a quiescent point where no worker threads are
// emitting. Committed events are tagged with the step index and can be
// exported as Chrome/Perfetto trace_event JSON (chrome://tracing,
// ui.perfetto.dev) or summarized as a per-phase table.
//
// Determinism: span *counts and nesting* on the rank thread depend only
// on the step structure (phases, substep count, kernel passes), never on
// thread count or tile engine — the golden-trace tests in
// tests/test_trace.cpp pin the thread-count half. Worker threads may also emit spans
// (each into its own ring); their counts are deterministic whenever the
// emitting loop is (ThreadPool's fixed chunk decomposition).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/timer.h"

namespace crkhacc::util {

struct TraceConfig {
  /// Master switch. Off: spans are no-ops, flush/export are empty, and
  /// the simulation performs no trace-related collectives, so physics
  /// and comm-op counts are bitwise identical to an untraced run.
  bool enabled = false;
  /// Per-thread ring capacity in events. Bounds hot-path memory at
  /// sizeof(event) * buffer_events * threads; overflow drops the newest
  /// event and counts it.
  std::size_t buffer_events = 1 << 15;
};

/// One committed (flushed) span.
struct TraceEvent {
  const char* name;        ///< Static phase name (never owned).
  std::uint64_t step;      ///< PM step the span was flushed under.
  std::uint64_t open_seq;  ///< Per-thread span-open order (0-based).
  double start;            ///< Seconds since the recorder's epoch.
  double dur;              ///< Span duration in seconds.
  std::uint32_t tid;       ///< Recorder-local thread index (0 = first).
  std::uint32_t depth;     ///< Nesting depth on the emitting thread.
};

/// Aggregated view of one span name across all committed events.
struct PhaseSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(TraceConfig config = {});
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return config_.enabled; }
  const TraceConfig& config() const { return config_; }

  /// Rank stamped into exported events (`pid` in Chrome JSON).
  void set_rank(int rank) { rank_ = rank; }
  int rank() const { return rank_; }

  /// Recorder installed on the current thread (null = tracing off here).
  static TraceRecorder* current();

  /// RAII: install `rec` as the current thread's recorder. Pass null to
  /// force spans off for the scope. Restores the previous recorder on
  /// destruction; nests.
  class Context {
   public:
    explicit Context(TraceRecorder* rec);
    ~Context();
    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

   private:
    TraceRecorder* prev_;
  };

  struct ThreadLog;  // opaque per-thread ring

  /// RAII span. Opens on construction, records on destruction (or
  /// close()). Default-constructed and moved-from spans are inert.
  /// Spans must close in LIFO order per thread (i.e. be scoped).
  class Span {
   public:
    Span() = default;
    Span(TraceRecorder* rec, const char* name);
    Span(Span&& other) noexcept;
    Span& operator=(Span&& other) noexcept;
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void close();

   private:
    TraceRecorder* rec_ = nullptr;
    ThreadLog* log_ = nullptr;
    const char* name_ = nullptr;
    double t0_ = 0.0;
    std::uint64_t open_seq_ = 0;
    std::uint32_t depth_ = 0;
  };

  /// Open a span on the calling thread without going through the
  /// thread-local context (worker threads in tests, ad-hoc callers).
  Span span(const char* name) { return Span(this, name); }

  /// Drain every thread's ring into the committed store, tagging events
  /// with `step`. Call at quiescent points (end of a PM step); safe to
  /// run concurrently with producers, but spans still open at flush
  /// time land in the *next* flush.
  void flush(std::uint64_t step);

  /// Committed events, in flush order (per flush: by tid, then open_seq).
  const std::vector<TraceEvent>& events() const { return committed_; }
  std::uint64_t events_recorded() const { return committed_.size(); }
  /// Total events dropped to ring overflow across all threads.
  std::uint64_t events_dropped() const;
  /// Number of distinct threads that have emitted at least one span.
  std::size_t threads_seen() const;

  /// Sum of committed durations for `name`; all steps, or one step.
  double total_seconds(const char* name) const;
  double step_seconds(std::uint64_t step, const char* name) const;

  /// Per-name aggregation over all committed events, sorted by
  /// descending total time (ties by name).
  std::vector<PhaseSummary> summary() const;
  /// Human-readable per-phase table of summary().
  std::string summary_table() const;

  /// Chrome trace_event objects for this rank, comma-joined (no
  /// enclosing brackets) — one fragment per rank, composable across
  /// ranks with chrome_json_document().
  std::string chrome_events_fragment() const;
  /// Wrap rank fragments into a complete Chrome JSON document.
  static std::string chrome_json_document(
      const std::vector<std::string>& fragments);

 private:
  ThreadLog* local_log();

  TraceConfig config_;
  int rank_ = 0;
  std::uint64_t id_ = 0;  ///< Process-unique, validates the TLS cache.
  Stopwatch epoch_;

  mutable std::mutex register_mutex_;  ///< Guards logs_ growth only.
  std::vector<std::unique_ptr<ThreadLog>> logs_;

  std::vector<TraceEvent> committed_;
  /// (step, [begin,end) into committed_) per flush, for step_seconds().
  std::vector<std::pair<std::uint64_t, std::pair<std::size_t, std::size_t>>>
      step_ranges_;

  friend class Span;
};

}  // namespace crkhacc::util

#define HACC_TRACE_CONCAT2(a, b) a##b
#define HACC_TRACE_CONCAT(a, b) HACC_TRACE_CONCAT2(a, b)

/// Scoped span on the current thread's recorder; no-op when none is
/// installed. `name` must be a string literal (or otherwise outlive the
/// recorder).
#define HACC_TRACE_SPAN(name)                                        \
  ::crkhacc::util::TraceRecorder::Span HACC_TRACE_CONCAT(            \
      hacc_trace_span_, __LINE__)(                                   \
      ::crkhacc::util::TraceRecorder::current(), (name))
