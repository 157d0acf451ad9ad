// Golden-trace regression tests for the step-phase tracing subsystem:
// span recording/nesting, per-thread ring-buffer overflow semantics,
// Chrome trace_event JSON schema validation, and — the load-bearing
// guarantee — span counts and nesting identical for threads=1 vs
// threads=8. The instrumented pipeline
// emits structural spans on the rank thread only, so the trace signature
// is a function of the step structure, never of the scheduler.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "comm/world.h"
#include "core/simulation.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace crkhacc::util {
namespace {

// --- recorder unit tests -----------------------------------------------------

TraceConfig enabled_config(std::size_t buffer_events = 1 << 12) {
  TraceConfig config;
  config.enabled = true;
  config.buffer_events = buffer_events;
  return config;
}

TEST(TraceRecorder, DisabledRecorderRecordsNothing) {
  TraceRecorder rec;  // default config: disabled
  TraceRecorder::Context ctx(&rec);
  {
    HACC_TRACE_SPAN("phase");
    HACC_TRACE_SPAN("inner");
  }
  rec.flush(0);
  EXPECT_EQ(rec.events_recorded(), 0u);
  EXPECT_EQ(rec.events_dropped(), 0u);
  EXPECT_EQ(rec.threads_seen(), 0u);
}

TEST(TraceRecorder, NoContextMeansNoOp) {
  // No recorder installed on this thread: the macro must be inert.
  EXPECT_EQ(TraceRecorder::current(), nullptr);
  HACC_TRACE_SPAN("orphan");
}

TEST(TraceRecorder, RecordsNestedSpansWithDepthAndOrder) {
  TraceRecorder rec(enabled_config());
  TraceRecorder::Context ctx(&rec);
  {
    HACC_TRACE_SPAN("step");
    {
      HACC_TRACE_SPAN("long_range");
      { HACC_TRACE_SPAN("fft"); }
    }
    { HACC_TRACE_SPAN("short_range"); }
  }
  rec.flush(7);
  const auto& events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // flush() orders by open_seq: step, long_range, fft, short_range.
  EXPECT_STREQ(events[0].name, "step");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_STREQ(events[1].name, "long_range");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_STREQ(events[2].name, "fft");
  EXPECT_EQ(events[2].depth, 2u);
  EXPECT_STREQ(events[3].name, "short_range");
  EXPECT_EQ(events[3].depth, 1u);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.step, 7u);
    EXPECT_EQ(ev.tid, 0u);
    EXPECT_GE(ev.dur, 0.0);
  }
  // Parent spans cover their children.
  EXPECT_LE(events[0].start, events[1].start);
  EXPECT_GE(events[0].start + events[0].dur,
            events[1].start + events[1].dur);
}

TEST(TraceRecorder, StepSecondsAttributesToFlushedStep) {
  TraceRecorder rec(enabled_config());
  TraceRecorder::Context ctx(&rec);
  { HACC_TRACE_SPAN("a"); }
  rec.flush(0);
  { HACC_TRACE_SPAN("a"); }
  { HACC_TRACE_SPAN("a"); }
  rec.flush(1);
  EXPECT_GT(rec.step_seconds(0, "a"), 0.0);
  EXPECT_GT(rec.step_seconds(1, "a"), 0.0);
  EXPECT_EQ(rec.step_seconds(2, "a"), 0.0);
  const auto summary = rec.summary();
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].count, 3u);
  EXPECT_NEAR(summary[0].total_seconds, rec.total_seconds("a"), 1e-12);
}

TEST(TraceRecorder, OpenSpanLandsInNextFlush) {
  TraceRecorder rec(enabled_config());
  TraceRecorder::Context ctx(&rec);
  {
    HACC_TRACE_SPAN("outer");
    { HACC_TRACE_SPAN("inner"); }
    rec.flush(0);  // "outer" still open: only "inner" commits
    EXPECT_EQ(rec.events_recorded(), 1u);
    EXPECT_STREQ(rec.events()[0].name, "inner");
  }
  rec.flush(1);
  ASSERT_EQ(rec.events_recorded(), 2u);
  EXPECT_STREQ(rec.events()[1].name, "outer");
  EXPECT_EQ(rec.events()[1].step, 1u);
}

// --- ring overflow -----------------------------------------------------------

TEST(TraceRecorder, OverflowDropsNewestAndCounts) {
  TraceRecorder rec(enabled_config(/*buffer_events=*/8));
  TraceRecorder::Context ctx(&rec);
  for (int i = 0; i < 100; ++i) {
    HACC_TRACE_SPAN("tick");
  }
  EXPECT_EQ(rec.events_dropped(), 92u);
  rec.flush(0);
  // Drop-newest: the first 8 events survive, uncorrupted.
  ASSERT_EQ(rec.events_recorded(), 8u);
  for (const auto& ev : rec.events()) {
    EXPECT_STREQ(ev.name, "tick");
    EXPECT_EQ(ev.depth, 0u);
    EXPECT_GE(ev.dur, 0.0);
  }
  // Sequence numbers are the first eight opens in order.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rec.events()[i].open_seq, i);
  }
  // The ring recovers after a flush frees space.
  { HACC_TRACE_SPAN("after"); }
  rec.flush(1);
  EXPECT_EQ(rec.events_recorded(), 9u);
  EXPECT_STREQ(rec.events().back().name, "after");
}

TEST(TraceRecorder, ThreadedOverflowNeverCorrupts) {
  // Hammer tiny per-thread rings from pool workers; accounting must
  // balance exactly and committed events must be intact.
  TraceRecorder rec(enabled_config(/*buffer_events=*/16));
  util::ThreadPool pool(4);
  constexpr std::size_t kChunks = 256;
  pool.parallel_for(0, kChunks, 1,
                    [&](std::size_t lo, std::size_t hi, std::size_t) {
                      for (std::size_t i = lo; i < hi; ++i) {
                        auto span = rec.span("chunk");
                      }
                    });
  rec.flush(0);
  EXPECT_EQ(rec.events_recorded() + rec.events_dropped(), kChunks);
  EXPECT_GT(rec.events_dropped(), 0u);  // 16-slot rings must overflow
  for (const auto& ev : rec.events()) {
    EXPECT_STREQ(ev.name, "chunk");
    EXPECT_LT(ev.tid, rec.threads_seen());
  }
}

TEST(TraceRecorder, WorkerSpanCountIndependentOfThreadCount) {
  // ThreadPool chunk decomposition is fixed by (n, grain), so per-chunk
  // spans are deterministic in count for any thread count.
  std::vector<std::uint64_t> counts;
  for (unsigned threads : {1u, 2u, 8u}) {
    TraceRecorder rec(enabled_config());
    util::ThreadPool pool(threads);
    pool.parallel_for(0, 1000, 64,
                      [&](std::size_t, std::size_t, std::size_t) {
                        auto span = rec.span("chunk");
                      });
    rec.flush(0);
    EXPECT_EQ(rec.events_dropped(), 0u);
    counts.push_back(rec.events_recorded());
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0], counts[2]);
}

// --- Chrome JSON schema ------------------------------------------------------

/// Minimal recursive-descent JSON parser: enough to validate that the
/// export is well-formed JSON and walk its structure (no external deps).
class JsonLite {
 public:
  struct Value {
    enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
    double number = 0.0;
    bool boolean = false;
    std::string str;
    std::vector<Value> array;
    std::map<std::string, Value> object;
  };

  static bool parse(const std::string& text, Value& out) {
    JsonLite p(text);
    if (!p.value(out)) return false;
    p.skip_ws();
    return p.pos_ == text.size();
  }

 private:
  explicit JsonLite(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool literal(const char* s, std::size_t len) {
    if (text_.compare(pos_, len, s) != 0) return false;
    pos_ += len;
    return true;
  }
  bool value(Value& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out.kind = Value::kString;
      return string(out.str);
    }
    if (c == 't') {
      out.kind = Value::kBool;
      out.boolean = true;
      return literal("true", 4);
    }
    if (c == 'f') {
      out.kind = Value::kBool;
      return literal("false", 5);
    }
    if (c == 'n') return literal("null", 4);
    return number(out);
  }
  bool number(Value& out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.kind = Value::kNumber;
    out.number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }
  bool string(std::string& out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      out.push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool array(Value& out) {
    out.kind = Value::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Value element;
      if (!value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool object(Value& out) {
    out.kind = Value::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || !string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      Value element;
      if (!value(element)) return false;
      out.object.emplace(std::move(key), std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(TraceExport, ChromeJsonMatchesSchema) {
  TraceRecorder rec(enabled_config());
  rec.set_rank(3);
  TraceRecorder::Context ctx(&rec);
  {
    HACC_TRACE_SPAN("step");
    { HACC_TRACE_SPAN("long_range"); }
  }
  rec.flush(5);

  const std::string doc =
      TraceRecorder::chrome_json_document({rec.chrome_events_fragment()});
  JsonLite::Value root;
  ASSERT_TRUE(JsonLite::parse(doc, root)) << doc;
  ASSERT_EQ(root.kind, JsonLite::Value::kObject);
  ASSERT_TRUE(root.object.count("traceEvents"));
  ASSERT_TRUE(root.object.count("displayTimeUnit"));
  const auto& events = root.object["traceEvents"];
  ASSERT_EQ(events.kind, JsonLite::Value::kArray);
  ASSERT_EQ(events.array.size(), 2u);
  for (const auto& ev : events.array) {
    ASSERT_EQ(ev.kind, JsonLite::Value::kObject);
    // Required trace_event keys for a complete ("X") event.
    for (const char* key : {"name", "ph", "pid", "tid", "ts", "dur", "args"}) {
      EXPECT_TRUE(ev.object.count(key)) << "missing key " << key;
    }
    EXPECT_EQ(ev.object.at("ph").str, "X");
    EXPECT_EQ(ev.object.at("pid").number, 3.0);
    EXPECT_GE(ev.object.at("dur").number, 0.0);
    const auto& args = ev.object.at("args");
    ASSERT_EQ(args.kind, JsonLite::Value::kObject);
    for (const char* key : {"step", "depth", "seq"}) {
      EXPECT_TRUE(args.object.count(key)) << "missing args key " << key;
    }
    EXPECT_EQ(args.object.at("step").number, 5.0);
  }
  // Empty recorder still produces a valid document.
  TraceRecorder empty(enabled_config());
  JsonLite::Value empty_root;
  ASSERT_TRUE(JsonLite::parse(
      TraceRecorder::chrome_json_document({empty.chrome_events_fragment()}),
      empty_root));
  EXPECT_EQ(empty_root.object["traceEvents"].array.size(), 0u);
}

TEST(TraceExport, EscapesHostileNames) {
  TraceRecorder rec(enabled_config());
  TraceRecorder::Context ctx(&rec);
  { auto span = rec.span("quote\"back\\slash"); }
  rec.flush(0);
  JsonLite::Value root;
  ASSERT_TRUE(JsonLite::parse(
      TraceRecorder::chrome_json_document({rec.chrome_events_fragment()}),
      root));
  EXPECT_EQ(root.object["traceEvents"].array[0].object.at("name").str,
            "quote\"back\\slash");
}

}  // namespace
}  // namespace crkhacc::util

// --- golden traces from the instrumented pipeline ---------------------------

namespace crkhacc::core {
namespace {

SimConfig trace_config() {
  SimConfig config;
  config.np = 8;
  config.box = 24.0;
  config.ng = 16;
  config.z_init = 20.0;
  config.z_final = 12.0;
  config.num_pm_steps = 2;
  config.hydro = true;
  config.subgrid_on = true;
  // Shallow bins keep the suite fast; substep structure is still
  // exercised (2^depth substeps with per-substep spans).
  config.bins.max_depth = 2;
  config.seed = 99;
  config.trace.enabled = true;
  return config;
}

/// The golden signature: the ordered (name, depth, step) sequence of
/// rank-thread spans. Timing-free, so it must be bit-identical across
/// thread counts and launch schedules.
using Signature = std::vector<std::tuple<std::string, std::uint32_t,
                                         std::uint64_t>>;

Signature run_and_sign(const SimConfig& config) {
  Signature signature;
  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    SimContext ctx(config.threads);
    Simulation sim(ctx, comm, config);
    sim.initialize();
    for (int s = 0; s < config.num_pm_steps; ++s) {
      const auto report = sim.step();
      EXPECT_FALSE(report.phases.empty());
    }
    EXPECT_EQ(sim.trace().events_dropped(), 0u);
    for (const auto& ev : sim.trace().events()) {
      EXPECT_EQ(ev.tid, 0u);  // product spans are rank-thread only
      signature.emplace_back(ev.name, ev.depth, ev.step);
    }
  });
  return signature;
}

TEST(GoldenTrace, SpanCountsAndNestingIdenticalAcrossThreadCounts) {
  auto config = trace_config();
  config.threads = 1;
  const auto serial = run_and_sign(config);
  ASSERT_FALSE(serial.empty());
  config.threads = 8;
  const auto threaded = run_and_sign(config);
  EXPECT_EQ(serial, threaded);
}

TEST(GoldenTrace, StructuralSpansMatchStepReport) {
  auto config = trace_config();
  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    SimContext ctx(config.threads);
    Simulation sim(ctx, comm, config);
    sim.initialize();
    const auto report = sim.step();
    const auto& trace = sim.trace();
    // One "step" span, one of each once-per-step phase, and exactly
    // 2^depth "substep" spans.
    std::map<std::string, std::uint64_t> counts;
    for (const auto& ev : trace.events()) ++counts[ev.name];
    EXPECT_EQ(counts["step"], 1u);
    EXPECT_EQ(counts["exchange"], 1u);
    EXPECT_EQ(counts["long_range"], 1u);
    EXPECT_EQ(counts["bin_assign"], 1u);
    EXPECT_EQ(counts["substep"], report.substeps);
    EXPECT_EQ(counts["short_range"], report.substeps);
    EXPECT_EQ(counts["fft_forward"], 1u);
    EXPECT_EQ(counts["fft_backward"], 3u);
    EXPECT_EQ(counts["pm_gradient"], 3u);
    // Imbalance stats cover the canonical phases that ran.
    bool saw_short_range = false;
    for (const auto& phase : report.phases) {
      EXPECT_GT(phase.max_seconds, 0.0);
      EXPECT_GE(phase.imbalance(), 1.0 - 1e-9);
      if (phase.name == "short_range") saw_short_range = true;
    }
    EXPECT_TRUE(saw_short_range);
  });
}

TEST(GoldenTrace, TracingOffLeavesPhysicsAndReportsUnchanged) {
  // Same run with tracing on and off: physics must be bitwise identical
  // and the traced-off report must carry no phase stats.
  auto config = trace_config();
  std::vector<float> traced_x, plain_x;
  std::uint64_t traced_events = 0;
  for (bool enabled : {true, false}) {
    config.trace.enabled = enabled;
    comm::World world(1);
    world.run([&](comm::Communicator& comm) {
      SimContext ctx(config.threads);
      Simulation sim(ctx, comm, config);
      sim.initialize();
      for (int s = 0; s < config.num_pm_steps; ++s) {
        const auto report = sim.step();
        EXPECT_EQ(report.phases.empty(), !enabled);
      }
      if (enabled) {
        traced_x = sim.particles().x;
        traced_events = sim.trace().events_recorded();
      } else {
        plain_x = sim.particles().x;
        EXPECT_EQ(sim.trace().events_recorded(), 0u);
      }
    });
  }
  EXPECT_GT(traced_events, 0u);
  EXPECT_EQ(traced_x, plain_x);
}

}  // namespace
}  // namespace crkhacc::core
