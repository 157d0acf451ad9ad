#include "util/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <string_view>

namespace crkhacc::util {

namespace {

std::atomic<std::uint64_t> g_next_recorder_id{1};

thread_local TraceRecorder* tls_current = nullptr;
// One-entry cache mapping this thread to its ring in tls_cache_owner;
// invalidated when the thread emits into a different recorder.
thread_local std::uint64_t tls_cache_owner = 0;
thread_local TraceRecorder::ThreadLog* tls_cache_log = nullptr;

/// Escape a span name for JSON. Names are static literals under our
/// control, so this is belt-and-braces, not a full escaper.
void append_json_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

/// Single-producer ring: the owning thread pushes, flush() consumes.
/// head/tail are free-running counters; release on head publish pairs
/// with acquire on the consumer side (and vice versa for tail) so the
/// slot contents are visible without locks.
struct TraceRecorder::ThreadLog {
  struct Raw {
    const char* name;
    double start;
    double dur;
    std::uint64_t open_seq;
    std::uint32_t depth;
  };

  explicit ThreadLog(std::size_t capacity)
      : ring(capacity == 0 ? 1 : capacity) {}

  std::vector<Raw> ring;
  std::atomic<std::uint64_t> head{0};     ///< Next slot to write.
  std::atomic<std::uint64_t> tail{0};     ///< Next slot to consume.
  std::atomic<std::uint64_t> dropped{0};  ///< Overflow-dropped events.

  std::thread::id owner;
  std::uint32_t tid = 0;

  // Owner-thread span state; never touched by the consumer.
  std::uint32_t open_depth = 0;
  std::uint64_t next_open_seq = 0;

  void push(const Raw& ev) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    if (h - tail.load(std::memory_order_acquire) >= ring.size()) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ring[h % ring.size()] = ev;
    head.store(h + 1, std::memory_order_release);
  }
};

TraceRecorder::TraceRecorder(TraceConfig config)
    : config_(std::move(config)),
      id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {}

TraceRecorder::~TraceRecorder() {
  if (tls_cache_owner == id_) {
    tls_cache_owner = 0;
    tls_cache_log = nullptr;
  }
  if (tls_current == this) tls_current = nullptr;
}

TraceRecorder* TraceRecorder::current() { return tls_current; }

TraceRecorder::Context::Context(TraceRecorder* rec) : prev_(tls_current) {
  tls_current = rec;
}

TraceRecorder::Context::~Context() { tls_current = prev_; }

TraceRecorder::ThreadLog* TraceRecorder::local_log() {
  if (tls_cache_owner == id_) return tls_cache_log;
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(register_mutex_);
  for (auto& log : logs_) {
    if (log->owner == self) {
      tls_cache_owner = id_;
      tls_cache_log = log.get();
      return log.get();
    }
  }
  auto log = std::make_unique<ThreadLog>(config_.buffer_events);
  log->owner = self;
  log->tid = static_cast<std::uint32_t>(logs_.size());
  ThreadLog* raw = log.get();
  logs_.push_back(std::move(log));
  tls_cache_owner = id_;
  tls_cache_log = raw;
  return raw;
}

TraceRecorder::Span::Span(TraceRecorder* rec, const char* name) {
  if (rec == nullptr || !rec->config_.enabled) return;
  rec_ = rec;
  log_ = rec->local_log();
  name_ = name;
  t0_ = rec->epoch_.seconds();
  depth_ = log_->open_depth++;
  open_seq_ = log_->next_open_seq++;
}

TraceRecorder::Span::Span(Span&& other) noexcept
    : rec_(other.rec_),
      log_(other.log_),
      name_(other.name_),
      t0_(other.t0_),
      open_seq_(other.open_seq_),
      depth_(other.depth_) {
  other.rec_ = nullptr;
  other.log_ = nullptr;
}

TraceRecorder::Span& TraceRecorder::Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    close();
    rec_ = other.rec_;
    log_ = other.log_;
    name_ = other.name_;
    t0_ = other.t0_;
    open_seq_ = other.open_seq_;
    depth_ = other.depth_;
    other.rec_ = nullptr;
    other.log_ = nullptr;
  }
  return *this;
}

void TraceRecorder::Span::close() {
  if (log_ == nullptr) return;
  const double dur = rec_->epoch_.seconds() - t0_;
  --log_->open_depth;
  log_->push({name_, t0_, dur, open_seq_, depth_});
  log_ = nullptr;
  rec_ = nullptr;
}

void TraceRecorder::flush(std::uint64_t step) {
  const std::size_t begin = committed_.size();
  std::lock_guard<std::mutex> lock(register_mutex_);
  for (auto& log : logs_) {
    const std::uint64_t head = log->head.load(std::memory_order_acquire);
    std::uint64_t tail = log->tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
      const ThreadLog::Raw& raw = log->ring[tail % log->ring.size()];
      committed_.push_back({raw.name, step, raw.open_seq, raw.start, raw.dur,
                            log->tid, raw.depth});
    }
    log->tail.store(tail, std::memory_order_release);
  }
  // Ring order is push (= close) order; sort each thread's batch by
  // open order so nesting reconstruction is a simple stack walk.
  std::sort(committed_.begin() + static_cast<std::ptrdiff_t>(begin),
            committed_.end(), [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.open_seq < b.open_seq;
            });
  step_ranges_.emplace_back(step, std::make_pair(begin, committed_.size()));
}

std::uint64_t TraceRecorder::events_dropped() const {
  std::lock_guard<std::mutex> lock(register_mutex_);
  std::uint64_t total = 0;
  for (const auto& log : logs_)
    total += log->dropped.load(std::memory_order_relaxed);
  return total;
}

std::size_t TraceRecorder::threads_seen() const {
  std::lock_guard<std::mutex> lock(register_mutex_);
  return logs_.size();
}

double TraceRecorder::total_seconds(const char* name) const {
  double total = 0.0;
  for (const TraceEvent& ev : committed_) {
    if (std::string_view(ev.name) == name) total += ev.dur;
  }
  return total;
}

double TraceRecorder::step_seconds(std::uint64_t step,
                                   const char* name) const {
  double total = 0.0;
  for (const auto& [s, range] : step_ranges_) {
    if (s != step) continue;
    for (std::size_t i = range.first; i < range.second; ++i) {
      if (std::string_view(committed_[i].name) == name)
        total += committed_[i].dur;
    }
  }
  return total;
}

std::vector<PhaseSummary> TraceRecorder::summary() const {
  std::map<std::string, PhaseSummary> by_name;
  for (const TraceEvent& ev : committed_) {
    PhaseSummary& s = by_name[ev.name];
    if (s.count == 0) s.name = ev.name;
    ++s.count;
    s.total_seconds += ev.dur;
    s.max_seconds = std::max(s.max_seconds, ev.dur);
  }
  std::vector<PhaseSummary> out;
  out.reserve(by_name.size());
  for (auto& [name, s] : by_name) out.push_back(std::move(s));
  std::sort(out.begin(), out.end(),
            [](const PhaseSummary& a, const PhaseSummary& b) {
              if (a.total_seconds != b.total_seconds)
                return a.total_seconds > b.total_seconds;
              return a.name < b.name;
            });
  return out;
}

std::string TraceRecorder::summary_table() const {
  const auto rows = summary();
  double grand = 0.0;
  for (const PhaseSummary& r : rows) grand += r.total_seconds;
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-24s %8s %12s %10s %10s %6s\n", "phase",
                "count", "total(s)", "mean(ms)", "max(ms)", "%");
  out << line;
  for (const PhaseSummary& r : rows) {
    std::snprintf(line, sizeof(line),
                  "%-24s %8llu %12.4f %10.3f %10.3f %6.1f\n", r.name.c_str(),
                  static_cast<unsigned long long>(r.count), r.total_seconds,
                  1e3 * r.total_seconds / static_cast<double>(r.count),
                  1e3 * r.max_seconds,
                  grand > 0.0 ? 100.0 * r.total_seconds / grand : 0.0);
    out << line;
  }
  return out.str();
}

std::string TraceRecorder::chrome_events_fragment() const {
  std::string out;
  out.reserve(committed_.size() * 128);
  bool first = true;
  char buf[192];
  for (const TraceEvent& ev : committed_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, ev.name);
    std::snprintf(
        buf, sizeof(buf),
        "\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"step\":%llu,\"depth\":%u,\"seq\":%llu}}",
        rank_, ev.tid, 1e6 * ev.start, 1e6 * ev.dur,
        static_cast<unsigned long long>(ev.step), ev.depth,
        static_cast<unsigned long long>(ev.open_seq));
    out += buf;
  }
  return out;
}

std::string TraceRecorder::chrome_json_document(
    const std::vector<std::string>& fragments) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const std::string& frag : fragments) {
    if (frag.empty()) continue;
    if (!first) out += ",\n";
    first = false;
    out += frag;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace crkhacc::util
