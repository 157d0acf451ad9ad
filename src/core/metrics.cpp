#include "core/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "comm/world.h"
#include "util/assertions.h"

namespace crkhacc::core {

void MetricsRegistry::add(const std::string& name, double delta) {
  MetricValue& m = metrics_[name];
  m.kind = MetricKind::kCounter;
  m.total += delta;
  ++m.samples;
}

void MetricsRegistry::observe(const std::string& name, double value) {
  auto [it, inserted] = metrics_.try_emplace(name);
  MetricValue& m = it->second;
  m.kind = MetricKind::kGauge;
  if (inserted || m.samples == 0) {
    m.min = value;
    m.max = value;
  } else {
    m.min = std::min(m.min, value);
    m.max = std::max(m.max, value);
  }
  m.total += value;
  ++m.samples;
}

const MetricValue* MetricsRegistry::find(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : &it->second;
}

double MetricsRegistry::value(const std::string& name) const {
  const MetricValue* m = find(name);
  return m == nullptr ? 0.0 : m->total;
}

std::vector<std::pair<std::string, MetricValue>> MetricsRegistry::sorted()
    const {
  return {metrics_.begin(), metrics_.end()};
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, theirs] : other.metrics_) {
    auto [it, inserted] = metrics_.try_emplace(name, theirs);
    if (inserted) continue;
    MetricValue& mine = it->second;
    CHECK(mine.kind == theirs.kind);
    if (mine.kind == MetricKind::kGauge) {
      if (theirs.samples > 0) {
        if (mine.samples == 0) {
          mine.min = theirs.min;
          mine.max = theirs.max;
        } else {
          mine.min = std::min(mine.min, theirs.min);
          mine.max = std::max(mine.max, theirs.max);
        }
      }
    }
    mine.total += theirs.total;
    mine.samples += theirs.samples;
  }
}

void MetricsRegistry::ingest_timers(const TimerRegistry& timers,
                                    const std::string& prefix) {
  for (const auto& [name, seconds] : timers.sorted())
    add(prefix + name, seconds);
}

void MetricsRegistry::ingest_flops(const gpu::FlopRegistry& flops,
                                   const std::string& prefix) {
  for (const auto& [kernel, f, seconds] : flops.sorted()) {
    add(prefix + kernel, f);
    add(prefix + kernel + "_seconds", seconds);
  }
}

void MetricsRegistry::ingest_histogram(const std::string& name,
                                       const Histogram& hist) {
  if (hist.count() == 0) return;
  MetricValue& m = metrics_[name];
  const MetricValue fold{MetricKind::kGauge,
                         hist.mean() * static_cast<double>(hist.count()),
                         hist.min(), hist.max(), hist.count()};
  if (m.samples == 0) {
    m = fold;
  } else {
    CHECK(m.kind == MetricKind::kGauge);
    m.min = std::min(m.min, fold.min);
    m.max = std::max(m.max, fold.max);
    m.total += fold.total;
    m.samples += fold.samples;
  }
}

void MetricsRegistry::ingest_trace(const util::TraceRecorder& trace,
                                   const std::string& prefix) {
  for (const util::PhaseSummary& s : trace.summary()) {
    add(prefix + s.name + "_seconds", s.total_seconds);
    add(prefix + s.name + "_spans", static_cast<double>(s.count));
  }
  add(prefix + "events", static_cast<double>(trace.events_recorded()));
  add(prefix + "dropped", static_cast<double>(trace.events_dropped()));
}

MetricsRegistry MetricsRegistry::reduce(comm::Communicator& comm) const {
  // Union of metric names across ranks, in name order on every rank.
  std::string names_blob;
  for (const auto& [name, m] : metrics_) {
    names_blob += name;
    names_blob.push_back(m.kind == MetricKind::kCounter ? '\x01' : '\x02');
    names_blob.push_back('\n');
  }
  std::vector<std::uint8_t> mine(names_blob.begin(), names_blob.end());
  const auto gathered = comm.allgather(mine);

  std::map<std::string, MetricKind> names;
  for (const auto& blob : gathered) {
    std::size_t start = 0;
    for (std::size_t i = 0; i < blob.size(); ++i) {
      if (blob[i] != '\n') continue;
      // Entry is "<name><kind-byte>"; the kind byte precedes '\n'.
      CHECK(i > start);
      const std::string name(blob.begin() + static_cast<std::ptrdiff_t>(start),
                             blob.begin() + static_cast<std::ptrdiff_t>(i) - 1);
      const MetricKind kind =
          blob[i - 1] == '\x01' ? MetricKind::kCounter : MetricKind::kGauge;
      auto [it, inserted] = names.try_emplace(name, kind);
      CHECK(it->second == kind);  // kinds must agree across ranks
      start = i + 1;
    }
  }

  // Element-wise reductions over the ordered union. Absent metrics
  // contribute identity values (0 for sums, +/-inf stand-ins handled by
  // a presence-weighted min/max trick: absent ranks send the union-wide
  // neutral by using their own min=+max_double etc.).
  const std::size_t n = names.size();
  std::vector<double> sums(2 * n, 0.0);  // [total..., samples...]
  std::vector<double> mins(n, std::numeric_limits<double>::max());
  std::vector<double> maxs(n, std::numeric_limits<double>::lowest());
  std::size_t i = 0;
  for (const auto& [name, kind] : names) {
    if (const MetricValue* m = find(name); m != nullptr) {
      sums[i] = m->total;
      sums[n + i] = static_cast<double>(m->samples);
      if (kind == MetricKind::kGauge && m->samples > 0) {
        mins[i] = m->min;
        maxs[i] = m->max;
      }
    }
    ++i;
  }
  comm.allreduce(std::span<double>(sums), comm::ReduceOp::kSum);
  comm.allreduce(std::span<double>(mins), comm::ReduceOp::kMin);
  comm.allreduce(std::span<double>(maxs), comm::ReduceOp::kMax);

  MetricsRegistry out;
  i = 0;
  for (const auto& [name, kind] : names) {
    MetricValue m;
    m.kind = kind;
    m.total = sums[i];
    m.samples = static_cast<std::uint64_t>(sums[n + i] + 0.5);
    if (kind == MetricKind::kGauge && m.samples > 0) {
      m.min = mins[i];
      m.max = maxs[i];
    }
    out.metrics_.emplace(name, m);
    ++i;
  }
  return out;
}

std::string MetricsRegistry::table() const {
  std::ostringstream out;
  char line[192];
  std::snprintf(line, sizeof(line), "%-40s %8s %16s %12s %12s %12s\n",
                "metric", "kind", "total", "mean", "min", "max");
  out << line;
  for (const auto& [name, m] : metrics_) {
    if (m.kind == MetricKind::kCounter) {
      std::snprintf(line, sizeof(line), "%-40s %8s %16.6g\n", name.c_str(),
                    "counter", m.total);
    } else {
      std::snprintf(line, sizeof(line),
                    "%-40s %8s %16.6g %12.6g %12.6g %12.6g\n", name.c_str(),
                    "gauge", m.total, m.mean(), m.min, m.max);
    }
    out << line;
  }
  return out.str();
}

}  // namespace crkhacc::core
