#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> t_open;

}  // namespace

std::int64_t SpanLog::open(const std::string& name, int tid,
                           const std::string& run) {
  Span span;
  span.name = name;
  span.start = now();
  span.parent = t_open.empty() ? -1 : t_open.back();
  span.tid = tid;
  span.run = run;
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  t_open.push_back(id);
  return id;
}

void SpanLog::close(std::int64_t id) {
  const double end = now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = end;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

std::int64_t SpanLog::add(const std::string& name, double start, double end,
                          std::int64_t parent, int tid,
                          const std::string& run) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, parent, tid, run});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanLog::write_json(const std::string& path) const {
  const auto all = spans();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char line[160];
    std::snprintf(line, sizeof line,
                  "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,",
                  i == 0 ? "" : ",\n", s.tid, s.start * 1e6,
                  std::max(0.0, s.end - s.start) * 1e6);
    out << line << "\"name\":\"" << s.name << "\",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"run\":\"" << s.run << "\"}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

SpanLog::Adopt::Adopt(std::int64_t parent) { t_open.push_back(parent); }

SpanLog::Adopt::~Adopt() {
  if (!t_open.empty()) t_open.pop_back();
}

std::vector<double> self_times(const std::vector<SpanLog::Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : kids) {
      const double ca = std::max(a, spans[i].start);
      const double cb = std::min(b, spans[i].end);
      if (cb <= ca) continue;
      if (ca > hi) {
        if (hi > lo) covered += hi - lo;
        lo = ca;
        hi = cb;
      } else {
        hi = std::max(hi, cb);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[i] = std::max(0.0, spans[i].end - spans[i].start - covered);
  }
  return self;
}

void LayerStats::add(const std::string& name, std::int64_t seq, double value,
                     Reduce how) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& s = series_[name];
  s.how = how;
  s.points[seq].push_back(value);
}

double LayerStats::median(const std::string& name) const {
  return perfbench::median(values(name));
}

std::vector<double> LayerStats::values(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> reduced;
  const auto it = series_.find(name);
  if (it == series_.end()) return reduced;
  for (const auto& [seq, values] : it->second.points) {
    double v = 0.0;
    switch (it->second.how) {
      case Reduce::kMax:
        v = *std::max_element(values.begin(), values.end());
        break;
      case Reduce::kSum:
        v = std::accumulate(values.begin(), values.end(), 0.0);
        break;
      case Reduce::kMean:
        v = std::accumulate(values.begin(), values.end(), 0.0) /
            static_cast<double>(values.size());
        break;
    }
    reduced.push_back(v);
  }
  return reduced;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::pair<double, double> tail(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= 10) return {values.back(), 100.0};
  return {values[n - 11], 100.0 * static_cast<double>(n - 10) /
                              static_cast<double>(n)};
}

void check_conservation(const std::string& what,
                        const crkhacc::core::ConservationSnapshot& before,
                        const crkhacc::core::ConservationSnapshot& after,
                        const StateCheck& tol,
                        std::vector<std::string>& failures) {
  if (after.count != before.count) failures.push_back(what + ".particle_count");
  if (!(std::abs(crkhacc::core::mass_drift(before, after)) <= tol.mass_tol)) {
    failures.push_back(what + ".mass_drift");
  }
  double dp = 0.0;
  for (int d = 0; d < 3; ++d) {
    const double delta = after.momentum[d] - before.momentum[d];
    dp += delta * delta;
  }
  const double scale = std::max(before.abs_momentum, after.abs_momentum);
  if (!(scale > 0.0 && std::sqrt(dp) / scale <= tol.momentum_tol)) {
    failures.push_back(what + ".momentum_drift");
  }
}

void StateGather::add_owned(const crkhacc::Particles& particles) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < particles.size(); ++i) {
    if (particles.is_owned(i)) all_.append_from(particles, i);
  }
}

crkhacc::Particles StateGather::sorted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::size_t> order(all_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return all_.id[a] < all_.id[b];
  });
  crkhacc::Particles out;
  out.reserve(order.size());
  for (const std::size_t i : order) out.append_from(all_, i);
  return out;
}

bool StateGather::finite() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < all_.size(); ++i) {
    const float fields[] = {all_.x[i],  all_.y[i],    all_.z[i],
                            all_.vx[i], all_.vy[i],   all_.vz[i],
                            all_.mass[i], all_.u[i],  all_.rho[i],
                            all_.hsml[i]};
    for (const float f : fields) {
      if (!std::isfinite(f)) return false;
    }
  }
  return true;
}

std::uint64_t digest_sorted(const crkhacc::Particles& p, std::uint64_t h) {
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < p.size(); ++i) {
    const float fields[] = {p.x[i],  p.y[i],  p.z[i],    p.vx[i],
                            p.vy[i], p.vz[i], p.mass[i], p.u[i]};
    mix(&p.id[i], sizeof(p.id[i]));
    mix(fields, sizeof fields);
    mix(&p.species[i], sizeof(p.species[i]));
  }
  return h;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
