// MetricsRegistry unit + determinism tests: counter/gauge semantics,
// merge order-independence, ingest adapters for the existing
// instruments, the collective rank reduce, and the threaded
// per-worker-registry fold pattern.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/world.h"
#include "core/metrics.h"
#include "gpu/device.h"
#include "util/histogram.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace crkhacc::core {
namespace {

TEST(MetricsRegistry, CounterAccumulates) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.find("missing"), nullptr);
  EXPECT_EQ(reg.value("missing"), 0.0);
  reg.add("events", 3.0);
  reg.add("events", 2.0);
  const MetricValue* m = reg.find("events");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kCounter);
  EXPECT_EQ(m->total, 5.0);
  EXPECT_EQ(m->samples, 2u);
  EXPECT_EQ(reg.value("events"), 5.0);
}

TEST(MetricsRegistry, GaugeTracksMinMaxMean) {
  MetricsRegistry reg;
  reg.observe("util", 0.5);
  reg.observe("util", 0.9);
  reg.observe("util", 0.1);
  const MetricValue* m = reg.find("util");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kGauge);
  EXPECT_EQ(m->min, 0.1);
  EXPECT_EQ(m->max, 0.9);
  EXPECT_EQ(m->samples, 3u);
  EXPECT_NEAR(m->mean(), 0.5, 1e-15);
}

TEST(MetricsRegistry, SortedIsNameOrdered) {
  MetricsRegistry reg;
  reg.add("zeta", 1.0);
  reg.add("alpha", 1.0);
  reg.observe("mid", 2.0);
  const auto rows = reg.sorted();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "alpha");
  EXPECT_EQ(rows[1].first, "mid");
  EXPECT_EQ(rows[2].first, "zeta");
  EXPECT_TRUE(std::is_sorted(
      rows.begin(), rows.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

/// Build K registries with overlapping and disjoint names, then fold
/// them in every order permutation — the result must be identical.
TEST(MetricsRegistry, MergeIsOrderIndependent) {
  std::vector<MetricsRegistry> parts(4);
  for (int i = 0; i < 4; ++i) {
    parts[i].add("shared_counter", 1.0 + i);
    parts[i].observe("shared_gauge", 0.25 * (i + 1));
    parts[i].add("only_" + std::to_string(i), 7.0);
  }

  std::vector<int> order = {0, 1, 2, 3};
  std::vector<std::pair<std::string, MetricValue>> reference;
  do {
    MetricsRegistry folded;
    for (int i : order) folded.merge(parts[i]);
    const auto rows = folded.sorted();
    if (reference.empty()) {
      reference = rows;
      // Sanity-check the reference itself.
      EXPECT_EQ(folded.value("shared_counter"), 1.0 + 2.0 + 3.0 + 4.0);
      const MetricValue* g = folded.find("shared_gauge");
      ASSERT_NE(g, nullptr);
      EXPECT_EQ(g->min, 0.25);
      EXPECT_EQ(g->max, 1.0);
      EXPECT_EQ(g->samples, 4u);
      continue;
    }
    ASSERT_EQ(rows.size(), reference.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      EXPECT_EQ(rows[k].first, reference[k].first);
      EXPECT_EQ(rows[k].second.kind, reference[k].second.kind);
      // Bitwise equality: the folds must not reassociate sums.
      EXPECT_EQ(rows[k].second.total, reference[k].second.total);
      EXPECT_EQ(rows[k].second.min, reference[k].second.min);
      EXPECT_EQ(rows[k].second.max, reference[k].second.max);
      EXPECT_EQ(rows[k].second.samples, reference[k].second.samples);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(MetricsRegistry, IngestTimersAndFlops) {
  TimerRegistry timers;
  timers.add("short_range", 2.0);
  timers.add("long_range", 1.0);
  gpu::FlopRegistry flops;
  flops.add("sph_density", 1e9, 0.5);

  MetricsRegistry reg;
  reg.ingest_timers(timers);
  reg.ingest_flops(flops);
  EXPECT_EQ(reg.value("time/short_range"), 2.0);
  EXPECT_EQ(reg.value("time/long_range"), 1.0);
  EXPECT_EQ(reg.value("flops/sph_density"), 1e9);
  EXPECT_EQ(reg.value("flops/sph_density_seconds"), 0.5);
}

TEST(MetricsRegistry, IngestHistogramAndTrace) {
  Histogram hist(0.0, 1.0, 10);
  hist.add(0.2);
  hist.add(0.8);

  util::TraceConfig tc;
  tc.enabled = true;
  util::TraceRecorder trace(tc);
  {
    util::TraceRecorder::Context ctx(&trace);
    HACC_TRACE_SPAN("phase_a");
    { HACC_TRACE_SPAN("phase_a"); }
  }
  trace.flush(0);

  MetricsRegistry reg;
  reg.ingest_histogram("imbalance", hist);
  reg.ingest_trace(trace);
  const MetricValue* h = reg.find("imbalance");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, MetricKind::kGauge);
  EXPECT_EQ(h->samples, 2u);
  EXPECT_EQ(h->min, 0.2);
  EXPECT_EQ(h->max, 0.8);
  EXPECT_EQ(reg.value("trace/phase_a_spans"), 2.0);
  EXPECT_GT(reg.value("trace/phase_a_seconds"), 0.0);
  EXPECT_EQ(reg.value("trace/events"), 2.0);
  EXPECT_EQ(reg.value("trace/dropped"), 0.0);
}

TEST(MetricsRegistry, TableListsEveryMetric) {
  MetricsRegistry reg;
  reg.add("alpha", 1.0);
  reg.observe("beta", 2.0);
  const std::string table = reg.table();
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
}

/// Threaded pattern from the header: one registry per worker, folded on
/// the calling thread in fixed (worker) order. Result must be identical
/// for every thread count.
TEST(MetricsRegistry, PerWorkerFoldIsThreadCountInvariant) {
  auto run = [](unsigned threads) {
    util::ThreadPool pool(threads);
    const unsigned lanes = pool.num_threads();
    std::vector<MetricsRegistry> per_worker(256);
    // One registry per chunk (not per worker) keeps writes disjoint no
    // matter which worker claims the chunk.
    pool.parallel_for(0, 256, 1,
                      [&](std::size_t lo, std::size_t, std::size_t chunk) {
                        per_worker[chunk].add("work", static_cast<double>(lo));
                        per_worker[chunk].observe(
                            "lane_load", static_cast<double>(lo % 7));
                      });
    (void)lanes;
    MetricsRegistry folded;
    for (const auto& part : per_worker) folded.merge(part);
    return folded.sorted();
  };
  const auto serial = run(1);
  const auto threaded = run(8);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].first, threaded[i].first);
    EXPECT_EQ(serial[i].second.total, threaded[i].second.total);
    EXPECT_EQ(serial[i].second.min, threaded[i].second.min);
    EXPECT_EQ(serial[i].second.max, threaded[i].second.max);
    EXPECT_EQ(serial[i].second.samples, threaded[i].second.samples);
  }
}

// --- collective reduce -------------------------------------------------------

TEST(MetricsReduce, UnionAcrossRanksWithIdenticalResult) {
  comm::World world(4);
  world.run([&](comm::Communicator& comm) {
    MetricsRegistry local;
    local.add("steps", 1.0);
    local.add("rank_bytes", 100.0 * (comm.rank() + 1));
    local.observe("utilization", 0.5 + 0.1 * comm.rank());
    // Rank-specific name: reduce must produce the union on every rank.
    local.add("only_rank_" + std::to_string(comm.rank()), 1.0);

    const MetricsRegistry reduced = local.reduce(comm);
    // Counters sum across ranks.
    EXPECT_EQ(reduced.value("steps"), 4.0);
    EXPECT_EQ(reduced.value("rank_bytes"), 100.0 * (1 + 2 + 3 + 4));
    // Gauges combine min/max/sum/samples.
    const MetricValue* g = reduced.find("utilization");
    ASSERT_NE(g, nullptr);
    EXPECT_NEAR(g->min, 0.5, 1e-15);
    EXPECT_NEAR(g->max, 0.8, 1e-15);
    EXPECT_EQ(g->samples, 4u);
    EXPECT_NEAR(g->mean(), 0.65, 1e-15);
    // Union: every rank's private key appears, with that rank's value.
    for (int r = 0; r < comm.size(); ++r) {
      EXPECT_EQ(reduced.value("only_rank_" + std::to_string(r)), 1.0);
    }
    // Every rank must hold the identical registry: compare a canonical
    // serialization via bcast from rank 0.
    const std::string mine = reduced.table();
    std::vector<std::uint8_t> root(mine.begin(), mine.end());
    comm.bcast(root, 0);
    EXPECT_EQ(mine, std::string(root.begin(), root.end()));
  });
}

TEST(MetricsReduce, EmptyAndSingleRank) {
  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    MetricsRegistry local;
    EXPECT_TRUE(local.reduce(comm).empty());
    local.add("x", 2.5);
    local.observe("y", -1.0);
    const MetricsRegistry reduced = local.reduce(comm);
    EXPECT_EQ(reduced.value("x"), 2.5);
    const MetricValue* y = reduced.find("y");
    ASSERT_NE(y, nullptr);
    EXPECT_EQ(y->min, -1.0);
    EXPECT_EQ(y->max, -1.0);
    EXPECT_EQ(y->samples, 1u);
  });
}

}  // namespace
}  // namespace crkhacc::core
