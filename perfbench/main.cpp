// hacc_bench: one workload of the repository benchmark.
//
//   hacc_bench --workload <hydro_box|clustered_lb|farm_sweep> --seed <n>
//              --seconds <s> --trace <0|1> --workdir <dir>
//              [--trace-file <path>]
//
// Untraced (--trace 0): one warm-up repetition, then repetitions until
// the next would overrun --seconds (at least three); prints the median
// end-to-end metrics. Traced (--trace 1): alternating untraced and traced
// repetitions (the traced ones record spans and run the layer probe at
// every step boundary); prints the per-layer metrics and writes the
// spans to --trace-file. Repetition i evolves the inputs of index i
// (derived from --seed); every repetition runs the workload's correctness
// gates, and a replay of an index (traced, single-threaded) must give the
// same final-state digest. The printed digest is the warm-up's. The last
// stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any gate failed.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

using namespace perfbench;

namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 64;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},           {"evolve_s", "s"},
    {"scenarios_per_hour", "1/h"}, {"first_result_s", "s"},
    {"peak_heap_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"core.initialize_s", "s"},
    {"core.step_s", "s"},
    {"core.step_s_tail", "s"},
    {"core.step_s_tail_pct", "%"},
    {"core.step_count", "count"},
    {"core.step_imbalance", "ratio"},
    {"core.lb_packets", "count"},
    {"core.lb_imbalance_before", "ratio"},
    {"core.lb_imbalance_after", "ratio"},
    {"core.exchange_s", "s"},
    {"core.exchange_ghost_ratio", "ratio"},
    {"core.exchange_migrated", "count"},
    {"core.context_state_hit_ratio", "ratio"},
    {"core.context_fft_plan_hit_ratio", "ratio"},
    {"core.service_slice_s", "s"},
    {"core.slice_step_s", "s"},
    {"core.slice_analysis_s", "s"},
    {"core.slice_ckpt_s", "s"},
    {"comm.bytes_per_step", "B"},
    {"comm.ops_per_step", "count"},
    {"comm.wait_s", "s"},
    {"cosmology.ic_s", "s"},
    {"fft.roundtrip_s", "s"},
    {"mesh.pm_apply_s", "s"},
    {"mesh.deposit_s", "s"},
    {"tree.build_s", "s"},
    {"tree.refit_s", "s"},
    {"tree.pairs_s", "s"},
    {"tree.pairs", "count"},
    {"gpu.plan_s", "s"},
    {"gpu.loads_per_interaction", "ratio"},
    {"gravity.short_range_s", "s"},
    {"gravity.interactions", "count"},
    {"gravity.gflops", "GFLOP/s"},
    {"sph.forces_s", "s"},
    {"sph.density_s", "s"},
    {"sph.crk_moments_s", "s"},
    {"sph.momentum_energy_s", "s"},
    {"sph.interactions", "count"},
    {"sph.momentum_energy_gflops", "GFLOP/s"},
    {"subgrid.apply_s", "s"},
    {"integrator.kick_s", "s"},
    {"integrator.drift_s", "s"},
    {"integrator.dt_of_s", "s"},
    {"integrator.updates", "count"},
    {"integrator.max_depth", "count"},
    {"analysis.fof_s", "s"},
    {"analysis.so_s", "s"},
    {"analysis.galaxies_s", "s"},
    {"analysis.power_s", "s"},
    {"analysis.halos", "count"},
    {"io.write_blocked_s", "s"},
    {"io.ckpt_bytes", "B"},
    {"io.bleed_s", "s"},
    {"io.restore_s", "s"},
    {"io.recoveries", "count"},
    {"io.retries", "count"},
    {"util.pool_utilization", "ratio"},
    {"util.pool_critical_path_s", "s"},
    {"util.pool_steals", "count"},
    {"util.pool_speedup", "ratio"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"bench.span_coverage", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hacc_bench: %s\nusage: hacc_bench --workload "
               "<hydro_box|clustered_lb|farm_sweep> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--trace-file <path>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed must be a non-negative integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--trace-file") {
      opt.trace_file = value;
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workdir.empty()) usage("--workdir is required");
  return opt;
}

using RepFn = Rep (*)(const Env&, const RepSpec&);

RepFn find_workload(const std::string& name) {
  if (name == "hydro_box") return hydro_box;
  if (name == "clustered_lb") return clustered_lb;
  if (name == "farm_sweep") return farm_sweep;
  usage(("unknown workload '" + name + "'").c_str());
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::vector<double> field(const std::vector<Rep>& reps, double Rep::*member) {
  std::vector<double> out;
  for (const Rep& r : reps) out.push_back(r.*member);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const RepFn run_rep = find_workload(opt.workload);
  std::filesystem::create_directories(opt.workdir);

  SpanLog log(false);
  LayerStats layers;
  const Env env{opt, log, layers};

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  // Final-state digest per repetition index: a repetition replayed with
  // the same index (traced, or single-threaded) must reproduce it.
  std::map<int, std::uint64_t> digests;
  auto run = [&](int index, bool traced, int threads) {
    log.set_enabled(traced);
    reset_peak_heap();
    Rep rep = run_rep(env, RepSpec{index, traced, threads});
    rep.peak_heap_mb = peak_heap_mb();
    log.set_enabled(false);
    attempted += rep.attempted;
    failed += rep.failed;
    failures.insert(failures.end(), rep.failures.begin(), rep.failures.end());
    if (!digests.emplace(index, rep.digest).second &&
        digests[index] != rep.digest) {
      failures.push_back(opt.workload + ".determinism.rep" +
                         std::to_string(index));
    }
    std::fprintf(stderr,
                 "rep %d%s%s: setup %.6f s, evolve %.4f s, probe %.4f s, "
                 "peak heap %.3f MB, digest %016llx\n",
                 index, traced ? " traced" : "",
                 threads == 1 ? " single-threaded" : "", rep.setup_s,
                 rep.evolve_s, rep.probe_s, rep.peak_heap_mb,
                 static_cast<unsigned long long>(rep.digest));
    return rep;
  };

  // Warm-up: fills the process-wide FFT plan cache and the allocator's
  // pools, which a long-lived process pays once. Gated, not timed.
  run(0, false, 0);

  std::vector<Rep> plain, traced;
  const Clock::time_point start = Clock::now();
  double longest = 0.0;
  for (int index = 1; index <= kMaxReps; ++index) {
    const Clock::time_point t0 = Clock::now();
    plain.push_back(run(index, false, 0));
    if (opt.trace) traced.push_back(run(index, true, 0));
    const double took =
        std::chrono::duration<double>(Clock::now() - t0).count();
    longest = std::max(longest, took);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (index >= kMinReps && elapsed + longest > opt.seconds) break;
  }

  std::vector<std::pair<const Metric*, double>> out;
  if (!opt.trace) {
    std::vector<double> rate;
    for (const Rep& r : plain) {
      rate.push_back(r.wall_s > 0.0 ? r.scenarios * 3600.0 / r.wall_s : 0.0);
    }
    const double values[] = {median(field(plain, &Rep::setup_s)),
                             median(field(plain, &Rep::evolve_s)),
                             median(rate),
                             median(field(plain, &Rep::first_result_s)),
                             median(field(plain, &Rep::peak_heap_mb))};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(&kEndToEnd[i], values[i]);
    }
  } else {
    // The single-threaded baseline of the threaded single-rank workload:
    // repetition 1 again, on one thread.
    if (opt.workload == "hydro_box") {
      const Rep serial = run(1, false, 1);
      const double threaded = plain.front().evolve_s;
      layers.add("util.pool_speedup", 0,
                 threaded > 0.0 ? serial.evolve_s / threaded : 0.0);
    } else if (opt.workload == "clustered_lb") {
      // One thread per rank: the workload is its own serial baseline.
      layers.add("util.pool_speedup", 0, 1.0);
    }

    std::vector<double> traced_evolve;
    for (const Rep& r : traced) traced_evolve.push_back(r.evolve_s - r.probe_s);
    const double plain_evolve = median(field(plain, &Rep::evolve_s));
    layers.add("bench.trace_overhead_ratio", 0,
               plain_evolve > 0.0 ? median(traced_evolve) / plain_evolve : 0.0);

    // Driver span accounting over the traced repetitions: initialize
    // durations, and the share of each repetition's wall time that its
    // named child spans cover (1 - the root's self time / its duration).
    const auto spans = log.spans();
    const auto self = self_times(spans);
    double root_wall = 0.0, root_self = 0.0;
    std::vector<double> init;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double dur = spans[i].end - spans[i].start;
      if (spans[i].name == "initialize") init.push_back(dur);
      if (spans[i].name == "rep" && spans[i].parent < 0) {
        root_wall += dur;
        root_self += self[i];
      }
    }
    layers.add("core.initialize_s", 0, median(init));
    layers.add("bench.span_coverage", 0,
               root_wall > 0.0 ? 1.0 - root_self / root_wall : 0.0);
    const auto steps = layers.values("core.step_s");
    const auto [tail_value, tail_pct] = tail(steps);
    layers.add("core.step_s_tail", 0, tail_value);
    layers.add("core.step_s_tail_pct", 0, tail_pct);
    layers.add("core.step_count", 0, static_cast<double>(steps.size()));

    for (const Metric& m : kPerLayer) {
      out.emplace_back(&m, layers.median(m.name));
    }
    if (!opt.trace_file.empty() && !log.write_json(opt.trace_file)) {
      failures.push_back("bench.trace_file");
    }
  }

  for (const auto& [metric, value] : out) {
    if (!std::isfinite(value)) {
      failures.push_back(std::string("nonfinite.") + metric->name);
    }
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "FAILED %s: %s\n", opt.workload.c_str(), f.c_str());
  }
  if (!failures.empty() && failed == 0) failed = 1;

  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(digests[0]));
  std::printf("digest %s seed=%llu %s reps=%zu\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), digest,
              plain.size() + traced.size());

  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + std::string(out[i].first->name) + "\": {\"value\": " +
            number(out[i].second) + ", \"unit\": \"" + out[i].first->unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}
