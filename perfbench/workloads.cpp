// The three benchmark workloads. Each repetition builds its inputs from
// the run seed, runs the workload through the program's public API,
// checks the outcome, and returns its timings and final-state digest.
//
//   hydro_box     one rank, threaded pool: CRKSPH + subgrid cosmological
//                 box sub-cycled over a fixed PM-step sequence (the
//                 short-range solver is the paper's dominant cost).
//   clustered_lb  four ranks, one thread each, gravity only: two Plummer
//                 spheres handed in through initialize_from with the load
//                 balancer on (the clustered regime, where the slowest
//                 rank sets the step time).
//   farm_sweep    one ScenarioService draining small hydro jobs over a few
//                 shared seeds, with per-step checkpoints, in-situ
//                 analysis and scripted interruptions (many-scenario
//                 traffic through core/cosmology/io/analysis).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <numbers>
#include <numeric>
#include <thread>

#include "bench.h"
#include "core/param_file.h"
#include "core/service.h"
#include "core/simulation.h"
#include "io/checkpoint.h"
#include "io/multi_tier.h"
#include "util/rng.h"

namespace perfbench {

using namespace crkhacc;
using Reduce = LayerStats::Reduce;

namespace {

// Problem sizes. Each repetition takes one to three seconds on four
// cores, so a run reports the median of many: single repetitions on a
// shared machine spread by 10-20%.
constexpr std::size_t kHydroNp = 6;
constexpr int kHydroSteps = 2;
/// hydro_box gate: above this share of active sub-cycle slots the
/// stepping is (nearly) flat rather than hierarchical.
constexpr double kMaxActiveShare = 0.97;
constexpr std::size_t kClusteredParticles = 6000;
constexpr int kClusteredSteps = 3;
constexpr std::size_t kFarmNp = 6;
constexpr int kFarmSteps = 2;  ///< >= 2: interrupted at trial 1 (farm_sweep)
constexpr int kFarmJobs = 6;
constexpr int kFarmSeeds = 3;       ///< shared realizations across the jobs
constexpr int kFarmFaultEvery = 3;  ///< every 3rd job is interrupted once
// The farm's jobs are mostly serial work; a one-thread pool keeps its
// drain times free of worker wake-up jitter.
constexpr int kFarmThreads = 1;

int hardware_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses > 0
             ? static_cast<double>(hits) / static_cast<double>(hits + misses)
             : 0.0;
}

/// Seed of one repetition's inputs. Each repetition evolves its own
/// realization, so a run's medians average over many of them and a run's
/// figures follow its seed far less than any one small box does; a
/// repetition index always gets the same inputs, traced or not.
std::uint64_t rep_seed(const Env& env, const RepSpec& spec) {
  return mix_seed(env.opt.seed, static_cast<std::uint64_t>(spec.index));
}

std::string run_id(const Env& env, const RepSpec& spec) {
  return env.opt.workload + "/seed" + std::to_string(env.opt.seed) + "/rep" +
         std::to_string(spec.index) + (spec.traced ? "/traced" : "");
}

/// Share of (owned particle, fine substep) slots in which the particle
/// was active, over every step of a per-step bin census (steps x bins):
/// bin b is active 2^b times in a step of depth d, which has 2^d slots.
double active_share(const std::vector<std::int64_t>& census, int max_depth) {
  const std::size_t bins = static_cast<std::size_t>(max_depth) + 1;
  double active = 0.0, slots = 0.0;
  for (std::size_t s = 0; s + bins <= census.size(); s += bins) {
    double owned = 0.0;
    int depth = 0;
    for (std::size_t b = 0; b < bins; ++b) {
      const double n = static_cast<double>(census[s + b]);
      active += n * std::ldexp(1.0, static_cast<int>(b));
      owned += n;
      if (n > 0.0) depth = static_cast<int>(b);
    }
    slots += owned * std::ldexp(1.0, depth);
  }
  return slots > 0.0 ? active / slots : 1.0;
}

// ---------------------------------------------------------------------------
// Shared single-simulation driver (hydro_box, clustered_lb).

struct SimWorkload {
  core::SimConfig config;
  int ranks = 1;
  int threads = 1;        ///< pool width per rank
  int setup_repeats = 1;  ///< set-ups per repetition; setup_s is their median
  /// Rank-local input particles; empty selects initialize().
  std::function<Particles(int rank)> inputs;
  StateCheck tol;
  ProbeLayers probe;
};

/// Per-step counters one rank observes around its step() calls.
struct RankStep {
  double seconds = 0.0;     ///< step() wall
  double wait_s = 0.0;      ///< barrier wait after step()
  double bytes = 0.0;       ///< Communicator::bytes_sent delta
  double ops = 0.0;         ///< Communicator::op_count delta
};

Rep run_simulation(const Env& env, const RepSpec& spec, const SimWorkload& w) {
  Rep rep;
  const std::string run = run_id(env, spec);
  SpanLog& log = env.log;
  const bool traced = spec.traced;
  SpanLog::Scoped rep_span(log, "rep", 0, run);
  const std::int64_t rep_id = rep_span.id();

  std::mutex mutex;
  StateGather gather;
  std::vector<std::string> failures;
  std::vector<std::vector<RankStep>> steps(static_cast<std::size_t>(w.ranks));
  int max_depth = 0;
  double lb_packets = 0.0;
  std::vector<std::int64_t> bin_census;
  std::vector<double> lb_before, lb_after, updates;
  util::ThreadPoolStats pool_stats;
  core::SimContext::AssetStats assets;

  comm::World world(w.ranks);
  world.run([&](comm::Communicator& comm) {
    SpanLog::Adopt adopt(rep_id);
    const int tid = comm.rank() + 1;
    const bool lead = comm.rank() == 0;
    core::SimConfig config = w.config;
    config.threads = spec.threads > 0 ? spec.threads : w.threads;

    // Set-up, repeated when it is too short to time once; the last
    // simulation built is the one evolved.
    std::unique_ptr<core::SimContext> ctx;
    std::unique_ptr<core::Simulation> sim;
    core::SimContext::AssetStats assets_before;
    std::vector<double> setups;
    for (int k = 0; k < w.setup_repeats; ++k) {
      Particles input = w.inputs ? w.inputs(comm.rank()) : Particles{};
      sim.reset();
      ctx.reset();
      comm.barrier();
      const Clock::time_point t_setup = Clock::now();
      SpanLog::Scoped setup_span(log, "setup", tid, run);
      {
        SpanLog::Scoped s(log, "SimContext", tid, run);
        ctx = std::make_unique<core::SimContext>(config.threads);
      }
      assets_before = ctx->asset_stats();
      {
        SpanLog::Scoped s(log, "Simulation", tid, run);
        sim = std::make_unique<core::Simulation>(*ctx, comm, config);
      }
      {
        SpanLog::Scoped s(log, "initialize", tid, run);
        if (w.inputs) {
          sim->initialize_from(std::move(input), 0);
        } else {
          sim->initialize();
        }
      }
      // The first step can start once the slowest rank is set up; the
      // rank-local durations leave out the barrier's wake-up latency.
      const double local = seconds_since(t_setup);
      setups.push_back(comm.allreduce_scalar(local, comm::ReduceOp::kMax));
    }
    const double setup_s = median(setups);

    core::ConservationSnapshot before;
    {
      SpanLog::Scoped s(log, "measure_conservation", tid, run);
      before = core::measure_conservation(comm, sim->particles());
    }

    // Owned particles per timestep bin after each step.
    const auto bins = static_cast<std::size_t>(config.bins.max_depth) + 1;
    std::vector<std::int64_t> census(
        static_cast<std::size_t>(config.num_pm_steps) * bins, 0);

    comm.barrier();
    const Clock::time_point t_evolve = Clock::now();
    double probe_s = 0.0;
    std::vector<RankStep> mine;
    std::vector<core::StepReport> reports;
    for (int s = 0; s < config.num_pm_steps; ++s) {
      RankStep rs;
      const std::uint64_t bytes0 = comm.bytes_sent();
      const std::uint64_t ops0 = comm.op_count();
      {
        SpanLog::Scoped span(log, "step", tid, run);
        const Clock::time_point t0 = Clock::now();
        reports.push_back(sim->step());
        rs.seconds = seconds_since(t0);
      }
      rs.bytes = static_cast<double>(comm.bytes_sent() - bytes0);
      rs.ops = static_cast<double>(comm.op_count() - ops0);
      if (traced) {
        {
          SpanLog::Scoped span(log, "comm.wait", tid, run);
          const Clock::time_point t0 = Clock::now();
          comm.barrier();
          rs.wait_s = seconds_since(t0);
        }
        ProbeContext pctx{log, env.layers, run,
                          env.opt.workdir + "/probe_rep" +
                              std::to_string(spec.index)};
        std::vector<std::string> probe_failures;
        probe_s += probe_layers(*sim, comm, w.probe, pctx,
                                spec.index * 1000 + s, probe_failures);
        if (!probe_failures.empty()) {
          std::lock_guard<std::mutex> lock(mutex);
          failures.insert(failures.end(), probe_failures.begin(),
                          probe_failures.end());
        }
      }
      mine.push_back(rs);
      const Particles& live = sim->particles();
      const std::size_t row = static_cast<std::size_t>(s) * bins;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live.is_owned(i)) ++census[row + live.bin[i]];
      }
    }
    comm.barrier();
    const double evolve_s = seconds_since(t_evolve);
    for (std::int64_t& n : census) {
      n = comm.allreduce_scalar(n, comm::ReduceOp::kSum);
    }

    core::ConservationSnapshot after;
    {
      SpanLog::Scoped s(log, "measure_conservation", tid, run);
      after = core::measure_conservation(comm, sim->particles());
    }
    core::RunResult result;
    sim->finalize_run(result);
    const auto packets = comm.allreduce_scalar(
        static_cast<std::int64_t>(std::accumulate(
            reports.begin(), reports.end(), std::uint64_t{0},
            [](std::uint64_t acc, const core::StepReport& r) {
              return acc + r.lb_packets_migrated;
            })),
        comm::ReduceOp::kSum);
    {
      SpanLog::Scoped s(log, "digest", tid, run);
      gather.add_owned(sim->particles());
    }

    std::lock_guard<std::mutex> lock(mutex);
    steps[static_cast<std::size_t>(comm.rank())] = std::move(mine);
    if (!lead) return;
    rep.setup_s = setup_s;
    rep.evolve_s = evolve_s;
    rep.probe_s = probe_s;
    check_conservation(env.opt.workload, before, after, w.tol, failures);
    for (const auto& r : reports) {
      max_depth = std::max(max_depth, r.depth);
      updates.push_back(static_cast<double>(r.active_updates));
      if (r.lb_imbalance_before > 0.0) {
        lb_before.push_back(r.lb_imbalance_before);
        lb_after.push_back(r.lb_imbalance_after);
      }
    }
    lb_packets = static_cast<double>(packets);
    bin_census = std::move(census);
    pool_stats = result.threading;
    assets = ctx->asset_stats();
    assets.fft_plan_hits -= assets_before.fft_plan_hits;
    assets.fft_plan_misses -= assets_before.fft_plan_misses;
  });

  rep.wall_s = rep.setup_s + rep.evolve_s;
  rep.first_result_s = rep.wall_s;
  rep.scenarios = 1.0;
  rep.attempted = static_cast<std::uint64_t>(w.config.num_pm_steps);
  if (!gather.finite()) failures.push_back(env.opt.workload + ".finite_state");
  if (w.config.hydro && max_depth < 2) {
    failures.push_back("hydro_box.subcycle_depth");
  }
  if (w.config.hydro) {
    // Mixed occupancy: the share of (owned particle, fine substep) slots
    // that were active. Flat stepping, every particle in its step's
    // deepest bin, gives 1; this box's realizations give 0.6-0.9.
    const double share = active_share(bin_census, w.config.bins.max_depth);
    std::fprintf(stderr, "%s: active share of sub-cycle slots %.3f\n",
                 env.opt.workload.c_str(), share);
    if (!(share <= kMaxActiveShare)) {
      failures.push_back("hydro_box.mixed_bins");
    }
  }
  if (w.config.lb.threshold > 0.0 && !(lb_packets > 0.0)) {
    failures.push_back("clustered_lb.lb_packets_migrated");
  }
  {
    SpanLog::Scoped s(log, "digest", 0, run);
    rep.digest = digest_sorted(gather.sorted());
  }
  rep.failures = failures;
  if (!failures.empty()) rep.failed = rep.attempted;
  if (!traced) return rep;

  // Per-layer counters of a traced repetition. Per-step values are
  // reduced across ranks under the step's probe point.
  LayerStats& L = env.layers;
  for (int s = 0; s < w.config.num_pm_steps; ++s) {
    const std::int64_t seq = spec.index * 1000 + s;
    double sum = 0.0, longest = 0.0;
    for (const auto& rank_steps : steps) {
      const RankStep& rs = rank_steps[static_cast<std::size_t>(s)];
      L.add("core.step_s", seq, rs.seconds, Reduce::kMax);
      L.add("comm.wait_s", seq, rs.wait_s, Reduce::kMean);
      L.add("comm.bytes_per_step", seq, rs.bytes, Reduce::kSum);
      L.add("comm.ops_per_step", seq, rs.ops, Reduce::kSum);
      sum += rs.seconds;
      longest = std::max(longest, rs.seconds);
    }
    L.add("core.step_imbalance", seq,
          sum > 0.0 ? longest * static_cast<double>(w.ranks) / sum : 0.0);
  }
  L.add("integrator.max_depth", spec.index, max_depth);
  L.add("integrator.updates", spec.index,
        std::accumulate(updates.begin(), updates.end(), 0.0));
  L.add("core.lb_packets", spec.index, lb_packets);
  if (!lb_before.empty()) {
    L.add("core.lb_imbalance_before", spec.index, median(lb_before));
    L.add("core.lb_imbalance_after", spec.index, median(lb_after));
  }
  L.add("util.pool_utilization", spec.index, pool_stats.utilization());
  L.add("util.pool_critical_path_s", spec.index,
        pool_stats.critical_path_seconds());
  L.add("util.pool_steals", spec.index, static_cast<double>(pool_stats.steals));
  L.add("core.context_state_hit_ratio", spec.index,
        hit_ratio(assets.initial_state_hits, assets.initial_state_misses));
  L.add("core.context_fft_plan_hit_ratio", spec.index,
        hit_ratio(assets.fft_plan_hits, assets.fft_plan_misses));
  return rep;
}

// ---------------------------------------------------------------------------
// Two Plummer spheres (the clustered inputs, owned by the benchmark so a
// test edit never changes them).

Particles two_plummer_spheres(std::uint64_t seed, std::size_t count,
                              double box, double scale,
                              const std::array<double, 3>& center_a,
                              const std::array<double, 3>& center_b) {
  SplitMix64 rng(seed);
  Particles p;
  p.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& center = (i % 2 == 0) ? center_a : center_b;
    // Plummer cumulative-mass inversion, tail clamped to a finite radius.
    const double u = std::min(rng.next_double(), 0.999);
    const double r = scale / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    const double ct = 2.0 * rng.next_double() - 1.0;
    const double st = std::sqrt(std::max(0.0, 1.0 - ct * ct));
    const double phi = 2.0 * std::numbers::pi * rng.next_double();
    std::array<double, 3> pos{center[0] + r * st * std::cos(phi),
                              center[1] + r * st * std::sin(phi),
                              center[2] + r * ct};
    for (double& c : pos) {
      c = std::fmod(c, box);
      if (c < 0.0) c += box;
    }
    constexpr double kSigma = 5.0;  // isotropic velocity dispersion, km/s
    p.push_back(i, Species::kDarkMatter, static_cast<float>(pos[0]),
                static_cast<float>(pos[1]), static_cast<float>(pos[2]),
                static_cast<float>(kSigma * rng.next_gaussian()),
                static_cast<float>(kSigma * rng.next_gaussian()),
                static_cast<float>(kSigma * rng.next_gaussian()), 1.0f);
  }
  return p;
}

// ---------------------------------------------------------------------------
// farm_sweep

/// Calibration microbox: a primed hydro box stepped a few PM steps with
/// in-situ analysis after every step, without sub-cycling and with a
/// compact force split so the short-range kernels stay a small share.
core::SimConfig microbox_config() {
  core::SimConfig c;
  c.np = kFarmNp;
  c.box = 2.0 * static_cast<double>(kFarmNp);
  c.ng = 2 * kFarmNp;
  c.rs_cells = 0.25;
  c.z_init = 30.0;
  c.z_final = 10.0;
  c.num_pm_steps = kFarmSteps;
  c.bins.max_depth = 0;
  c.hydro = true;
  c.subgrid_on = false;
  c.analysis_every = 1;
  return c;
}

/// Job j sweeps the Plummer softening (an evolution-only knob) over one
/// of kFarmSeeds shared realizations, so jobs sharing a seed borrow one
/// primed initial state (cache hits) and the first of each seed misses.
std::string farm_overlay(std::uint64_t run_seed, int j) {
  const std::uint64_t ic_seed =
      mix_seed(run_seed, 300 + static_cast<std::uint64_t>(j % kFarmSeeds)) %
      1000000007ull;
  char text[128];
  std::snprintf(text, sizeof text, "seed = %llu\nsoftening = %.4f\n",
                static_cast<unsigned long long>(ic_seed),
                0.10 + 0.02 * static_cast<double>(j / kFarmSeeds));
  return text;
}

/// Scripted machine interruption: fires once, at a campaign-loop trial
/// after the first committed step, so recovery always has a checkpoint
/// to read back.
class ScriptedFault : public io::FaultInjector {
 public:
  explicit ScriptedFault(std::uint64_t trial)
      : io::FaultInjector(0.0, 0), trial_(trial) {}
  bool should_fail(std::uint64_t trial, double) const override {
    return trial == trial_;
  }

 private:
  std::uint64_t trial_;
};

bool faulted_job(int j) { return j % kFarmFaultEvery == kFarmFaultEvery - 1; }

/// Farm attribution: job 0's configuration re-run outside the service,
/// so each slice (one PM step + its checkpoint + in-situ analysis) splits
/// into step, checkpoint and analysis time, and the layer probe sees a
/// farm job's state at every step boundary.
void farm_attribution(const Env& env, const RepSpec& spec,
                      const core::SimConfig& base, const std::string& run,
                      const std::filesystem::path& workdir,
                      std::vector<std::string>& failures) {
  namespace fs = std::filesystem;
  SpanLog& log = env.log;
  LayerStats& L = env.layers;
  core::SimConfig config = base;
  if (const auto params =
          core::ParamFile::parse(farm_overlay(rep_seed(env, spec), 0))) {
    params->apply(config);
  }
  config.threads = spec.threads > 0 ? spec.threads : kFarmThreads;
  const fs::path root = workdir / "attribution";
  SpanLog::Scoped span(log, "attribution", 0, run);
  std::mutex mutex;
  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    SpanLog::Adopt adopt(span.id());
    io::ThrottledStore local(
        io::StoreConfig{(root / "local").string(), 0.0, 0.0, false});
    io::ThrottledStore pfs(
        io::StoreConfig{(root / "pfs").string(), 0.0, 0.0, true});
    io::MultiTierConfig mt;
    mt.ckpt = config.ckpt;
    io::MultiTierWriter writer(local, pfs, mt);
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);
    {
      SpanLog::Scoped s(log, "initialize", 1, run);
      sim.initialize();
    }
    std::vector<std::string> probe_failures;
    for (int s = 0; s < config.num_pm_steps; ++s) {
      const std::int64_t seq = spec.index * 1000 + s;
      core::StepReport report;
      double step_s = 0.0;
      {
        SpanLog::Scoped st(log, "step", 1, run);
        const Clock::time_point t0 = Clock::now();
        report = sim.step(&writer);
        step_s = seconds_since(t0);
      }
      double analysis_s = 0.0;
      {
        SpanLog::Scoped st(log, "run_analysis", 1, run);
        const Clock::time_point t0 = Clock::now();
        sim.run_analysis();
        analysis_s = seconds_since(t0);
      }
      L.add("core.step_s", seq, step_s);
      L.add("core.slice_step_s", seq, report.seconds);
      L.add("core.slice_ckpt_s", seq, report.io_blocked_seconds);
      L.add("core.slice_analysis_s", seq, analysis_s);
      ProbeContext pctx{log, L, run, (root / "probe").string()};
      probe_layers(sim, comm, ProbeLayers{true, false, true, true, true}, pctx,
                   seq, probe_failures);
    }
    writer.drain();
    std::lock_guard<std::mutex> lock(mutex);
    failures.insert(failures.end(), probe_failures.begin(),
                    probe_failures.end());
  });
}

}  // namespace

Rep hydro_box(const Env& env, const RepSpec& spec) {
  SimWorkload w;
  core::SimConfig& c = w.config;
  c.np = kHydroNp;
  c.box = 2.0 * static_cast<double>(kHydroNp);
  c.ng = 2 * kHydroNp;
  c.rs_cells = 1.0;
  c.z_init = 30.0;
  c.z_final = 5.0;
  c.num_pm_steps = kHydroSteps;
  // The default timestep-bin criterion and depth limit: the realization's
  // own dynamics spread the particles over bins 1-3, so sub-cycling skips
  // inactive particles at the finer substeps.
  c.hydro = true;
  c.subgrid_on = true;
  c.seed = mix_seed(rep_seed(env, spec), 100) % 1000000007ull;
  w.threads = std::max(1, std::min(2, hardware_threads()));
  w.tol = StateCheck{1e-3, 0.05};
  w.probe = ProbeLayers{true, true, true, false, false};
  return run_simulation(env, spec, w);
}

Rep clustered_lb(const Env& env, const RepSpec& spec) {
  SimWorkload w;
  w.ranks = 4;
  core::SimConfig& c = w.config;
  c.np = 32;  // nominal lattice: sets the softening scale only
  c.box = 64.0;
  c.ng = 64;
  c.z_init = 20.0;
  c.z_final = 10.0;
  c.num_pm_steps = kClusteredSteps;
  c.hydro = false;
  c.subgrid_on = false;
  c.bins.max_depth = 2;
  c.sph.eta = 0.1f;  // chaining-mesh bins sized by the gravity cutoff
  c.lb.threshold = 1.2;
  c.seed = mix_seed(rep_seed(env, spec), 200) % 1000000007ull;
  const std::uint64_t ic_seed = mix_seed(rep_seed(env, spec), 201);
  // Sphere cores sit in ranks (0,0) and (1,1) of the 2x2x1 grid; ranks 1
  // and 2 start nearly empty. Rank 0 hands every particle in and the
  // first exchange migrates them home.
  w.inputs = [ic_seed, box = c.box](int rank) {
    if (rank != 0) return Particles{};
    return two_plummer_spheres(ic_seed, kClusteredParticles, box, 4.0,
                               {16.0, 16.0, 32.0}, {48.0, 48.0, 32.0});
  };
  w.setup_repeats = 5;  // ~1 ms each
  w.tol = StateCheck{1e-6, 0.05};
  w.probe = ProbeLayers{};
  return run_simulation(env, spec, w);
}

Rep farm_sweep(const Env& env, const RepSpec& spec) {
  namespace fs = std::filesystem;
  Rep rep;
  const std::string run = run_id(env, spec);
  SpanLog& log = env.log;
  LayerStats& L = env.layers;
  SpanLog::Scoped rep_span(log, "rep", 0, run);
  const std::uint64_t seed = rep_seed(env, spec);
  const fs::path workdir = fs::path(env.opt.workdir) /
                          ("farm_rep" + std::to_string(spec.index) +
                           (spec.traced ? "_traced" : ""));
  fs::remove_all(workdir);

  std::vector<std::unique_ptr<ScriptedFault>> faults;
  std::vector<double> slice_times;  // on_slice timestamps (log clock)
  core::ServiceConfig sc;
  sc.threads = spec.threads > 0 ? spec.threads : kFarmThreads;
  sc.slice_steps = 1;
  sc.workdir = (workdir / "jobs").string();
  sc.checkpoint_window = 2;
  sc.on_slice = [&](const core::SliceEvent&) {
    slice_times.push_back(log.now());
  };
  core::ScenarioService service(sc);
  const core::SimConfig base = microbox_config();
  for (int j = 0; j < kFarmJobs; ++j) {
    core::ScenarioJob job;
    job.name = "sweep" + std::to_string(j);
    job.config = base;
    job.params = farm_overlay(seed, j);
    if (faulted_job(j)) {
      // Trial 1 falls after the first checkpoint and before the job's
      // last step, so recovery must read a checkpoint back.
      faults.push_back(std::make_unique<ScriptedFault>(1));
      job.fault = faults.back().get();
    }
    SpanLog::Scoped s(log, "ScenarioService::submit", 0, run);
    service.submit(std::move(job));
  }

  const auto fft_before = service.context().asset_stats();
  const util::ThreadPoolStats pool_before =
      service.context().thread_pool().stats();
  const double drain_start = log.now();
  core::ServiceReport report;
  std::int64_t drain_id = -1;
  {
    SpanLog::Scoped s(log, "drain", 0, run);
    drain_id = s.id();
    report = service.drain();
  }
  const double drain_end = log.now();
  if (log.enabled()) {
    double prev = drain_start;
    for (const double t : slice_times) {
      log.add("slice", prev, t, drain_id, 0, run);
      prev = t;
    }
  }

  const double first_slice =
      slice_times.empty() ? drain_end : slice_times.front();
  rep.setup_s = first_slice - drain_start;
  rep.evolve_s = drain_end - first_slice;
  rep.wall_s = report.wall_seconds;
  rep.attempted = static_cast<std::uint64_t>(kFarmJobs);
  std::vector<std::string> failures;
  double first = 0.0;
  std::uint64_t failed_jobs = 0;
  bool any_first = false;
  for (std::size_t j = 0; j < report.jobs.size(); ++j) {
    const core::JobResult& job = report.jobs[j];
    bool ok = true;
    if (job.outcome != core::JobOutcome::kCompleted) {
      failures.push_back("farm_sweep." + job.name + ".completed");
      ok = false;
    } else {
      rep.scenarios += 1.0;
      first = any_first ? std::min(first, job.completion_seconds)
                        : job.completion_seconds;
      any_first = true;
    }
    if (faulted_job(static_cast<int>(j))) {
      if (job.run.interruptions == 0 || job.run.restarts_from_ics != 0 ||
          job.run.checkpoint_fallbacks != 0) {
        failures.push_back("farm_sweep." + job.name + ".recovery");
        ok = false;
      }
    }
    if (!ok) ++failed_jobs;
  }
  if (report.jobs.size() != static_cast<std::size_t>(kFarmJobs)) {
    failures.push_back("farm_sweep.job_count");
    failed_jobs = static_cast<std::uint64_t>(kFarmJobs);
  }
  rep.first_result_s = first;

  // Conservation of every job against its primed initial state (the
  // shared context still caches it under the job's key).
  {
    SpanLog::Scoped s(log, "measure_conservation", 0, run);
    StateGather finals;
    comm::World world(1);
    world.run([&](comm::Communicator& comm) {
      for (std::size_t j = 0; j < report.jobs.size(); ++j) {
        core::SimConfig config = base;
        const auto params = core::ParamFile::parse(
            farm_overlay(seed, static_cast<int>(j)));
        if (params) params->apply(config);
        const auto initial = service.context().find_initial_state(
            core::SimContext::initial_state_key(config, 0, 1));
        if (!initial) {
          failures.push_back("farm_sweep." + report.jobs[j].name +
                             ".initial_state");
          continue;
        }
        const auto before =
            core::measure_conservation(comm, initial->particles);
        const auto after =
            core::measure_conservation(comm, report.jobs[j].final_particles);
        const std::size_t n = failures.size();
        check_conservation("farm_sweep." + report.jobs[j].name, before, after,
                           StateCheck{1e-3, 0.05}, failures);
        if (failures.size() != n) ++failed_jobs;
      }
    });
    std::uint64_t h = 14695981039346656037ull;
    bool finite = true;
    for (const auto& job : report.jobs) {
      StateGather one;
      one.add_owned(job.final_particles);
      finite = finite && one.finite();
      h = digest_sorted(one.sorted(), h);
    }
    if (!finite) failures.push_back("farm_sweep.finite_state");
    rep.digest = h;
  }
  rep.failed = std::min<std::uint64_t>(failed_jobs, rep.attempted);
  if (!failures.empty() && rep.failed == 0) rep.failed = rep.attempted;
  rep.failures = failures;

  if (spec.traced) {
    const auto& a = report.assets;
    L.add("core.context_state_hit_ratio", spec.index,
          hit_ratio(a.initial_state_hits, a.initial_state_misses));
    L.add("core.context_fft_plan_hit_ratio", spec.index,
          hit_ratio(a.fft_plan_hits - fft_before.fft_plan_hits,
                    a.fft_plan_misses - fft_before.fft_plan_misses));
    for (std::size_t i = 1; i < slice_times.size(); ++i) {
      L.add("core.service_slice_s",
            spec.index * 1000 + static_cast<std::int64_t>(i),
            slice_times[i] - slice_times[i - 1]);
    }
    const core::RunResult& agg = report.aggregate;
    L.add("io.recoveries", spec.index,
          static_cast<double>(agg.recovery_attempts));
    L.add("io.retries", spec.index,
          static_cast<double>(agg.io.local_retries + agg.io.pfs_retries));
    const util::ThreadPoolStats th = util::stats_since(
        service.context().thread_pool().stats(), pool_before);
    L.add("util.pool_utilization", spec.index, th.utilization());
    L.add("util.pool_critical_path_s", spec.index, th.critical_path_seconds());
    L.add("util.pool_steals", spec.index, static_cast<double>(th.steals));
    double busy = 0.0;
    for (const double b : th.busy_seconds) busy += b;
    L.add("util.pool_speedup", spec.index,
          th.critical_path_seconds() > 0.0 ? busy / th.critical_path_seconds()
                                           : 0.0);
    farm_attribution(env, spec, base, run, workdir, failures);
    rep.failures = failures;
    if (!failures.empty() && rep.failed == 0) rep.failed = rep.attempted;
  }
  fs::remove_all(workdir);
  return rep;
}

}  // namespace perfbench
