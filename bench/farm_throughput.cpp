// Scenario-farm gate: shared-context throughput, fairness, and bitwise
// job identity.
//
// The farm's claim is that a calibration sweep — N scenarios over a
// common realization — runs materially faster through one shared
// core::SimContext than as N standalone simulations, without changing a
// single bit of any scenario's answer. The farm never overlaps two
// jobs' compute (slices are sequential through one pool), so the whole
// win is duplicated fixed work eliminated: one thread pool instead of N
// spin-ups, one cooling table and one set of FFT plans instead of N
// rebuilds, and one primed initial state that jobs 2..N borrow instead
// of re-drawing and re-priming the identical realization.
//
// Two phases, because the gates want opposite job shapes:
//
//   Phase A (throughput): N single-step calibration microboxes, where
//     IC + priming is a realistic ~1/3 of the per-scenario cost. Gates
//     scenarios/hour through the farm >= 1.3x a serial baseline running
//     the same scenarios one at a time on private contexts (the
//     pre-farm workflow), and every job's final state bitwise equal
//     (every state column) to its standalone run.
//
//   Phase B (fairness + interleaving): fewer jobs, several slices each,
//     so round-robin actually interleaves. Gates the completion-time
//     spread (max/mean <= 1.5), that slices really interleave (job 0's
//     later slices run after job N-1's first), and — the determinism
//     claim that makes the farm safe at all — that sliced, interleaved
//     execution is bitwise identical to standalone monolithic runs.
//
// --quick shrinks both phases and runs as the farm_throughput_smoke
// ctest target, so a scheduler, cache-keying, or slicing regression
// fails the build.
#include <cstdio>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include "comm/world.h"
#include "core/param_file.h"
#include "core/service.h"
#include "core/simulation.h"

using namespace crkhacc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Calibration-microbox shape: a single coarse PM step over a primed
/// hydro box, so the shared fixed costs (IC draw + exchange + priming)
/// are a realistic fraction of each scenario. rs_cells is kept compact
/// and subcycling off so the evolution side is one force pass, not a
/// subcycle cascade.
core::SimConfig microbox_config(int threads, int steps) {
  core::SimConfig config;
  config.np = 8;
  config.box = 16.0;
  config.ng = 16;
  config.rs_cells = 0.25;
  config.z_init = 30.0;
  config.z_final = 10.0;
  config.num_pm_steps = steps;
  config.bins.max_depth = 0;
  config.hydro = true;
  config.subgrid_on = false;
  config.seed = 4242;
  config.threads = threads;
  return config;
}

/// The sweep workload: job j perturbs the Plummer softening over the
/// shared realization. Softening enters only the evolution (force
/// kernels), never IC generation or solver priming, so every job keys
/// to the SAME cached initial state — the emulator-calibration sweep
/// the farm exists for. Returned as overlay text so the farm and the
/// baseline build their configs through the identical ParamFile path.
std::string overlay_for(int j) {
  char overlay[64];
  std::snprintf(overlay, sizeof overlay, "softening = %.4f",
                0.05 + 0.01 * static_cast<double>(j));
  return overlay;
}

core::SimConfig config_for(const core::SimConfig& base, int j) {
  core::SimConfig config = base;
  const auto params = core::ParamFile::parse(overlay_for(j));
  if (params) params->apply(config);
  return config;
}

/// The pre-farm workflow: each scenario standalone, sequential, with a
/// private context (own pool, own tables, own IC draw + prime).
/// Returns the wall seconds of the whole pass.
double run_serial(const core::SimConfig& base, int jobs,
                  std::vector<Particles>& finals) {
  finals.assign(static_cast<std::size_t>(jobs), Particles{});
  const Clock::time_point t0 = Clock::now();
  for (int j = 0; j < jobs; ++j) {
    const core::SimConfig config = config_for(base, j);
    comm::World world(1);
    world.run([&](comm::Communicator& comm) {
      core::SimContext ctx(config.threads);
      core::Simulation sim(ctx, comm, config);
      sim.initialize();
      const auto result = sim.run();
      if (result.completed) {
        finals[static_cast<std::size_t>(j)] = sim.particles();
      }
    });
  }
  return seconds_since(t0);
}

core::ServiceReport run_farm(const core::SimConfig& base, int jobs,
                             int threads,
                             core::ServiceConfig service = {}) {
  service.threads = threads;
  service.slice_steps = 1;
  core::ScenarioService farm(service);
  for (int j = 0; j < jobs; ++j) {
    core::ScenarioJob job;
    job.name = "soft" + std::to_string(j);
    job.config = base;
    job.params = overlay_for(j);
    farm.submit(job);
  }
  return farm.drain();
}

bool check_bitwise(const core::ServiceReport& report,
                   const std::vector<Particles>& reference,
                   const char* phase) {
  bool ok = true;
  if (!report.aggregate.completed ||
      report.jobs.size() != reference.size()) {
    std::printf("FAIL: %s farm did not complete all %zu jobs\n", phase,
                reference.size());
    ok = false;
  }
  for (std::size_t j = 0; j < report.jobs.size() && j < reference.size();
       ++j) {
    const std::string diff =
        first_state_difference(report.jobs[j].final_particles, reference[j]);
    if (!diff.empty()) {
      std::printf("FAIL: %s job %s final state differs from its standalone "
                  "run at %s\n", phase, report.jobs[j].name.c_str(),
                  diff.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const int threads = 8;
  bool ok = true;

  // ------------------------------------------------------------------
  // Phase A: throughput. Single-step sweep jobs; the serial pass is
  // both the timed baseline and the bitwise reference.
  // ------------------------------------------------------------------
  const int jobs_a = quick ? 8 : 12;
  const core::SimConfig base_a = microbox_config(threads, /*steps=*/1);

  std::printf("scenario-farm bench%s\n", quick ? " (quick)" : "");
  std::printf("\n[A] throughput: %d single-step jobs, %zu^3 pairs, "
              "%d threads\n", jobs_a, base_a.np, threads);

  std::vector<Particles> reference_a;
  const double serial_s = run_serial(base_a, jobs_a, reference_a);
  const auto report_a = run_farm(base_a, jobs_a, threads);
  const double farm_s = report_a.wall_seconds;

  const double speedup = farm_s > 0.0 ? serial_s / farm_s : 0.0;
  std::printf("    serial: %7.3f s (%8.1f scenarios/hour)\n", serial_s,
              serial_s > 0.0 ? 3600.0 * jobs_a / serial_s : 0.0);
  std::printf("    farm:   %7.3f s (%8.1f scenarios/hour)\n", farm_s,
              farm_s > 0.0 ? 3600.0 * jobs_a / farm_s : 0.0);
  std::printf("    assets: cooling %llu/%llu hit/miss, initial state "
              "%llu/%llu, fft plans %llu/%llu\n",
              static_cast<unsigned long long>(report_a.assets.cooling_hits),
              static_cast<unsigned long long>(report_a.assets.cooling_misses),
              static_cast<unsigned long long>(
                  report_a.assets.initial_state_hits),
              static_cast<unsigned long long>(
                  report_a.assets.initial_state_misses),
              static_cast<unsigned long long>(report_a.assets.fft_plan_hits),
              static_cast<unsigned long long>(
                  report_a.assets.fft_plan_misses));

  ok = check_bitwise(report_a, reference_a, "[A]") && ok;
  if (static_cast<int>(report_a.assets.initial_state_hits) < jobs_a - 1) {
    std::printf("FAIL: [A] expected %d initial-state cache hits, got %llu "
                "(sweep jobs are not sharing the realization)\n", jobs_a - 1,
                static_cast<unsigned long long>(
                    report_a.assets.initial_state_hits));
    ok = false;
  }
  if (speedup < 1.3) {
    std::printf("FAIL: [A] farm speedup %.2fx below the 1.3x floor\n",
                speedup);
    ok = false;
  } else {
    std::printf("PASS: [A] farm speedup %.2fx >= 1.3x\n", speedup);
  }

  // ------------------------------------------------------------------
  // Phase B: fairness + interleaving. Multi-slice jobs so round-robin
  // has rounds; completion spread and slice order are observable via
  // on_slice, and the sliced runs must still match the monolithic
  // standalone references bit for bit.
  // ------------------------------------------------------------------
  const int jobs_b = quick ? 3 : 4;
  const int steps_b = quick ? 3 : 4;
  const core::SimConfig base_b = microbox_config(threads, steps_b);

  std::printf("\n[B] fairness: %d jobs x %d slices, round-robin\n", jobs_b,
              steps_b);

  std::vector<Particles> reference_b;
  run_serial(base_b, jobs_b, reference_b);

  // Record the global slice order to prove interleaving.
  std::vector<std::uint64_t> slice_order;
  core::ServiceConfig service_b;
  service_b.on_slice = [&](const core::SliceEvent& event) {
    slice_order.push_back(event.job);
  };
  const auto report_b = run_farm(base_b, jobs_b, threads, service_b);
  const double fairness = report_b.fairness_ratio();

  std::printf("    completion seconds:");
  for (const auto& j : report_b.jobs) {
    std::printf(" %.3f", j.completion_seconds);
  }
  std::printf("\n    fairness: %.3f max/mean\n", fairness);

  ok = check_bitwise(report_b, reference_b, "[B]") && ok;

  // Round-robin with equal jobs must visit every job once per round:
  // the first jobs_b slices are jobs 1..jobs_b in submission order, and
  // job 1's last slice comes after every other job has started.
  bool interleaved = slice_order.size() ==
                     static_cast<std::size_t>(jobs_b) *
                         static_cast<std::size_t>(steps_b);
  for (int j = 0; interleaved && j < jobs_b; ++j) {
    interleaved = slice_order[static_cast<std::size_t>(j)] ==
                  report_b.jobs[static_cast<std::size_t>(j)].id;
  }
  if (!interleaved) {
    std::printf("FAIL: [B] slices did not interleave round-robin "
                "(%zu slice events)\n", slice_order.size());
    ok = false;
  } else {
    std::printf("PASS: [B] %zu slices interleaved round-robin\n",
                slice_order.size());
  }

  if (fairness <= 0.0 || fairness > 1.5) {
    std::printf("FAIL: [B] fairness ratio %.3f outside (0, 1.5]\n", fairness);
    ok = false;
  } else {
    std::printf("PASS: [B] fairness ratio %.3f <= 1.5\n", fairness);
  }

  if (ok) std::printf("\nALL GATES PASS\n");
  return ok ? 0 : 1;
}
