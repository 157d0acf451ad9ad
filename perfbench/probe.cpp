// Layer probe: at a step boundary, replay each lower layer's public entry
// point on a copy of the live simulation state, timing every call from
// outside. The live state is never touched, so a traced run ends in the
// same state as an untraced one.
#include <algorithm>
#include <cmath>
#include <filesystem>

#include "analysis/fof.h"
#include "analysis/galaxies.h"
#include "analysis/halos.h"
#include "analysis/power_spectrum.h"
#include "analysis/so_masses.h"
#include "bench.h"
#include "core/exchange.h"
#include "core/simulation.h"
#include "cosmology/ics.h"
#include "fft/distributed_fft.h"
#include "gpu/launch.h"
#include "gravity/short_range.h"
#include "integrator/kdk.h"
#include "io/checkpoint.h"
#include "io/multi_tier.h"
#include "mesh/pm_solver.h"
#include "sph/solver.h"
#include "subgrid/model.h"
#include "tree/chaining_mesh.h"

namespace perfbench {

using namespace crkhacc;
using Reduce = LayerStats::Reduce;

namespace {

double global_sum(comm::Communicator& comm, double value) {
  return comm.allreduce_scalar(value, comm::ReduceOp::kSum);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

double probe_layers(core::Simulation& sim, comm::Communicator& comm,
                    const ProbeLayers& which, const ProbeContext& ctx,
                    std::int64_t seq, std::vector<std::string>& failures) {
  const int tid = comm.rank() + 1;
  const Clock::time_point probe_start = Clock::now();
  SpanLog::Scoped probe_span(ctx.log, "probe", tid, ctx.run);
  // Times `fn` as span `name` and records its seconds as `name`_s; the
  // per-point value is the slowest rank's (the critical path).
  auto timed = [&](const std::string& name, auto&& fn) {
    SpanLog::Scoped span(ctx.log, name, tid, ctx.run);
    const Clock::time_point t0 = Clock::now();
    fn();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    span.close();
    ctx.layers.add(name + "_s", seq, s, Reduce::kMax);
    return s;
  };
  // Counters are reduced here, so every rank records the global value.
  auto count = [&](const std::string& name, double global) {
    ctx.layers.add(name, seq, global, Reduce::kMax);
  };

  const core::SimConfig& cfg = sim.config();
  util::ThreadPool* pool = &sim.thread_pool();
  const auto& decomp = sim.decomposition();
  const double overload = sim.overload_width();
  const double a = sim.scale_factor();
  const double a_next = sim.a_at_step(sim.current_step() + 1);
  Particles state = sim.particles();

  // core: migration + overload refresh the next step would perform.
  core::ExchangeStats ex;
  timed("core.exchange", [&] {
    ex = core::exchange_and_overload(comm, decomp, state, overload);
  });
  const double ghosts = global_sum(comm, static_cast<double>(ex.ghosts));
  const double owned = global_sum(comm, static_cast<double>(ex.owned));
  count("core.exchange_ghost_ratio", ratio(ghosts, owned));
  count("core.exchange_migrated",
        global_sum(comm, static_cast<double>(ex.migrated)));

  // tree: chaining-mesh build, AABB refit, leaf-pair lists.
  const auto obox = decomp.overloaded_box(comm.rank(), overload);
  tree::ChainingMesh mesh_all(obox, {overload, 64});
  tree::ChainingMesh mesh_gas(obox, {overload, 64});
  std::vector<std::uint32_t> gas;
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state.is_gas(i)) gas.push_back(static_cast<std::uint32_t>(i));
  }
  timed("tree.build", [&] {
    mesh_all.build(state, pool);
    if (which.hydro) mesh_gas.build(state, gas, pool);
  });
  timed("tree.refit", [&] {
    mesh_all.refit_bounds(state, pool);
    if (which.hydro) mesh_gas.refit_bounds(state, pool);
  });
  mesh::PMSolver pm(comm, decomp,
                    mesh::PMConfig{cfg.ng, cfg.box, cfg.rs_cells,
                                   cfg.split_threshold});
  pm.set_thread_pool(pool);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs, gas_pairs;
  timed("tree.pairs", [&] {
    pairs = mesh_all.interaction_pairs(pm.split().cutoff());
    if (which.hydro) {
      gas_pairs = mesh_gas.interaction_pairs(
          sph::SphSolver::interaction_radius(state, mesh_gas));
    }
  });
  count("tree.pairs",
        global_sum(comm, static_cast<double>(pairs.size() + gas_pairs.size())));

  // gpu: owner-leaf launch plans over both pair lists.
  std::size_t plan_owners = 0;
  timed("gpu.plan", [&] {
    plan_owners = gpu::LaunchPlan(mesh_all, pairs).num_owners();
    if (which.hydro) {
      plan_owners += gpu::LaunchPlan(mesh_gas, gas_pairs).num_owners();
    }
  });
  if (plan_owners == 0 && !state.empty()) failures.push_back("probe.gpu_plan");

  // mesh + fft: long-range solve, CIC deposit, distributed FFT round trip.
  timed("mesh.pm_apply", [&] { pm.apply(comm, state, overload); });
  std::vector<double> rho;
  timed("mesh.deposit", [&] { rho = pm.deposit(comm, state); });
  fft::DistributedFFT fft(comm, cfg.ng);
  auto& grid = fft.real_data();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = fft::Complex(i < rho.size() ? rho[i] : 0.0, 0.0);
  }
  timed("fft.roundtrip", [&] {
    fft.forward();
    fft.backward();
  });

  // gravity: short-range kernel over every particle.
  gpu::FlopRegistry flops;
  gpu::LaunchStats grav;
  const double grav_s = timed("gravity.short_range", [&] {
    grav = gravity::compute_short_range(state, mesh_all, &pm.split(),
                                        cfg.gravity, a, nullptr, flops,
                                        &pairs, pool);
  });
  const double interactions =
      global_sum(comm, static_cast<double>(grav.interactions));
  count("gravity.interactions", interactions);
  count("gravity.gflops", global_sum(comm, ratio(grav.flops, grav_s) * 1e-9));
  count("gpu.loads_per_interaction",
        ratio(global_sum(comm, static_cast<double>(grav.global_loads)),
              interactions));

  // sph: CRKSPH density, moments, momentum/energy passes.
  if (which.hydro) {
    sph::SphSolver solver(cfg.sph);
    timed("sph.forces", [&] {
      solver.compute_forces(state, mesh_gas, a, nullptr, flops, &gas_pairs,
                            pool);
    });
    const auto& stats = solver.last_stats();
    double sph_interactions = 0.0;
    for (const auto& [kernel, st] : stats) {
      sph_interactions += static_cast<double>(st.interactions);
    }
    count("sph.interactions", global_sum(comm, sph_interactions));
    const std::pair<const char*, const char*> passes[] = {
        {"sph_density", "sph.density_s"},
        {"crk_moments", "sph.crk_moments_s"},
        {"crk_momentum_energy", "sph.momentum_energy_s"}};
    for (const auto& [kernel, metric] : passes) {
      const auto it = stats.find(kernel);
      if (it != stats.end()) {
        ctx.layers.add(metric, seq, it->second.seconds, Reduce::kMax);
      }
    }
    const auto me = stats.find("crk_momentum_energy");
    if (me != stats.end()) {
      count("sph.momentum_energy_gflops",
            global_sum(comm, ratio(me->second.flops, me->second.seconds) *
                                 1e-9));
    }
  }

  // subgrid: cooling, star formation and feedback over one PM interval.
  integrator::Kdk kdk(sim.background());
  if (which.subgrid) {
    subgrid::SubgridModel model(
        cfg.subgrid, sim.context().cooling_table(cfg.subgrid.cooling));
    const std::vector<double> dt(state.size(), kdk.dt_of(a, a_next));
    timed("subgrid.apply", [&] {
      model.apply(state, mesh_gas, sim.background(), a, dt, nullptr,
                  static_cast<std::uint64_t>(seq));
    });
  }

  // integrator: one full-interval kick and drift of every particle.
  timed("integrator.kick", [&] { kdk.kick(state, a, a_next, nullptr, true); });
  timed("integrator.drift",
        [&] { kdk.drift(state, a, a_next, cfg.box, nullptr); });
  // The step's sub-cycle kick evaluates the cosmological time interval
  // once per active particle: replay one evaluation per particle.
  double dt_sum = 0.0;
  timed("integrator.dt_of", [&] {
    const double n = static_cast<double>(state.size());
    for (std::size_t i = 0; i < state.size(); ++i) {
      const double frac = (static_cast<double>(i) + 1.0) / n;
      dt_sum += kdk.dt_of(a, a + (a_next - a) * frac);
    }
  });
  if (!std::isfinite(dt_sum)) failures.push_back("probe.integrator_dt");

  // cosmology: the Zel'dovich IC draw the config's initialize() runs.
  if (which.ics) {
    const cosmo::PowerSpectrum power(cfg.cosmology);
    cosmo::IcConfig ic;
    ic.np = cfg.np;
    ic.box = cfg.box;
    ic.z_init = cfg.z_init;
    ic.seed = cfg.seed;
    ic.with_baryons = cfg.hydro;
    ic.t_init_K = cfg.t_init_K;
    timed("cosmology.ic", [&] {
      const Particles ics =
          cosmo::generate_zeldovich(comm, sim.background(), power, ic);
    });
  }

  // analysis: the in-situ pipeline of Simulation::run_analysis.
  if (which.analysis) {
    const std::size_t species = cfg.hydro ? 2 : 1;
    const double ll = analysis::fof_linking_length(
        cfg.box, cfg.np * cfg.np * cfg.np * species, 0.2);
    std::vector<analysis::Halo> halos;
    timed("analysis.fof", [&] {
      const auto groups = analysis::fof(state.x, state.y, state.z,
                                        static_cast<float>(ll), 8);
      const auto owned_box = decomp.local_box(comm.rank());
      halos = analysis::halo_catalog(state, groups, &owned_box);
    });
    count("analysis.halos",
          global_sum(comm, static_cast<double>(halos.size())));
    timed("analysis.so", [&] {
      analysis::SoConfig so;
      so.reference_density = sim.background().mean_matter_density();
      so.r_max = std::min(0.25 * cfg.box, 2.0 * overload);
      halos.resize(std::min<std::size_t>(halos.size(), 16));
      const auto so_halos = analysis::so_masses(state, halos, so);
    });
    timed("analysis.galaxies", [&] {
      analysis::GalaxyFinderConfig gcfg;
      gcfg.linking_length =
          static_cast<float>(0.1 * cfg.box / static_cast<double>(cfg.np));
      const auto galaxies = analysis::find_galaxies(state, gcfg);
    });
    timed("analysis.power", [&] {
      const auto pk = analysis::measure_power(comm, pm, state, true);
    });
  }

  // io: blocking node-local write, asynchronous bleed, restore read-back.
  if (which.io) {
    namespace fs = std::filesystem;
    const fs::path root = fs::path(ctx.io_dir) /
                          ("probe_rank" + std::to_string(comm.rank()));
    fs::remove_all(root);
    {
      io::ThrottledStore local(
          io::StoreConfig{(root / "local").string(), 0.0, 0.0, false});
      io::ThrottledStore pfs(
          io::StoreConfig{(root / "pfs").string(), 0.0, 0.0, true});
      io::MultiTierConfig mt;
      mt.rank = comm.rank();
      mt.ckpt = cfg.ckpt;
      io::MultiTierWriter writer(local, pfs, mt);
      io::SnapshotMeta meta;
      meta.step = sim.current_step();
      meta.scale_factor = a;
      meta.rank = comm.rank();
      meta.num_ranks = comm.size();
      timed("io.write_blocked",
            [&] { writer.write_checkpoint(meta, sim.particles()); });
      timed("io.bleed", [&] { writer.drain(); });
      count("io.ckpt_bytes",
            global_sum(comm, static_cast<double>(writer.bytes_written())));
      io::SnapshotMeta restored_meta;
      Particles restored;
      bool ok = false;
      timed("io.restore", [&] {
        ok = io::restore_checkpoint(pfs, meta.step, meta.rank, restored_meta,
                                    restored);
      });
      if (!ok || restored.size() != sim.particles().size()) {
        failures.push_back("probe.io_restore");
      }
    }
    fs::remove_all(root);
  }

  comm.barrier();
  return std::chrono::duration<double>(Clock::now() - probe_start).count();
}

}  // namespace perfbench
