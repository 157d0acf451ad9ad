#include "core/simulation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "analysis/fof.h"
#include "cosmology/ics.h"
#include "cosmology/units.h"
#include "gpu/device.h"
#include "gravity/short_range.h"
#include "integrator/timestep.h"
#include "io/ckpt_audit.h"
#include "sph/eos.h"
#include "util/assertions.h"
#include "util/log.h"

namespace crkhacc::core {
namespace {

/// Canonical per-step phases rolled into PhaseStat imbalance metrics.
/// Every rank reduces over this exact list (collective), so it must be
/// rank-independent; a rank that skipped a phase contributes zero.
constexpr const char* kStepPhases[] = {
    "exchange",     "tree_build", "tree_refit",   "long_range",
    "bin_assign",   "load_balance", "short_range", "subgrid",
    "sdc_snapshot", "sdc_audit",  "checkpoint_io", "analysis",
};

mesh::PMConfig pm_config_of(const SimConfig& config) {
  return mesh::PMConfig{config.ng, config.box, config.rs_cells,
                        config.split_threshold};
}

/// Fill in resolution-derived defaults before any member is constructed
/// from the config (members copy their sub-configs at init time).
SimConfig resolve_config(SimConfig config) {
  const cosmo::Background bg(config.cosmology);
  // Subgrid overdensity gates need the mean comoving gas density.
  config.subgrid.mean_gas_density = bg.mean_matter_density() *
                                    config.cosmology.omega_b /
                                    config.cosmology.omega_m;
  // Resolution-scaled softening (force and accel-criterion length).
  const double spacing = config.box / static_cast<double>(config.np);
  const double softening =
      config.softening < 0.0 ? 0.1 * spacing : config.softening;
  config.softening = softening;
  config.gravity.softening = static_cast<float>(softening);
  config.bins.softening = softening;
  return config;
}

/// Pair-list radius on `mesh`. A periodic mesh reaches one bin, so a
/// radius beyond it is capped there: a one-rank box narrower than the
/// gravity cutoff, or a smoothing length corrupted since the last SDC
/// audit (h <= h_max otherwise keeps the support inside a bin; the audit
/// rolls the corrupted attempt back). Overloaded meshes take r as is.
double pair_radius(const tree::ChainingMesh& mesh, double r) {
  return mesh.periodic() ? std::min(r, mesh.min_bin_width()) : r;
}

}  // namespace

Simulation::Simulation(SimContext& ctx, comm::Communicator& comm,
                       const SimConfig& config)
    : comm_(comm),
      config_(resolve_config(config)),
      ctx_(ctx),
      pool_(ctx_.thread_pool()),
      pool_baseline_(pool_.stats()),
      decomp_(comm.size(), config.box),
      bg_(config_.cosmology),
      power_(config_.cosmology),
      pm_(comm, decomp_, pm_config_of(config_)),
      sph_(config_.sph),
      subgrid_(config_.subgrid, ctx_.cooling_table(config_.subgrid.cooling)),
      kdk_(bg_),
      lb_(comm, decomp_, config_.lb),
      auditor_(config_.sdc),
      snapshot_(config_.sdc.page_bytes),
      trace_(config_.trace) {
  trace_.set_rank(comm.rank());
  // Chaining-mesh bins must cover the short-range cutoff and the widest
  // SPH support; ghosts must cover one bin width so every owned
  // particle's neighborhood is complete.
  const double spacing = config_.box / static_cast<double>(config_.np);
  cm_bin_width_ =
      std::max(pm_.split().cutoff(),
               3.0 * static_cast<double>(config_.sph.eta) * spacing);
  overload_ = cm_bin_width_;
  // A periodic mesh (one-rank world) reaches one period at most: its
  // bins are no wider than the box.
  if (decomp_.self_periodic()) {
    cm_bin_width_ = std::min(cm_bin_width_, config_.box);
  }
  // Cap smoothing lengths so kernel support never exceeds a CM bin.
  sph_.mutable_config().h_max =
      static_cast<float>(0.45 * cm_bin_width_ / sph::CubicSpline::kSupport *
                         2.0);
  pm_.set_thread_pool(&pool_);
  a_ = cosmo::Background::a_of_z(config_.z_init);
}

Simulation::~Simulation() {
  // Disarm the drill on teardown so the injector's armed-reference
  // count balances however the owner sequences destruction.
  if (sdc_fault_ != nullptr) sdc_fault_->release_armed();
}

void Simulation::set_memory_fault_injector(const MemFaultInjector* injector) {
  if (sdc_fault_ == injector) return;
  if (sdc_fault_ != nullptr) sdc_fault_->release_armed();
  if (injector != nullptr) injector->retain_armed();
  sdc_fault_ = injector;
}

double Simulation::a_at_step(std::uint64_t s) const {
  const double a_init = cosmo::Background::a_of_z(config_.z_init);
  const double a_final = cosmo::Background::a_of_z(config_.z_final);
  const double frac = static_cast<double>(s) /
                      static_cast<double>(config_.num_pm_steps);
  return a_init + (a_final - a_init) * frac;
}

std::vector<std::uint32_t> Simulation::gas_indices() const {
  std::vector<std::uint32_t> gas;
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    if (particles_.is_gas(i)) gas.push_back(static_cast<std::uint32_t>(i));
  }
  return gas;
}

void Simulation::initialize() {
  // Shared-context fast path: a primed state cached under this config's
  // key is bitwise the state the code below would produce (the key
  // covers every input of this path; thread count is excluded by the
  // pool's determinism contract), so IC generation, the exchange, and
  // the priming force pass are all skipped. NOTE: the skip elides this
  // rank's IC/exchange collectives, so in multi-rank runs every rank
  // must hit or miss together — guaranteed when each rank's context saw
  // the same scenario sequence (the core/context.h sharing contract).
  const std::string key =
      SimContext::initial_state_key(config_, comm_.rank(), comm_.size());
  if (const auto cached = ctx_.find_initial_state(key)) {
    particles_ = cached->particles;
    a_ = cached->scale_factor;
    step_ = 0;
    return;
  }

  cosmo::IcConfig ic;
  ic.np = config_.np;
  ic.box = config_.box;
  ic.z_init = config_.z_init;
  ic.seed = config_.seed;
  ic.with_baryons = config_.hydro;
  ic.t_init_K = config_.t_init_K;
  particles_ = cosmo::generate_zeldovich(comm_, bg_, power_, ic);
  a_ = cosmo::Background::a_of_z(config_.z_init);
  step_ = 0;

  // Clamp initial smoothing lengths to the CM support limit.
  const float h_max = sph_.config().h_max;
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    if (particles_.is_gas(i)) {
      particles_.hsml[i] = std::min(particles_.hsml[i], h_max);
    }
  }

  exchange_and_overload(comm_, decomp_, particles_, overload_);
  prime_solver_state();

  ctx_.store_initial_state(key, CachedInitialState{particles_, a_});
}

void Simulation::initialize_from(Particles&& particles, std::uint64_t step) {
  particles_ = std::move(particles);
  step_ = step;
  a_ = a_at_step(step);
}

tree::ChainingMesh Simulation::make_mesh() const {
  if (decomp_.self_periodic()) {
    return tree::ChainingMesh(decomp_.local_box(comm_.rank()),
                              {cm_bin_width_, 64, /*periodic=*/true});
  }
  return tree::ChainingMesh(decomp_.overloaded_box(comm_.rank(), overload_),
                            {cm_bin_width_, 64});
}

void Simulation::prime_solver_state() {
  // One hydro evaluation to populate rho, h, cs — needed by the first
  // bin assignment and by the subgrid thresholds.
  if (!config_.hydro) return;
  tree::ChainingMesh gas_mesh = make_mesh();
  gas_mesh.build(particles_, gas_indices(), &pool_);
  particles_.clear_scratch();
  sph_.compute_forces(particles_, gas_mesh, a_, nullptr, flops_, nullptr,
                      &pool_);
  sph_.update_smoothing_lengths(particles_, nullptr);
  particles_.clear_scratch();
}

int Simulation::assign_timestep_bins(double dt_pm) {
  const std::size_t n = particles_.size();
  std::vector<double> limit(n, std::numeric_limits<double>::infinity());
  const double a3 = a_ * a_ * a_;
  for (std::size_t i = 0; i < n; ++i) {
    // Acceleration criterion (ax holds the peculiar long-range kick).
    limit[i] = integrator::accel_timestep(config_.bins, a_, particles_.ax[i],
                                          particles_.ay[i], particles_.az[i]);
    if (particles_.is_gas(i)) {
      const float cs = sph::sound_speed(particles_.u[i]);
      if (cs > 0.0f && particles_.hsml[i] > 0.0f) {
        limit[i] = std::min(
            limit[i], static_cast<double>(sph_.config().cfl) * a_ *
                          particles_.hsml[i] / cs);
      }
      if (config_.subgrid_on && particles_.rho[i] > 0.0f) {
        const double n_h = subgrid::n_hydrogen_cgs(
            particles_.rho[i] / a3, config_.subgrid.cooling.h,
            config_.subgrid.cooling.x_hydrogen);
        const bool overdense =
            particles_.rho[i] >
            config_.subgrid.star_formation.min_overdensity *
                config_.subgrid.mean_gas_density;
        if (overdense && n_h > config_.subgrid.star_formation.n_h_threshold) {
          const double t_dyn = std::sqrt(
              3.0 * std::numbers::pi /
              (32.0 * units::kGravity * particles_.rho[i] / a3));
          limit[i] = std::min(limit[i], 0.25 * t_dyn);
        }
      }
    }
  }
  int depth = integrator::assign_bins(particles_, limit, dt_pm, config_.bins,
                                      &last_anomalies_);
  if (config_.flat_stepping) {
    for (std::size_t i = 0; i < n; ++i) {
      particles_.bin[i] = static_cast<std::uint8_t>(depth);
    }
  }
  return depth;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
Simulation::filter_active_pairs(
    const tree::ChainingMesh& mesh,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
    const std::vector<std::uint8_t>& active) const {
  std::vector<std::uint8_t> leaf_active(mesh.num_leaves(), 0);
  const auto& perm = mesh.permutation();
  for (std::size_t l = 0; l < mesh.num_leaves(); ++l) {
    const auto& leaf = mesh.leaf(l);
    for (std::uint32_t s = leaf.begin; s < leaf.end; ++s) {
      if (active[perm[s]]) {
        leaf_active[l] = 1;
        break;
      }
    }
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> filtered;
  filtered.reserve(pairs.size());
  for (const auto& pair : pairs) {
    if (leaf_active[pair.first] || leaf_active[mesh.base_leaf(pair.second)]) {
      filtered.push_back(pair);
    }
  }
  return filtered;
}

StepReport Simulation::step_body(SdcStepStats* stats) {
  // Baseline for this attempt's solver-side non-finite census: the
  // counter never resets, so the audit reads the per-attempt delta (a
  // clean replay must not inherit the corrupt attempt's count).
  sph_nonfinite_baseline_ = sph_.nonfinite_smoothing_targets();
  StepReport report;
  report.step = step_;
  const double a0 = a_at_step(step_);
  const double a1 = a_at_step(step_ + 1);
  report.a0 = a0;
  report.a1 = a1;
  Stopwatch step_watch;

  // --- 1. exchange + overload refresh -----------------------------------
  {
    ScopedTimer t(timers_, timers::kMisc);
    report.exchange =
        exchange_and_overload(comm_, decomp_, particles_, overload_);
  }

  // --- 2. chaining mesh + trees, built once per PM step ------------------
  tree::ChainingMesh mesh_all = make_mesh();
  tree::ChainingMesh mesh_gas = make_mesh();
  {
    ScopedTimer t(timers_, timers::kTreeBuild);
    HACC_TRACE_SPAN("tree_build");
    mesh_all.build(particles_, &pool_);
    if (config_.hydro) mesh_gas.build(particles_, gas_indices(), &pool_);
  }

  // --- 3. long-range spectral solve + PM-level kick ----------------------
  {
    ScopedTimer t(timers_, timers::kLongRange);
    HACC_TRACE_SPAN("long_range");
    pm_.apply(comm_, particles_, overload_);
    const double a_mid = 0.5 * (a0 + a1);
    const float to_peculiar = static_cast<float>(1.0 / (a_mid * a_mid));
    for (std::size_t i = 0; i < particles_.size(); ++i) {
      particles_.ax[i] *= to_peculiar;
      particles_.ay[i] *= to_peculiar;
      particles_.az[i] *= to_peculiar;
    }
    // Full-step long-range kick; carries the (once-per-interval) drag.
    kdk_.kick(particles_, a0, a1, nullptr, /*with_drag=*/true);
  }

  // SDC drill point: between the long-range and short-range kernels.
  sdc_inject(stats);

  // --- 4. timestep bin assignment ----------------------------------------
  const double dt_pm = kdk_.dt_of(a0, a1);
  int depth = 0;
  {
    HACC_TRACE_SPAN("bin_assign");
    depth = assign_timestep_bins(dt_pm);
  }
  report.depth = depth;
  // Deepest bins first in every leaf: each substep's active particles
  // then lead their leaves, and the pair launches skip the inactive
  // rest chunk by chunk.
  {
    ScopedTimer t(timers_, timers::kTreeBuild);
    mesh_all.order_members_by_bin(particles_, &pool_);
    if (config_.hydro) mesh_gas.order_members_by_bin(particles_, &pool_);
  }

  // --- 5. sub-cycled short-range solve ------------------------------------
  const std::uint64_t nfine = 1ull << depth;
  report.substeps = nfine;

  // Dynamic load-balance decision: collective, census-driven, between
  // the mesh build and the pair kernels. Disabled (the default) runs
  // zero collectives here, keeping untouched configs bitwise unchanged
  // comm-op for comm-op.
  LbDecision lb;
  if (lb_.enabled()) {
    HACC_TRACE_SPAN("load_balance");
    // The previous step's measured short-range seconds exist only once
    // tracing has flushed a step; decisions stay census-only otherwise.
    const double measured =
        (config_.trace.enabled && step_ > 0)
            ? trace_.step_seconds(step_ - 1, "short_range")
            : 0.0;
    lb = lb_.decide(mesh_all, nfine, measured);
    report.lb_imbalance_before = lb.imbalance_before;
    report.lb_imbalance_after = lb.imbalance_after;
  }
  const double da_fine = (a1 - a0) / static_cast<double>(nfine);
  std::vector<std::uint8_t> active;
  std::vector<double> dt_particle;

  for (std::uint64_t s = 0; s < nfine; ++s) {
    HACC_TRACE_SPAN("substep");
    const double a_s = a0 + static_cast<double>(s) * da_fine;
    integrator::activity_mask(particles_, s, depth, active);

    {
      ScopedTimer t(timers_, timers::kTreeBuild);
      if (config_.rebuild_tree_every_substep) {
        HACC_TRACE_SPAN("tree_build");
        mesh_all.build(particles_, &pool_);
        if (config_.hydro) mesh_gas.build(particles_, gas_indices(), &pool_);
        mesh_all.order_members_by_bin(particles_, &pool_);
        if (config_.hydro) mesh_gas.order_members_by_bin(particles_, &pool_);
      } else {
        HACC_TRACE_SPAN("tree_refit");
        mesh_all.refit_bounds(particles_, &pool_);
        if (config_.hydro) mesh_gas.refit_bounds(particles_, &pool_);
      }
    }

    {
      ScopedTimer t(timers_, timers::kShortRange);
      HACC_TRACE_SPAN("short_range");
      // Zero force accumulators of active particles only; inactive keep
      // stale values that no kick reads.
      std::uint64_t n_active = 0;
      for (std::size_t i = 0; i < particles_.size(); ++i) {
        if (!active[i]) continue;
        ++n_active;
        particles_.ax[i] = 0.0f;
        particles_.ay[i] = 0.0f;
        particles_.az[i] = 0.0f;
        particles_.du[i] = 0.0f;
      }
      report.active_updates += n_active;

      // Interaction lists rebuilt from the refit AABBs, filtered to leaf
      // pairs touching an active leaf.
      const double a_sub_mid = a_s + 0.5 * da_fine;
      {
        std::vector<std::pair<std::uint32_t, std::uint32_t>> active_pairs;
        {
          HACC_TRACE_SPAN("pairs_build");
          const auto pairs = mesh_all.interaction_pairs(
              pair_radius(mesh_all, pm_.split().cutoff()));
          active_pairs = filter_active_pairs(mesh_all, pairs, active);
        }
        if (lb.is_donor()) {
          // Ship the migrated owner tasks, run the rest locally, copy
          // the helper's accumulations back — bitwise identical to the
          // unbalanced launch per particle (see core/load_balancer.h).
          lb_.donor_substep(particles_, mesh_all, active_pairs, &pm_.split(),
                            config_.gravity, a_sub_mid, active.data(), flops_,
                            &pool_, lb, s);
          ++report.lb_packets_migrated;
        } else {
          gravity::compute_short_range(particles_, mesh_all, &pm_.split(),
                                       config_.gravity, a_sub_mid,
                                       active.data(), flops_, &active_pairs,
                                       &pool_);
          // A helper serves its donors' packets for this substep index
          // right after its own launch (donor and helper sets are
          // disjoint, so the blocking protocol cannot cycle).
          if (lb.is_helper()) {
            lb_.serve(lb, s, &pm_.split(), config_.gravity, flops_, &pool_);
          }
        }
      }
      if (config_.hydro && mesh_gas.num_particles() > 0) {
        std::vector<std::pair<std::uint32_t, std::uint32_t>> active_pairs;
        {
          HACC_TRACE_SPAN("pairs_build");
          const auto pairs = mesh_gas.interaction_pairs(pair_radius(
              mesh_gas,
              sph::SphSolver::interaction_radius(particles_, mesh_gas)));
          active_pairs = filter_active_pairs(mesh_gas, pairs, active);
        }
        sph_.compute_forces(particles_, mesh_gas, a_sub_mid, active.data(),
                            flops_, &active_pairs, &pool_);
      }

      // Kick each active particle across its own bin interval (drag-free;
      // the PM kick already carried the drag for the whole step). One
      // time integral per active bin, none per particle.
      {
        HACC_TRACE_SPAN("kick");
        kdk_.kick_active_bins(particles_, active, s, depth, a0, da_fine,
                              dt_particle);
      }

      // Subgrid sources for active gas (per-particle bin-length dt).
      // The stochastic stream is keyed on (PM step, fine substep) so a
      // run restored from a checkpoint replays identical draws.
      if (config_.hydro && config_.subgrid_on) {
        const std::uint64_t stream = (step_ << 16) | s;
        report.subgrid += subgrid_.apply(particles_, mesh_gas, bg_, a_s,
                                         dt_particle, active.data(), stream);
        sph_.update_smoothing_lengths(particles_, active.data());
      }

      // All particles drift at the fine cadence.
      {
        HACC_TRACE_SPAN("drift");
        kdk_.drift(particles_, a_s, a_s + da_fine, config_.box, nullptr);
      }
    }
  }

  // Serve the remaining substeps of donors that sub-cycle deeper than
  // this rank (their requests are already queued; recv order is FIFO
  // per donor, so the drain picks up exactly where the loop stopped).
  if (lb.is_helper()) {
    ScopedTimer t(timers_, timers::kShortRange);
    HACC_TRACE_SPAN("short_range");
    lb_.drain(lb, nfine, &pm_.split(), config_.gravity, flops_, &pool_);
  }

  // SDC drill point: after the sub-cycle, right before the audit.
  sdc_inject(stats);

  a_ = a1;
  ++step_;

  // --- 6. in situ analysis ------------------------------------------------
  // (cadence handled by run(); step() leaves analysis to the caller)

  report.seconds = step_watch.seconds();
  return report;
}

void Simulation::write_step_checkpoint(io::MultiTierWriter* writer,
                                       StepReport& report) {
  // --- 7. multi-tier checkpoint -------------------------------------------
  // Runs after the SDC audit committed the step, so only audited state
  // is ever persisted (a corrupt array must not poison the at-rest tier
  // the escalation path will restore from).
  if (!writer) return;
  ScopedTimer t(timers_, timers::kIO);
  HACC_TRACE_SPAN("checkpoint_io");
  io::SnapshotMeta meta;
  meta.step = step_;
  meta.scale_factor = a_;
  meta.rank = comm_.rank();
  meta.num_ranks = comm_.size();
  report.io_blocked_seconds = writer->write_checkpoint(meta, particles_);
}

void Simulation::sdc_capture(SdcStepStats& stats) {
  HACC_TRACE_SPAN("sdc_snapshot");
  Stopwatch watch;
  const auto regions = snapshot_regions(std::as_const(particles_));
  snapshot_.capture(regions);
  snap_step_ = step_;
  snap_a_ = a_;
  snap_count_ = particles_.size();
  stats.snapshot_seconds += watch.seconds();
  stats.snapshot_bytes = snapshot_.bytes();
  stats.snapshot_pages = snapshot_.pages();
  // Pre-step conserved sums: the reference every audit of this step's
  // attempts gates against (collective).
  snap_reference_ = measure_conservation(comm_, particles_);
}

bool Simulation::sdc_rollback() {
  particles_.resize(snap_count_);
  auto regions = snapshot_regions(particles_);
  const bool restored = snapshot_.restore(regions);
  // The restore verdict is collective: if any rank's snapshot buffer
  // failed its CRC, every rank abandons the replay together.
  if (!comm_.all_agree(restored)) return false;
  step_ = snap_step_;
  a_ = snap_a_;
  return true;
}

void Simulation::sdc_inject(SdcStepStats* stats) {
  // The opportunity counter is monotonic — never rewound on replay, and
  // advanced even with no injector armed — so drill-point numbering is
  // a property of the step stream alone, and a one-shot scripted flip
  // cannot recur and poison its own replay.
  const std::uint64_t opportunity = sdc_opportunity_++;
  if (sdc_fault_ == nullptr || particles_.empty()) return;
  const auto flip = sdc_fault_->draw(opportunity);
  if (!flip) return;
  const std::string what = apply_flip(particles_, *flip);
  if (stats != nullptr) ++stats->injected_flips;
  HACC_LOG_WARN("rank %d: SDC drill flipped %s", comm_.rank(), what.c_str());
}

std::uint32_t Simulation::sdc_audit(SdcStepStats& stats) {
  HACC_TRACE_SPAN("sdc_audit");
  Stopwatch watch;
  ++stats.audits;
  AuditContext ctx;
  ctx.box = config_.box;
  // Ghost images live up to one overload width outside the box; double
  // it so legitimate intra-step drift never trips the bounds gate.
  ctx.position_margin = 2.0 * overload_;
  ctx.domain = decomp_.local_box(comm_.rank());
  ctx.domain_slack = overload_;
  ctx.cm_bin_width = cm_bin_width_;
  ctx.reference = snap_reference_;
  ctx.timestep = last_anomalies_;
  ctx.solver_nonfinite =
      sph_.nonfinite_smoothing_targets() - sph_nonfinite_baseline_;
  const std::uint32_t verdict = auditor_.audit(comm_, particles_, ctx);
  stats.failed_checks |= verdict;
  stats.audit_seconds += watch.seconds();
  if (verdict != 0) {
    HACC_LOG_WARN("rank %d: step %llu audit failed (%s): %s", comm_.rank(),
                  static_cast<unsigned long long>(snap_step_),
                  sdc_check_names(verdict).c_str(),
                  auditor_.last_failure().empty()
                      ? "flagged on another rank"
                      : auditor_.last_failure().c_str());
  }
  return verdict;
}

StepReport Simulation::step(io::MultiTierWriter* writer) {
  // Install this rank's recorder for the step; spans are no-ops when
  // tracing is disabled, and the flush + imbalance collectives below run
  // only when it is enabled (so comm-op counts match untraced runs).
  util::TraceRecorder::Context trace_ctx(&trace_);
  const std::uint64_t step_index = step_;
  StepReport report;
  {
    HACC_TRACE_SPAN("step");
    report = step_guarded(writer);
  }
  if (config_.trace.enabled) {
    trace_.flush(step_index);
    collect_phase_stats(report, step_index);
  }
  return report;
}

void Simulation::collect_phase_stats(StepReport& report,
                                     std::uint64_t step_index) {
  constexpr std::size_t n = std::size(kStepPhases);
  std::vector<double> sum(n), max(n);
  for (std::size_t i = 0; i < n; ++i) {
    sum[i] = max[i] = trace_.step_seconds(step_index, kStepPhases[i]);
  }
  comm_.allreduce(std::span<double>(sum), comm::ReduceOp::kSum);
  comm_.allreduce(std::span<double>(max), comm::ReduceOp::kMax);
  for (std::size_t i = 0; i < n; ++i) {
    if (max[i] <= 0.0) continue;  // phase never ran anywhere this step
    report.phases.push_back(
        {kStepPhases[i], sum[i] / static_cast<double>(comm_.size()), max[i]});
  }
}

StepReport Simulation::step_guarded(io::MultiTierWriter* writer) {
  if (!config_.sdc.enabled) {
    StepReport report = step_body(nullptr);
    write_step_checkpoint(writer, report);
    return report;
  }

  SdcStepStats stats;
  sdc_capture(stats);
  StepReport report;
  for (int attempt = 0;; ++attempt) {
    report = step_body(&stats);
    if (sdc_audit(stats) == 0) break;
    ++stats.detections;
    // The verdict mask and attempt count are identical on every rank,
    // so replay-vs-escalate is a collective decision by construction.
    if (attempt >= config_.sdc.max_replays) {
      stats.escalated = true;
      HACC_LOG_WARN("rank %d: step %llu replay budget (%d) exhausted",
                    comm_.rank(),
                    static_cast<unsigned long long>(snap_step_),
                    config_.sdc.max_replays);
      break;
    }
    if (!sdc_rollback()) {
      // The in-memory snapshot itself failed its CRC: nothing intact to
      // replay from — straight to checkpoint restore.
      stats.failed_checks |= kSdcCheckSnapshot;
      stats.escalated = true;
      break;
    }
    ++stats.rollbacks;
    ++stats.replays;
  }
  report.sdc = stats;
  // A step that never passed its audit is not checkpointed; run() falls
  // back to the newest committed checkpoint instead.
  if (!stats.escalated) write_step_checkpoint(writer, report);
  return report;
}

AnalysisResult Simulation::run_analysis() {
  AnalysisResult result;
  result.a = a_;
  ScopedTimer t(timers_, timers::kAnalysis);
  // Analysis spans commit at the next step's flush (or the end-of-run
  // flush), so their imbalance stats attribute to the following step.
  util::TraceRecorder::Context trace_ctx(&trace_);
  HACC_TRACE_SPAN("analysis");

  // FOF halo finding over the rank-local (overloaded) particle cloud. A
  // one-rank world evolves no replicas, so its cloud is built here, by
  // the exchange's overload rule, and dropped after the analysis.
  Particles replicas;
  if (decomp_.self_periodic()) {
    replicas = analysis_replica_cloud(decomp_, particles_, overload_);
  }
  const Particles& cloud = decomp_.self_periodic() ? replicas : particles_;
  const std::size_t species_count = config_.hydro ? 2 : 1;
  const std::size_t n_global =
      config_.np * config_.np * config_.np * species_count;
  const double ll = analysis::fof_linking_length(config_.box, n_global, 0.2);
  const auto groups = analysis::fof(cloud.x, cloud.y, cloud.z,
                                    static_cast<float>(ll), /*min_members=*/8);
  const auto owned_box = decomp_.local_box(comm_.rank());
  result.local_halos = analysis::halo_catalog(cloud, groups, &owned_box);

  // Survey-facing SO masses for the most massive local halos.
  {
    analysis::SoConfig so_config;
    so_config.reference_density = bg_.mean_matter_density();
    so_config.r_max = std::min(0.25 * config_.box, 2.0 * overload_);
    std::vector<analysis::Halo> seeds(
        result.local_halos.begin(),
        result.local_halos.begin() +
            std::min<std::size_t>(result.local_halos.size(), 16));
    result.so_halos = analysis::so_masses(cloud, seeds, so_config);
  }

  // Galaxies from the stellar component.
  {
    analysis::GalaxyFinderConfig galaxy_config;
    galaxy_config.linking_length = static_cast<float>(
        0.1 * config_.box / static_cast<double>(config_.np));
    result.galaxies = analysis::find_galaxies(cloud, galaxy_config);
    result.galaxy_count = comm_.allreduce_scalar(
        static_cast<std::int64_t>(result.galaxies.size()),
        comm::ReduceOp::kSum);
  }

  std::int64_t local_count = static_cast<std::int64_t>(result.local_halos.size());
  result.halo_count = comm_.allreduce_scalar(local_count, comm::ReduceOp::kSum);
  double local_max = result.local_halos.empty() ? 0.0
                                                : result.local_halos.front().mass;
  result.largest_halo_mass =
      comm_.allreduce_scalar(local_max, comm::ReduceOp::kMax);

  // Species census.
  std::int64_t stars = 0, bhs = 0;
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    if (!particles_.is_owned(i)) continue;
    if (particles_.species[i] == static_cast<std::uint8_t>(Species::kStar)) {
      ++stars;
    } else if (particles_.species[i] ==
               static_cast<std::uint8_t>(Species::kBlackHole)) {
      ++bhs;
    }
  }
  result.star_count = comm_.allreduce_scalar(stars, comm::ReduceOp::kSum);
  result.bh_count = comm_.allreduce_scalar(bhs, comm::ReduceOp::kSum);

  // Volume-weighted gas clumping from SPH densities.
  {
    double weights[2] = {0.0, 0.0};  // {sum V, sum V rho = sum m}
    double sum_v_rho2 = 0.0;         // sum V rho^2 = sum m rho
    for (std::size_t i = 0; i < particles_.size(); ++i) {
      if (!particles_.is_owned(i) || !particles_.is_gas(i)) continue;
      if (particles_.rho[i] <= 0.0f) continue;
      const double volume = particles_.mass[i] / particles_.rho[i];
      weights[0] += volume;
      weights[1] += particles_.mass[i];
      sum_v_rho2 += static_cast<double>(particles_.mass[i]) * particles_.rho[i];
    }
    comm_.allreduce(std::span<double>(weights, 2), comm::ReduceOp::kSum);
    sum_v_rho2 = comm_.allreduce_scalar(sum_v_rho2, comm::ReduceOp::kSum);
    if (weights[0] > 0.0 && weights[1] > 0.0) {
      const double mean = weights[1] / weights[0];
      result.gas_clumping = (sum_v_rho2 / weights[0]) / (mean * mean);
    }
  }

  // Clustering probes.
  result.power = analysis::measure_power(comm_, pm_, particles_,
                                         /*subtract_shot_noise=*/true);
  analysis::SliceConfig slice_config;
  slice_config.z_lo = 0.0;
  slice_config.z_hi = config_.box / 8.0;
  slice_config.resolution = 64;
  slice_config.box = config_.box;
  result.slice =
      analysis::density_temperature_slice(comm_, particles_, slice_config);
  return result;
}

void Simulation::recover(io::ThrottledStore& pfs, RunResult& result,
                         io::MultiTierWriter* writer) {
  if (config_.ckpt.audit_on_restore) {
    // Pre-restore audit: each rank owns its rank-local files, so every
    // rank audits (and repairs) only those — collectively this covers
    // the whole tree without cross-rank file races. Repairs come from
    // the writer's node-local tier when redundant copies were kept.
    io::CkptAuditOptions opts;
    opts.only_rank = comm_.rank();
    // Stride by the *current* rank count: after a shrink this rank will
    // restore every writer rank r with r % size == rank, so it must audit
    // (and repair) that whole adoption set, not just its own number.
    opts.rank_stride = comm_.size();
    opts.repair = writer != nullptr;
    std::vector<io::ThrottledStore*> sources;
    if (writer != nullptr) sources.push_back(&writer->local_tier());
    const io::CkptAuditReport audit = io::audit_checkpoints(pfs, opts, sources);
    ++result.ckpt_audit_runs;
    result.ckpt_audit_damaged_chunks += static_cast<std::uint64_t>(
        comm_.allreduce_scalar(static_cast<std::int64_t>(audit.chunks_damaged),
                               comm::ReduceOp::kSum));
    result.ckpt_audit_repaired_chunks += static_cast<std::uint64_t>(
        comm_.allreduce_scalar(static_cast<std::int64_t>(audit.chunks_repaired),
                               comm::ReduceOp::kSum));
    if (audit.chunks_damaged > 0) {
      HACC_LOG_WARN(
          "rank %d: pre-restore audit found %llu damaged chunk(s), "
          "repaired %llu",
          comm_.rank(), static_cast<unsigned long long>(audit.chunks_damaged),
          static_cast<unsigned long long>(audit.chunks_repaired));
    }
  }

  // Candidate steps are enumerated once on rank 0 and broadcast, so every
  // rank probes the same sequence and the restore decision stays
  // collective even when ranks disagree about which files are intact.
  std::vector<std::uint64_t> candidates;
  if (comm_.rank() == 0) candidates = io::checkpoint_steps(pfs);
  comm_.bcast(candidates, 0);

  for (std::uint64_t step : candidates) {
    ++result.recovery_attempts;
    // Each step directory records its own writer count; rank 0 reads it
    // and broadcasts so every rank applies the same adoption map. When it
    // differs from the current rank count (the step predates a shrink),
    // old rank file f is restored by current rank f % size, ascending —
    // the lost domains ride along and the first exchange re-bins them.
    std::vector<std::int64_t> writer_count(1, 0);
    if (comm_.rank() == 0) {
      writer_count[0] = io::checkpoint_writer_count(pfs, step);
    }
    comm_.bcast(writer_count, 0);
    const int m = static_cast<int>(writer_count[0]);
    const int n = comm_.size();

    Particles restored;
    io::SnapshotMeta meta;
    bool ok = m >= 1;
    bool restored_any = false;
    std::int64_t adopted = 0;
    for (int f = comm_.rank(); ok && f < m; f += n) {
      ok = io::restore_checkpoint(pfs, step, f, meta, restored) &&
           meta.step == step && meta.rank == f &&
           meta.num_ranks == static_cast<std::int32_t>(m);
      if (ok) {
        restored_any = true;
        if (f != comm_.rank()) ++adopted;
      }
    }
    // A checkpoint is only usable if EVERY rank validated its files.
    if (comm_.all_agree(ok)) {
      result.adopted_rank_files += static_cast<std::uint64_t>(
          comm_.allreduce_scalar(adopted, comm::ReduceOp::kSum));
      particles_ = std::move(restored);
      step_ = step;
      // Ranks with no file (m < n after a grow) rebuild the step's scale
      // factor from the schedule — bitwise equal to the stored value,
      // since the writer stamped a_at_step(step) at the step boundary.
      a_ = restored_any ? meta.scale_factor : a_at_step(step);
      if (m != n && comm_.rank() == 0) {
        HACC_LOG_WARN(
            "recovering step %llu written by %d rank(s) onto %d rank(s): "
            "adopting by round-robin remap",
            static_cast<unsigned long long>(step), m, n);
      }
      if (step != candidates.front()) {
        HACC_LOG_WARN(
            "rank %d: newest checkpoint corrupt; recovered from step %llu",
            comm_.rank(), static_cast<unsigned long long>(step));
      }
      return;
    }
    ++result.checkpoint_fallbacks;
  }
  ++result.restarts_from_ics;
  initialize();
}

RunResult Simulation::run(io::MultiTierWriter* writer, io::ThrottledStore* pfs,
                          const io::FaultInjector* fault) {
  RunResult result;
  run_slice(std::numeric_limits<std::uint64_t>::max(), result, writer, pfs,
            fault);
  finalize_run(result, writer);
  return result;
}

namespace {

/// Fold `incoming` phase stats into `stats` in a single pass: one index
/// map lookup per phase instead of a linear name scan (the scan made
/// long campaigns fold in O(phases^2) per step).
void fold_phase_stats(std::vector<PhaseStat>& stats,
                      const std::vector<PhaseStat>& incoming) {
  std::unordered_map<std::string, std::size_t> index;
  index.reserve(stats.size() + incoming.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    index.emplace(stats[i].name, i);
  }
  for (const PhaseStat& phase : incoming) {
    const auto [it, inserted] = index.emplace(phase.name, stats.size());
    if (inserted) {
      stats.push_back(phase);
    } else {
      stats[it->second].mean_seconds += phase.mean_seconds;
      stats[it->second].max_seconds += phase.max_seconds;
    }
  }
}

}  // namespace

bool Simulation::run_slice(std::uint64_t max_steps, RunResult& result,
                           io::MultiTierWriter* writer, io::ThrottledStore* pfs,
                           const io::FaultInjector* fault) {
  std::uint64_t done_this_slice = 0;
  while (step_ < static_cast<std::uint64_t>(config_.num_pm_steps) &&
         done_this_slice < max_steps) {
    ++done_this_slice;
    if (fault && fault->should_fail(fault_trial_++,
                                    kdk_.dt_of(a_at_step(step_),
                                               a_at_step(step_ + 1)))) {
      ++result.interruptions;
      CHECK_MSG(writer && pfs, "fault injected without checkpointing");
      // "Machine interruption": all ranks fall back to the newest fully
      // bled checkpoint that still validates (or regenerate ICs if none
      // survived).
      writer->drain();
      comm_.barrier();
      recover(*pfs, result, writer);
      comm_.barrier();
      continue;
    }

    const auto report = step(writer);
    result.sdc_audits += report.sdc.audits;
    result.sdc_detections += report.sdc.detections;
    result.sdc_rollbacks += report.sdc.rollbacks;
    result.sdc_replays += report.sdc.replays;
    result.sdc_injected_flips += report.sdc.injected_flips;
    if (report.sdc.escalated) {
      // Replay budget exhausted (or the snapshot itself was corrupt):
      // treat it like a machine interruption and fall back to the
      // newest committed checkpoint.
      ++result.sdc_escalations;
      CHECK_MSG(writer && pfs, "SDC escalation without checkpointing");
      writer->drain();
      comm_.barrier();
      recover(*pfs, result, writer);
      comm_.barrier();
      continue;
    }
    result.reports.push_back(report);
    fold_phase_stats(result.phase_stats, report.phases);
    result.lb_packets_migrated += report.lb_packets_migrated;
    if (report.lb_imbalance_before > 0.0) {
      ++result.lb_steps;
      result.lb_imbalance_before += report.lb_imbalance_before;
      result.lb_imbalance_after += report.lb_imbalance_after;
    }
    ++result.steps_done;
    if (config_.analysis_every > 0 &&
        (step_ % static_cast<std::uint64_t>(config_.analysis_every) == 0 ||
         step_ == static_cast<std::uint64_t>(config_.num_pm_steps))) {
      result.analyses.push_back(run_analysis());
    }
  }
  return step_ >= static_cast<std::uint64_t>(config_.num_pm_steps);
}

void Simulation::finalize_run(RunResult& result, io::MultiTierWriter* writer) {
  result.completed = step_ >= static_cast<std::uint64_t>(config_.num_pm_steps);
  if (writer) result.io = writer->stats();
  result.threading = util::stats_since(pool_.stats(), pool_baseline_);
  result.simd_isa =
      config_.gravity.launch.vector_tiles() ? gpu::simd::kIsaName : "none";
  if (config_.trace.enabled) {
    // Commit trailing analysis spans, then surface the local counters.
    trace_.flush(step_);
    result.trace_events = trace_.events_recorded();
    result.trace_dropped = trace_.events_dropped();
  }
}

void RunResult::merge(const RunResult& other) {
  steps_done += other.steps_done;
  interruptions += other.interruptions;
  recovery_attempts += other.recovery_attempts;
  checkpoint_fallbacks += other.checkpoint_fallbacks;
  restarts_from_ics += other.restarts_from_ics;
  rank_losses += other.rank_losses;
  shrink_recoveries += other.shrink_recoveries;
  adopted_rank_files += other.adopted_rank_files;
  ckpt_audit_runs += other.ckpt_audit_runs;
  ckpt_audit_damaged_chunks += other.ckpt_audit_damaged_chunks;
  ckpt_audit_repaired_chunks += other.ckpt_audit_repaired_chunks;
  io.local_retries += other.io.local_retries;
  io.pfs_retries += other.io.pfs_retries;
  io.verify_failures += other.io.verify_failures;
  io.bleed_failures += other.io.bleed_failures;
  io.degraded_to_direct = io.degraded_to_direct || other.io.degraded_to_direct;
  io.full_checkpoints += other.io.full_checkpoints;
  io.diff_checkpoints += other.io.diff_checkpoints;
  io.chunks_written += other.io.chunks_written;
  io.chunks_skipped += other.io.chunks_skipped;
  io.longest_chain = std::max(io.longest_chain, other.io.longest_chain);
  sdc_audits += other.sdc_audits;
  sdc_detections += other.sdc_detections;
  sdc_rollbacks += other.sdc_rollbacks;
  sdc_replays += other.sdc_replays;
  sdc_escalations += other.sdc_escalations;
  sdc_injected_flips += other.sdc_injected_flips;
  lb_packets_migrated += other.lb_packets_migrated;
  lb_steps += other.lb_steps;
  lb_imbalance_before += other.lb_imbalance_before;
  lb_imbalance_after += other.lb_imbalance_after;
  reports.insert(reports.end(), other.reports.begin(), other.reports.end());
  analyses.insert(analyses.end(), other.analyses.begin(),
                  other.analyses.end());
  fold_phase_stats(phase_stats, other.phase_stats);
  trace_events += other.trace_events;
  trace_dropped += other.trace_dropped;
  threading.threads = std::max(threading.threads, other.threading.threads);
  threading.parallel_regions += other.threading.parallel_regions;
  threading.chunks_executed += other.threading.chunks_executed;
  threading.steals += other.threading.steals;
  threading.wall_seconds += other.threading.wall_seconds;
  if (threading.busy_seconds.size() < other.threading.busy_seconds.size()) {
    threading.busy_seconds.resize(other.threading.busy_seconds.size(), 0.0);
  }
  for (std::size_t i = 0; i < other.threading.busy_seconds.size(); ++i) {
    threading.busy_seconds[i] += other.threading.busy_seconds[i];
  }
  if (!other.simd_isa.empty()) simd_isa = other.simd_isa;
  // `completed` deliberately untouched — see the header's policy table.
}

MetricsRegistry Simulation::collect_metrics() const {
  MetricsRegistry m;
  m.ingest_timers(timers_);
  m.ingest_flops(flops_);
  if (config_.trace.enabled) m.ingest_trace(trace_);
  const util::ThreadPoolStats pool = pool_.stats();
  m.add("pool/parallel_regions", static_cast<double>(pool.parallel_regions));
  m.add("pool/chunks_executed", static_cast<double>(pool.chunks_executed));
  m.add("pool/steals", static_cast<double>(pool.steals));
  m.add("pool/wall_seconds", pool.wall_seconds);
  m.observe("pool/utilization", pool.utilization());
  m.observe("particles/local", static_cast<double>(particles_.size()));
  m.observe("flops/sustained_gflops", flops_.sustained_gflops());
  m.add("lb/decisions", static_cast<double>(lb_.decisions()));
  m.add("lb/migration_steps", static_cast<double>(lb_.migration_steps()));
  m.add("lb/packets_sent", static_cast<double>(lb_.packets_sent()));
  m.add("lb/packets_served", static_cast<double>(lb_.packets_served()));
  return m;
}

}  // namespace crkhacc::core
