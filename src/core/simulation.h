// The CRK-HACC simulation driver.
//
// One Simulation object runs per rank (inside World::run). Each PM step
// follows the paper's architecture end to end:
//
//   exchange/overload -> tree build (once) -> long-range spectral solve +
//   PM kick -> adaptive sub-cycled short-range solve (gravity complement,
//   CRKSPH hydro, subgrid sources; leaf AABBs refit, only active bins
//   updated) -> in situ analysis -> multi-tier checkpoint I/O.
//
// A one-rank world (comm::CartDecomposition::self_periodic) overloads
// nothing: its chaining meshes wrap periodically (tree/chaining_mesh.h),
// and in situ analysis builds its replica cloud when it runs
// (core/exchange.h).
//
// Wall-clock is accounted into the paper's Fig. 5 timer taxonomy
// (long_range / tree_build / short_range / analysis / io / misc), and all
// kernel FLOPs into a FlopRegistry for the Fig. 6 utilization analysis.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/galaxies.h"
#include "analysis/halos.h"
#include "analysis/power_spectrum.h"
#include "analysis/slices.h"
#include "analysis/so_masses.h"
#include "comm/decomposition.h"
#include "comm/world.h"
#include "core/config.h"
#include "core/context.h"
#include "core/diagnostics.h"
#include "core/exchange.h"
#include "core/load_balancer.h"
#include "core/metrics.h"
#include "core/particles.h"
#include "core/sdc.h"
#include "cosmology/background.h"
#include "cosmology/power.h"
#include "gpu/device.h"
#include "integrator/kdk.h"
#include "io/checkpoint.h"
#include "io/multi_tier.h"
#include "mesh/pm_solver.h"
#include "sph/solver.h"
#include "subgrid/model.h"
#include "tree/chaining_mesh.h"
#include "util/snapshot.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace crkhacc::core {

/// Cross-rank load-balance statistics for one traced step phase: the
/// paper's Fig. 6 imbalance view. mean is the rank-average wall time of
/// the phase, max the slowest rank (the critical path); max/mean > 1
/// quantifies imbalance.
struct PhaseStat {
  std::string name;
  double mean_seconds = 0.0;
  double max_seconds = 0.0;
  double imbalance() const {
    return mean_seconds > 0.0 ? max_seconds / mean_seconds : 1.0;
  }
};

/// Per-PM-step accounting returned by step().
struct StepReport {
  std::uint64_t step = 0;
  double a0 = 0.0, a1 = 0.0;
  int depth = 0;                     ///< deepest occupied timestep bin
  std::uint64_t substeps = 0;        ///< fine substeps executed (2^depth)
  std::uint64_t active_updates = 0;  ///< particle force-updates performed
  ExchangeStats exchange;
  subgrid::SubgridStats subgrid;
  double seconds = 0.0;              ///< wall time of this step
  double io_blocked_seconds = 0.0;   ///< sync I/O time (local-tier writes)
  /// SDC guardrail accounting (zeroed when config.sdc.enabled is false).
  SdcStepStats sdc;
  /// Dynamic load balancing (zeroed when lb_threshold is off). The
  /// imbalance ratios are the effective-cost max/mean the decision
  /// collective saw before and (predicted) after migration; packets is
  /// the number of work packets this rank shipped out as a donor.
  std::uint64_t lb_packets_migrated = 0;
  double lb_imbalance_before = 0.0;
  double lb_imbalance_after = 0.0;
  /// Per-phase cross-rank times for this step (allreduced; empty unless
  /// config.trace.enabled — the collectives only run when tracing is on,
  /// keeping traced-off runs bitwise identical to untraced ones).
  std::vector<PhaseStat> phases;
};

/// In situ analysis outputs for one analysis step.
struct AnalysisResult {
  double a = 0.0;
  std::int64_t halo_count = 0;        ///< global (allreduced)
  double largest_halo_mass = 0.0;     ///< global max
  std::vector<analysis::Halo> local_halos;
  analysis::PowerSpectrumResult power;
  analysis::SliceResult slice;
  std::int64_t star_count = 0;        ///< global
  std::int64_t bh_count = 0;          ///< global
  /// Volume-weighted gas clumping <rho^2>_V / <rho>_V^2 from the SPH
  /// densities (resolution-robust, unlike gridded slice clumping).
  double gas_clumping = 1.0;
  /// Spherical-overdensity (M200m) masses of the most massive local
  /// FOF halos (survey-facing catalog entries).
  std::vector<analysis::SoHalo> so_halos;
  /// Galaxies: DBSCAN clusters of the stellar component.
  std::vector<analysis::Galaxy> galaxies;
  std::int64_t galaxy_count = 0;  ///< global (allreduced)
};

struct RunResult {
  bool completed = false;
  std::uint64_t steps_done = 0;
  std::uint64_t interruptions = 0;
  /// Checkpoint restores attempted across all interruptions (each step
  /// probed counts once).
  std::uint64_t recovery_attempts = 0;
  /// Times the newest candidate checkpoint failed integrity validation
  /// and recovery fell back to an older step.
  std::uint64_t checkpoint_fallbacks = 0;
  /// Times no usable checkpoint survived and the run restarted from ICs.
  std::uint64_t restarts_from_ics = 0;
  /// Shrink-and-continue accounting. rank_losses / shrink_recoveries are
  /// campaign-level (stamped by core::Campaign: dead ranks observed and
  /// shrunken relaunches performed); adopted_rank_files counts checkpoint
  /// rank files restored by a rank other than their writer during
  /// round-robin adoption, summed across ranks.
  std::uint64_t rank_losses = 0;
  std::uint64_t shrink_recoveries = 0;
  std::uint64_t adopted_rank_files = 0;
  /// Pre-restore audit accounting (config.ckpt.audit_on_restore):
  /// audit passes run, damaged chunks found, and chunks healed from the
  /// redundant tier, summed across ranks.
  std::uint64_t ckpt_audit_runs = 0;
  std::uint64_t ckpt_audit_damaged_chunks = 0;
  std::uint64_t ckpt_audit_repaired_chunks = 0;
  /// Writer-side fault accounting (retries, verify failures, degraded
  /// mode), captured at the end of the run.
  io::IoStats io;
  // SDC guardrail totals across the run (see core/sdc.h).
  std::uint64_t sdc_audits = 0;
  std::uint64_t sdc_detections = 0;
  std::uint64_t sdc_rollbacks = 0;
  std::uint64_t sdc_replays = 0;
  /// Replay budgets exhausted -> checkpoint restore via recover().
  std::uint64_t sdc_escalations = 0;
  std::uint64_t sdc_injected_flips = 0;
  /// Dynamic load-balancing totals: packets this rank shipped as a
  /// donor, the summed per-step imbalance ratios over the lb_steps
  /// steps the decision collective ran (divide by lb_steps for the
  /// run-average before/after ratios).
  std::uint64_t lb_packets_migrated = 0;
  std::uint64_t lb_steps = 0;
  double lb_imbalance_before = 0.0;
  double lb_imbalance_after = 0.0;
  std::vector<StepReport> reports;
  std::vector<AnalysisResult> analyses;
  /// Per-phase imbalance accumulated over the run (tracing on only):
  /// mean_seconds sums the rank-average time, max_seconds sums each
  /// step's slowest rank — the phase's critical-path time.
  std::vector<PhaseStat> phase_stats;
  /// Local trace accounting at the end of the run (tracing on only).
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  /// Intra-node scheduler accounting (per-thread busy time, steal counts)
  /// accumulated over the whole run.
  util::ThreadPoolStats threading;
  /// Instruction set the gravity launches' tiles ran on — gravity runs in
  /// every configuration: simd::kIsaName ("avx2") when
  /// gravity.launch.vector_tiles() holds, else "none" (scalar tiles).
  std::string simd_isa;

  /// Fold `other` into this result — the one merge used everywhere a
  /// RunResult aggregates (pre-recovery counters folded into the main
  /// run, per-job results folded into a ScenarioService aggregate,
  /// campaign epochs). Per-field policy:
  ///   * counters (steps_done, interruptions, recovery/audit/adoption,
  ///     rank-loss, sdc_*, lb_* — the ratio sums included, their shared
  ///     denominator lb_steps sums alongside — trace_*) — SUM;
  ///   * io — fields sum; degraded_to_direct ORs; longest_chain takes
  ///     the max;
  ///   * reports / analyses — APPEND in merge order;
  ///   * phase_stats — merged by phase name (mean/max both sum: they
  ///     are per-step accumulations, so summing extends the run);
  ///   * threading — counters sum, per-worker busy_seconds sum
  ///     elementwise (resized to the wider pool), threads takes the max;
  ///   * simd_isa — keep-newest: `other`'s value wins when non-empty;
  ///   * completed — KEPT as-is; completion of a merged aggregate is a
  ///     caller-level judgment (e.g. "all jobs completed"), not a sum.
  void merge(const RunResult& other);
};

class Simulation {
 public:
  /// Borrow a shared immutable context: the context's thread pool runs
  /// this simulation's parallel regions (its width wins over
  /// config.threads — results are bitwise thread-count invariant), and
  /// cooling tables / primed initial states come from the context's
  /// caches. `ctx` must outlive the simulation and follow the sharing
  /// contract in core/context.h (one context per rank thread).
  Simulation(SimContext& ctx, comm::Communicator& comm,
             const SimConfig& config);

  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Generate initial conditions and prime the solver state (density /
  /// smoothing lengths / initial force evaluation for bin assignment).
  /// With a shared context, a primed state cached under this config's
  /// key (see SimContext::initial_state_key) is adopted instead —
  /// bitwise the state this method would have produced, because the key
  /// covers every input of this path and the cached copy was produced by
  /// a genuine initialize() of the same key.
  void initialize();

  /// Resume from restored particle state at PM step `step`.
  void initialize_from(Particles&& particles, std::uint64_t step);

  /// Execute one PM step. Optional writer checkpoints the step; optional
  /// fault injector may "interrupt the machine" (reported in the result
  /// of run(); step() itself returns normally).
  ///
  /// With config.sdc.enabled, the step runs under the guardrail loop:
  /// snapshot at the boundary, audit after the step (collective), roll
  /// back + replay on a failed audit, and — after the replay budget —
  /// return with report.sdc.escalated set and the checkpoint withheld
  /// (only audited state is ever checkpointed); run() then escalates to
  /// recover().
  StepReport step(io::MultiTierWriter* writer = nullptr);

  /// Arm (or disarm, with nullptr) the memory-fault drill. Not owned,
  /// but the lifetime is now enforced, not just commented: arming
  /// registers this simulation on the injector's armed-reference count,
  /// disarming (or this simulation's destruction) releases it, and
  /// destroying an injector that is still armed anywhere aborts with a
  /// CHECK — a service tearing jobs down in any order cannot silently
  /// leave a dangling drill source on another job's hot path. Flips are
  /// drawn per injection point from a monotonically increasing
  /// opportunity counter, so a schedule never repeats inside a rollback
  /// replay.
  void set_memory_fault_injector(const MemFaultInjector* injector);

  /// Full campaign with checkpoint/restart-driven fault tolerance: on an
  /// injected fault the run restarts from the newest complete checkpoint
  /// (requires writer + pfs). Without a writer, faults are fatal.
  /// Equivalent to run_slice() until done plus finalize_run().
  RunResult run(io::MultiTierWriter* writer = nullptr,
                io::ThrottledStore* pfs = nullptr,
                const io::FaultInjector* fault = nullptr);

  /// Execute at most `max_steps` iterations of the campaign loop (each
  /// committed PM step, injected interruption, or SDC escalation counts
  /// one), accumulating counters/reports into `result`. Returns true
  /// once the run has reached num_pm_steps. Slicing is stateless: the
  /// loop executes the identical step sequence however the run is cut,
  /// so any partition into slices is bitwise identical to a monolithic
  /// run() — the property that lets core::ScenarioService interleave N
  /// scenarios through one pool. Call finalize_run() after the last
  /// slice (run() does both).
  bool run_slice(std::uint64_t max_steps, RunResult& result,
                 io::MultiTierWriter* writer = nullptr,
                 io::ThrottledStore* pfs = nullptr,
                 const io::FaultInjector* fault = nullptr);

  /// Stamp end-of-run facts into `result`: completed (did the loop reach
  /// num_pm_steps), writer I/O stats, per-run threading delta (shared
  /// pools accumulate across simulations; the delta is since this
  /// simulation's construction), the gravity tiles' ISA, trace counters.
  void finalize_run(RunResult& result, io::MultiTierWriter* writer = nullptr);

  /// Collective recovery (all ranks must call together): restore the
  /// newest checkpoint that every rank can validate end to end, falling
  /// back to older steps when the newest is corrupt or partial, and
  /// regenerating initial conditions if nothing usable survived.
  /// Recovery attempts / fallbacks / IC restarts accumulate into
  /// `result`. Called by run() on every interruption; public so restart
  /// tooling and tests can drive the same state machine directly.
  ///
  /// With config.ckpt.audit_on_restore, each rank first audits its own
  /// checkpoint files on the PFS and repairs damaged chunks from the
  /// writer's node-local tier (when `writer` is given and
  /// config.ckpt.redundant_local kept copies) — so a bit-flipped chunk
  /// heals in place instead of forcing a fallback to an older step.
  void recover(io::ThrottledStore& pfs, RunResult& result,
               io::MultiTierWriter* writer = nullptr);

  /// In situ analysis at the current epoch.
  AnalysisResult run_analysis();

  // --- accessors ----------------------------------------------------------
  const Particles& particles() const { return particles_; }
  double scale_factor() const { return a_; }
  std::uint64_t current_step() const { return step_; }
  const SimConfig& config() const { return config_; }
  const comm::CartDecomposition& decomposition() const { return decomp_; }
  const cosmo::Background& background() const { return bg_; }
  TimerRegistry& timers() { return timers_; }
  const TimerRegistry& timers() const { return timers_; }
  gpu::FlopRegistry& flops() { return flops_; }
  double overload_width() const { return overload_; }
  util::ThreadPool& thread_pool() { return pool_; }
  const util::ThreadPool& thread_pool() const { return pool_; }
  SimContext& context() { return ctx_; }
  const SimContext& context() const { return ctx_; }
  util::TraceRecorder& trace() { return trace_; }
  const util::TraceRecorder& trace() const { return trace_; }

  /// Snapshot every instrument (timers, flops, trace, threading) into a
  /// single registry; reduce() it across ranks for the global view.
  MetricsRegistry collect_metrics() const;

  /// Scale factor at the start of PM step s (uniform-in-a schedule).
  double a_at_step(std::uint64_t s) const;

 private:
  /// Unbuilt chaining mesh for this rank's short-range work: periodic
  /// over the box in a one-rank world, over the overloaded box otherwise.
  tree::ChainingMesh make_mesh() const;
  void prime_solver_state();
  int assign_timestep_bins(double dt_pm);
  /// The actual PM step (phases 1-5), checkpoint excluded so the
  /// guardrail loop can audit before anything is persisted. `stats`
  /// (may be null) counts injected drill flips.
  StepReport step_body(SdcStepStats* stats);
  /// step() minus trace bookkeeping: the plain or SDC-guarded step.
  StepReport step_guarded(io::MultiTierWriter* writer);
  /// Allreduce this step's canonical phase times into report.phases.
  /// Collective; called only when tracing is enabled.
  void collect_phase_stats(StepReport& report, std::uint64_t step_index);
  void write_step_checkpoint(io::MultiTierWriter* writer, StepReport& report);
  void sdc_capture(SdcStepStats& stats);
  bool sdc_rollback();
  void sdc_inject(SdcStepStats* stats);
  std::uint32_t sdc_audit(SdcStepStats& stats);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> filter_active_pairs(
      const tree::ChainingMesh& mesh,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
      const std::vector<std::uint8_t>& active) const;
  std::vector<std::uint32_t> gas_indices() const;

  comm::Communicator& comm_;
  SimConfig config_;
  SimContext& ctx_;
  util::ThreadPool& pool_;
  /// Pool accounting at construction: finalize_run reports the delta, so
  /// a pool shared across simulations still yields per-run numbers.
  util::ThreadPoolStats pool_baseline_;
  comm::CartDecomposition decomp_;
  cosmo::Background bg_;
  cosmo::PowerSpectrum power_;
  mesh::PMSolver pm_;
  sph::SphSolver sph_;
  subgrid::SubgridModel subgrid_;
  integrator::Kdk kdk_;
  LoadBalancer lb_;

  Particles particles_;
  double a_ = 0.0;
  std::uint64_t step_ = 0;
  double overload_ = 0.0;
  double cm_bin_width_ = 0.0;
  /// Fault-injection trial counter for run_slice (monotonic across
  /// slices, so a sliced run draws the same schedule as a monolithic
  /// one).
  std::uint64_t fault_trial_ = 0;

  // --- SDC guardrail state (see core/sdc.h) -------------------------------
  SdcAuditor auditor_;
  util::PagedSnapshot snapshot_;
  const MemFaultInjector* sdc_fault_ = nullptr;
  std::uint64_t sdc_opportunity_ = 0;
  /// Scalars captured alongside the particle snapshot.
  std::uint64_t snap_step_ = 0;
  double snap_a_ = 0.0;
  std::size_t snap_count_ = 0;
  ConservationSnapshot snap_reference_;
  /// Census of the latest bin-assignment / SPH pass, for the auditor.
  integrator::TimestepAnomalyStats last_anomalies_;
  std::uint64_t sph_nonfinite_baseline_ = 0;

  TimerRegistry timers_;
  gpu::FlopRegistry flops_;
  util::TraceRecorder trace_;
};

}  // namespace crkhacc::core
