// Silent-data-corruption (SDC) guardrails.
//
// At trillion-particle scale, uncorrected memory errors are frequent
// enough that a flipped bit in a live particle array is a when, not an
// if — and PR 1's checkpoint integrity only protects data at rest: a
// corrupted array propagates for a whole checkpoint interval before
// anything notices. This layer turns CRK-HACC's conservative
// formulation into an in-flight detector: particle state obeys
// machine-checkable invariants (finite, bounded fields; conserved
// mass/momentum/energy; sane chaining-mesh occupancy; positive finite
// timestep limits), so the driver can audit every PM step and — thanks
// to the bitwise-deterministic step (PR 2) — roll back to an in-memory
// snapshot (util/snapshot.h) and replay, escalating to checkpoint
// restore only when the replay budget runs out.
//
// Pieces:
//   * SdcConfig          — knobs (sdc_* keys in the parameter file)
//   * SdcAuditor         — local invariant scans + collective verdict
//   * MemFaultInjector   — seeded deterministic bit-flip drill source,
//                          the in-memory sibling of io::FaultPolicy
//   * snapshot_regions() — Particles <-> PagedSnapshot region lists
//
// The driver side (capture / audit / rollback / replay / escalate)
// lives in core/simulation.cpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "comm/decomposition.h"
#include "comm/world.h"
#include "core/diagnostics.h"
#include "core/particles.h"
#include "integrator/timestep.h"
#include "util/rng.h"
#include "util/snapshot.h"

namespace crkhacc::core {

/// Guardrail knobs. Detection tolerances default generous: a false
/// positive is worse than a missed marginal drift, because a
/// deterministic replay reproduces a legitimate state bit-for-bit and
/// would fail the same audit forever (escalating every step).
struct SdcConfig {
  bool enabled = false;
  std::size_t page_bytes = util::PagedSnapshot::kDefaultPageBytes;
  /// Replays of one step before escalating to checkpoint restore.
  int max_replays = 2;
  /// Relative total-mass drift allowed across one PM step.
  double mass_drift_tol = 1e-6;
  /// Kinetic+thermal energy may grow at most this factor per step
  /// (gravitational collapse grows KE legitimately; a factor catches
  /// only the e+30-style explosions a flipped exponent bit produces).
  double energy_growth_factor = 100.0;
  /// |delta net momentum| per step, relative to sum m|v|.
  double momentum_drift_tol = 0.5;
  /// Per-component velocity bound, km/s (well above any physical flow).
  double max_velocity = 3.0e5;
  /// |u| bound, (km/s)^2.
  double max_internal_energy = 1.0e12;
  /// Per-particle mass bound, 1e10 Msun/h.
  double max_particle_mass = 1.0e12;
  /// Occupancy alarm: fullest chaining-mesh bin vs. the mean.
  double occupancy_factor = 1024.0;
};

// Bits of the audit verdict mask; 0 == all checks passed == commit.
inline constexpr std::uint32_t kSdcCheckNonFinite = 1u << 0;
inline constexpr std::uint32_t kSdcCheckBounds = 1u << 1;
inline constexpr std::uint32_t kSdcCheckConservation = 1u << 2;
inline constexpr std::uint32_t kSdcCheckOccupancy = 1u << 3;
inline constexpr std::uint32_t kSdcCheckTimestep = 1u << 4;
inline constexpr std::uint32_t kSdcCheckSnapshot = 1u << 5;
inline constexpr int kSdcNumChecks = 6;

/// "nonfinite|bounds" style rendering of a verdict mask ("ok" for 0).
std::string sdc_check_names(std::uint32_t mask);

/// Per-step guardrail accounting (aggregated into RunResult).
struct SdcStepStats {
  std::uint64_t audits = 0;          ///< audit passes run (>=1 if enabled)
  std::uint64_t detections = 0;      ///< audits that failed
  std::uint64_t rollbacks = 0;       ///< snapshot restores performed
  std::uint64_t replays = 0;         ///< step re-executions after rollback
  std::uint64_t injected_flips = 0;  ///< drill bit flips applied
  bool escalated = false;            ///< replay budget exhausted
  std::uint32_t failed_checks = 0;   ///< OR of failing verdict masks
  double snapshot_seconds = 0.0;
  double audit_seconds = 0.0;
  std::size_t snapshot_bytes = 0;
  std::size_t snapshot_pages = 0;
};

/// Everything the auditor needs besides the particles themselves.
struct AuditContext {
  double box = 0.0;              ///< simulation box side
  double position_margin = 0.0;  ///< ghost images live at +- this
  comm::Box3 domain;             ///< rank's owned box (occupancy census)
  double domain_slack = 0.0;     ///< intra-step drift allowance
  double cm_bin_width = 0.0;
  /// Pre-step conserved sums (collective, from the capture point).
  ConservationSnapshot reference;
  /// Census of the step's bin-assignment pass.
  integrator::TimestepAnomalyStats timestep;
  /// Non-finite smoothing-length targets the SPH solver rejected
  /// during this step attempt.
  std::uint64_t solver_nonfinite = 0;
};

/// Runs the detection lattice. local_audit is pure rank-local; audit
/// adds the collective conservation gates and the verdict allreduce
/// (all ranks must call it together and get the same mask back).
class SdcAuditor {
 public:
  explicit SdcAuditor(const SdcConfig& config) : config_(config) {}

  std::uint32_t local_audit(const Particles& particles,
                            const AuditContext& ctx);
  std::uint32_t audit(comm::Communicator& comm, const Particles& particles,
                      const AuditContext& ctx);

  /// Human-readable description of the first failure of the last audit
  /// on this rank (empty if it passed locally).
  const std::string& last_failure() const { return last_failure_; }

 private:
  void note(const std::string& what) {
    if (last_failure_.empty()) last_failure_ = what;
  }

  SdcConfig config_;
  std::string last_failure_;
};

/// Seeded deterministic source of in-memory bit flips — the live-array
/// sibling of io::FaultPolicy's storage faults. Each injection point in
/// the step consumes one monotonically increasing opportunity number;
/// the draw is a pure function of (seed, opportunity), so a schedule
/// replays identically, and because opportunities are never rewound a
/// one-shot flip does not recur when the step replays after rollback.
class MemFaultInjector {
 public:
  struct Flip {
    std::uint32_t field = 0;  ///< index into the guarded-field list
    std::uint64_t index = 0;  ///< particle slot (mod count at apply time)
    std::uint32_t bit = 0;    ///< 0..31 within the float
  };

  /// Guarded float fields, in order: x y z vx vy vz u mass.
  static constexpr std::uint32_t kFieldCount = 8;
  static const char* field_name(std::uint32_t field);

  /// `rate` = expected flips per opportunity (probability per draw).
  MemFaultInjector(double rate, std::uint64_t seed)
      : rate_(rate), rng_(seed, /*stream=*/0x5DC) {}

  /// Aborts (CHECK) if any Simulation still has this injector armed —
  /// destroying a live drill source would leave a dangling pointer on
  /// the simulation's hot path. Disarm first
  /// (set_memory_fault_injector(nullptr)) or destroy the simulation.
  virtual ~MemFaultInjector();

  /// Deterministic: the same opportunity always returns the same draw.
  virtual std::optional<Flip> draw(std::uint64_t opportunity) const;

  /// Simulations currently holding this injector armed (each
  /// set_memory_fault_injector(this) adds one; disarming or destroying
  /// the simulation removes it). Exposed for tests.
  int armed_refs() const {
    return armed_refs_.load(std::memory_order_acquire);
  }

  /// Arm/disarm bookkeeping, called by Simulation only.
  void retain_armed() const {
    armed_refs_.fetch_add(1, std::memory_order_acq_rel);
  }
  void release_armed() const {
    armed_refs_.fetch_sub(1, std::memory_order_acq_rel);
  }

 private:
  double rate_;
  CounterRng rng_;
  mutable std::atomic<int> armed_refs_{0};
};

/// XOR one bit of one guarded field in place; returns a description
/// ("x[17] bit 30: 1.25 -> 2.7e+38") for the drill log.
std::string apply_flip(Particles& particles,
                       const MemFaultInjector::Flip& flip);

/// Region lists covering every column of kParticleColumns, in list
/// order, for the const (capture) and mutable (restore) variants.
std::vector<util::PagedSnapshot::Region> snapshot_regions(
    const Particles& particles);
std::vector<util::PagedSnapshot::MutableRegion> snapshot_regions(
    Particles& particles);

}  // namespace crkhacc::core
