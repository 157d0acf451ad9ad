// Run configuration for the CRK-HACC-style simulation driver.
#pragma once

#include <cstdint>

#include "core/sdc.h"
#include "cosmology/background.h"
#include "gravity/short_range.h"
#include "integrator/timestep.h"
#include "io/column_file.h"
#include "sph/solver.h"
#include "subgrid/model.h"
#include "util/trace.h"

namespace crkhacc::core {

/// What a campaign does when a rank dies mid-run.
enum class RankLossPolicy {
  kFatal,   ///< propagate the RankLossError; the run is over (default)
  kShrink,  ///< relaunch on the survivors, adopting the dead rank's
            ///< domain from its checkpoint chain (ULFM shrink-and-continue)
};

/// Rank-level dynamic load balancing (core/load_balancer.h): per PM
/// step, owner-leaf work packets of overloaded ranks execute on
/// underloaded neighbor ranks. Off by default (threshold = 0): untouched
/// configs run zero extra collectives and stay bitwise unchanged.
struct LbConfig {
  /// Balance when the census imbalance ratio (max/mean short-range cost
  /// across ranks) exceeds this; <= 0 disables the balancer entirely.
  /// Meaningful values are > 1 (e.g. 1.25).
  double threshold = 0.0;
  /// Hysteresis: once engaged, keep balancing until the ratio falls
  /// below 1 + hysteresis * (threshold - 1), so a ratio hovering at the
  /// threshold does not flap the policy on and off.
  double hysteresis = 0.8;
  /// Cap on the fraction of a donor's census cost shipped per step.
  double max_fraction = 0.5;
};

struct SimConfig {
  cosmo::Parameters cosmology;

  // Problem size.
  std::size_t np = 16;      ///< particle lattice per dimension, per species
  double box = 32.0;        ///< comoving box side [Mpc/h]
  double z_init = 50.0;
  double z_final = 0.0;
  int num_pm_steps = 16;    ///< global PM steps (uniform in a)

  // Long-range solver.
  std::size_t ng = 32;      ///< PM mesh per dimension
  double rs_cells = 1.5;    ///< force-split scale in PM cells
  double split_threshold = 1e-3;  ///< pair-force tail at the handover radius

  /// Plummer softening and accel-criterion length; < 0 selects the
  /// resolution-scaled default of 0.1 x mean interparticle spacing.
  double softening = -1.0;

  // Physics switches.
  bool hydro = true;         ///< evolve gas with CRKSPH (else gravity-only)
  bool subgrid_on = true;    ///< cooling / SF / feedback
  double t_init_K = 200.0;   ///< initial gas temperature

  // Adaptive stepping.
  bool flat_stepping = false;  ///< "low-z Flat": sync all to deepest bin
  integrator::TimeBinConfig bins;

  // Ablations.
  bool rebuild_tree_every_substep = false;  ///< vs refit-only (paper default)

  // Analysis cadence: run in situ analysis every k-th PM step (0 = only
  // when requested explicitly).
  int analysis_every = 0;

  /// Intra-node worker threads for the short-range pipeline (tree builds,
  /// pair kernels, PM deposit/interpolate). 0 selects hardware
  /// concurrency. Results are bitwise identical for every value.
  int threads = 1;

  std::uint64_t seed = 42;

  /// Step-phase tracing (spans, per-phase imbalance collectives, Chrome
  /// JSON export). Off by default: a disabled recorder adds no spans, no
  /// collectives, and no physics-visible state.
  util::TraceConfig trace;

  sph::SphConfig sph;
  gravity::GravityConfig gravity;
  subgrid::SubgridConfig subgrid;

  /// Rank-level dynamic load balancing (lb_* parameter-file keys).
  LbConfig lb;

  /// Silent-data-corruption guardrails: per-step snapshot + audit +
  /// rollback-replay (sdc_* parameter-file keys).
  SdcConfig sdc;

  /// Checkpoint format / differential-chain knobs (ckpt_* parameter-file
  /// keys); forwarded into MultiTierConfig by the drivers.
  io::CkptConfig ckpt;

  /// Campaign-level response to a lost rank (`rank_loss_policy` key);
  /// honored by core::Campaign, not by a bare World::run.
  RankLossPolicy rank_loss_policy = RankLossPolicy::kFatal;
};

}  // namespace crkhacc::core
