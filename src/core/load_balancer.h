// Rank-level dynamic load balancing by owner-leaf work-packet migration.
//
// Clustered matter makes short-range pair work wildly non-uniform across
// ranks while the PM mesh stays uniform (GRACOS and the parallel TreePM
// literature balance the same way: migrate short-range WORK, not domain
// geometry). Once per PM step — between the chaining-mesh build and the
// sub-cycled pair kernels — every rank cost-models its short-range work
// from the CM bin-occupancy census (pair count ∝ Σ n_i·n_j over
// neighbor bins), blended in traced runs with the previous step's
// measured short-range phase seconds, and the ranks collectively agree on
// (donor → helper) migrations to underloaded neighbor ranks
// (comm::CartDecomposition::neighbors_of). For each substep of that
// step the donor ships the owner-leaf tasks of its most expensive CM
// bins as a comm::WorkPacket, executes the rest locally, and copies the
// helper's returned accelerations back.
//
// The bitwise-determinism contract holds through migration:
//  * particles stay home — only leaf ghost data and accumulations travel;
//  * each particle is still written by exactly one owner task, executed
//    either locally or remotely from identical inputs (positions, masses
//    and activity flags in leaf-perm order, zeroed accumulators, the
//    same global kernel constants) through the identical tile walk, so
//    a migrated task culls the same inactive owner lanes;
//  * the donor replaces its zeroed accumulators with the returned
//    values under the same activity mask the local store would have
//    applied.
// So a balanced run is bit_cast-identical to the unbalanced one at any
// thread count and launch schedule (tests/test_load_balance.cpp).
//
// The policy is hysteresis-gated and off by default (lb_threshold <= 0):
// untouched configs execute zero additional collectives or sends.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "comm/decomposition.h"
#include "comm/work_packets.h"
#include "comm/world.h"
#include "core/config.h"
#include "core/particles.h"
#include "gpu/device.h"
#include "gpu/launch.h"
#include "gravity/short_range.h"
#include "mesh/force_split.h"
#include "tree/chaining_mesh.h"
#include "util/thread_pool.h"

namespace crkhacc::core {

// --- cost model (pure, unit-tested against brute force) -----------------

/// Census cost of every CM bin: with n_b particles in bin b,
/// cost_b = n_b (n_b - 1) + n_b · Σ_{b' ∈ 26-neighborhood} n_{b'} —
/// the ordered pair-interaction count bin b's owner leaves evaluate if
/// every neighbor-bin pair is within the cutoff. Integer-valued, so
/// sums are exact in double and identical on every rank.
std::vector<double> lb_bin_costs(const tree::ChainingMesh& mesh);

/// Σ of lb_bin_costs — the rank's census cost.
double lb_census_cost(const tree::ChainingMesh& mesh);

/// Blend measured per-rank short-range seconds into the census: both
/// signals normalized to mean 1 and averaged, rescaled to census units.
/// Falls back to the pure census when any rank lacks a measurement
/// (first step, tracing off) so decisions stay deterministic then.
std::vector<double> lb_blend_costs(const std::vector<double>& census,
                                   const std::vector<double>& measured);

// --- assignment policy (pure) -------------------------------------------

/// One agreed migration: `donor` ships ~`delta` cost to `helper`.
struct LbMigration {
  int donor = -1;
  int helper = -1;
  double delta = 0.0;
};

struct LbPlan {
  double imbalance_before = 1.0;  ///< max/mean of the input costs
  double imbalance_after = 1.0;   ///< predicted max/mean after the shifts
  std::vector<LbMigration> migrations;
};

/// Pair overloaded ranks with underloaded neighbors: donors in
/// descending cost order (ties to the lower rank) each claim their
/// cheapest not-yet-claimed underloaded neighbor (ties to the lower
/// rank); donor and helper sets stay disjoint, which is what makes the
/// per-substep request/reply protocol deadlock-free. The shifted amount
/// is min(donor excess, helper headroom, max_fraction · donor cost).
/// Pure function of its arguments — every rank computes the identical
/// plan from the allgathered costs.
LbPlan lb_assign(const std::vector<double>& costs,
                 const comm::CartDecomposition& decomp,
                 const LbConfig& config);

/// Hysteresis gate: engage when `ratio` exceeds threshold; once
/// engaged, stay engaged until ratio falls below the re-arm level
/// 1 + hysteresis · (threshold - 1). threshold <= 0 is always off.
bool lb_gate(double ratio, bool engaged, const LbConfig& config);

/// Donor-local bin choice: greedily take the most expensive bins
/// (ties to the lower bin index) while shipped + cost_b / 2 <= delta,
/// so the shipped cost lands within [delta/2, 2·delta) of the target
/// whenever any single bin fits. Returns per-bin flags.
std::vector<std::uint8_t> lb_pick_bins(const std::vector<double>& bin_costs,
                                       double delta);

// --- per-step decision and execution ------------------------------------

/// What this rank does for the current PM step. Identical collective
/// inputs produce identical decisions on every rank (and on SDC
/// rollback replays).
struct LbDecision {
  bool decided = false;  ///< the collective decision ran this step
  double imbalance_before = 1.0;
  double imbalance_after = 1.0;

  int helper = -1;  ///< >= 0: this rank is a donor shipping to `helper`
  std::vector<std::uint8_t> bin_migrated;  ///< donor only: per CM bin

  std::vector<int> donors;  ///< ranks this rank serves, ascending
  std::vector<std::uint64_t> donor_substeps;  ///< their substep counts

  bool is_donor() const { return helper >= 0; }
  bool is_helper() const { return !donors.empty(); }
};

class LoadBalancer {
 public:
  using Pair = std::pair<std::uint32_t, std::uint32_t>;

  LoadBalancer(comm::Communicator& comm, const comm::CartDecomposition& decomp,
               const LbConfig& config)
      : comm_(comm), decomp_(decomp), config_(config) {}

  /// Whether the balancer participates at all. Constant per run, so the
  /// decision collective either runs on every rank every step or never.
  bool enabled() const { return config_.threshold > 0.0 && comm_.size() > 1; }

  /// Collective (one allgather). Call on every rank, between bin
  /// assignment and the substep loop. `nfine` is this rank's substep
  /// count for the step; `measured_seconds` the previous step's
  /// short-range phase seconds (0 when unavailable).
  LbDecision decide(const tree::ChainingMesh& mesh, std::uint64_t nfine,
                    double measured_seconds);

  /// Donor-side gravity for one substep: ship the migrated owner tasks
  /// of the (mesh, pairs) plan to the helper, execute the rest locally
  /// (gravity::compute_short_range over the plan, migrated tasks
  /// skipped), then block for the reply and copy the returned
  /// accelerations onto the active migrated-leaf particles. Returns the
  /// local launch stats.
  gpu::LaunchStats donor_substep(Particles& particles,
                                 const tree::ChainingMesh& mesh,
                                 const std::vector<Pair>& pairs,
                                 const mesh::ForceSplit* split,
                                 const gravity::GravityConfig& gconfig,
                                 double a_mid, const std::uint8_t* active,
                                 gpu::FlopRegistry& flops,
                                 util::ThreadPool* pool, const LbDecision& d,
                                 std::uint64_t substep);

  /// Helper-side service for one donor substep index: for every donor
  /// still sub-cycling at `substep`, receive its packet, execute it,
  /// and reply. Called after the helper's own gravity launch each of
  /// its own substeps (donors and helpers are disjoint, so the blocking
  /// recv cannot deadlock).
  void serve(const LbDecision& d, std::uint64_t substep,
             const mesh::ForceSplit* split,
             const gravity::GravityConfig& gconfig, gpu::FlopRegistry& flops,
             util::ThreadPool* pool);

  /// Helper-side drain after its own substep loop: serve the remaining
  /// substeps of donors that sub-cycle deeper than this rank.
  void drain(const LbDecision& d, std::uint64_t from_substep,
             const mesh::ForceSplit* split,
             const gravity::GravityConfig& gconfig, gpu::FlopRegistry& flops,
             util::ThreadPool* pool);

  // Cumulative counters for metrics export.
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t migration_steps() const { return migration_steps_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_served() const { return packets_served_; }

 private:
  comm::Communicator& comm_;
  const comm::CartDecomposition& decomp_;
  LbConfig config_;

  bool engaged_ = false;  ///< hysteresis state, identical on all ranks

  std::uint64_t decisions_ = 0;
  std::uint64_t migration_steps_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_served_ = 0;
};

/// Packet extraction (exposed for the round-trip unit tests): the
/// migrated tasks are those with skip_task[t] set; shipped leaves are
/// the migrated owners plus every partner their entries read, in
/// ascending global-leaf order. Each shipped particle carries its
/// `active` flag (nullable = all active).
comm::WorkPacket extract_work_packet(const Particles& particles,
                                     const tree::ChainingMesh& mesh,
                                     const gpu::LaunchPlan& plan,
                                     const std::vector<std::uint8_t>& skip_task,
                                     const std::uint8_t* active, double a_mid,
                                     std::uint32_t substep,
                                     std::uint32_t donor_rank);

/// Reply application (exposed for the unit tests): assign the returned
/// accelerations to the donor's migrated-leaf particles under the
/// activity mask — the bitwise-equal replacement for the skipped local
/// stores.
void apply_work_reply(Particles& particles, const tree::ChainingMesh& mesh,
                      const gpu::LaunchPlan& plan,
                      const std::vector<std::uint8_t>& skip_task,
                      const comm::WorkReply& reply,
                      const std::uint8_t* active);

}  // namespace crkhacc::core
