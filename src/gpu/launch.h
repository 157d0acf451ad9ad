// Pair-kernel launch configuration, statistics, and leaf-owner plans.
//
// This header is the policy half of the launch API: what to run (warp
// size, mode, SIMD math) and the precomputed owner-leaf work lists
// (LaunchPlan) that every launch walks. The execution half — the
// warp-split and naive drivers plus launch_pair_kernel itself — lives in
// gpu/warp.h.
//
// Owner tasks (see DESIGN.md, "Node-level threading model"): the plan
// lists, for every leaf, the ordered (partner, side) tiles that
// accumulate onto it: a self pair contributes one both-sides tile walk,
// a cross pair (A, B) contributes an i-side walk to owner A and a j-side
// walk to owner B. Each particle is written by exactly one owner task,
// and the entries of an owner are ordered by pair-list index, so the
// store sequence seen by any particle is the same at every thread count:
// parallel results are bitwise identical to serial, with nothing
// buffered.
//
// Image partners (periodic meshes, tree/chaining_mesh.h): a pair
// (A, B + s) names B through a virtual leaf id. A gets an i-side entry
// whose partner is B + s; B gets a j-side entry whose partner is the
// mirror A - s. Forces therefore land only on real particles, and the
// tile drivers add the shift to the partner's positions at fill time.
// A self-image pair (A, A + s) puts both entries on A.
//
// The tile engine the owner tasks run follows from the config and the
// build, not from a user choice (LaunchConfig::vector_tiles()):
//
//  * vector tiles — the inner half-warp tile evaluated simd::kWidth lanes
//    per instruction (gpu/warp_simd.h), for kernels with a SIMD form,
//    whenever the AVX2 backend is compiled in, the mode is warp-split and
//    warp_size is a power of two. Per-accumulator operand order is
//    identical to the scalar tiles, so results stay bitwise identical by
//    default (simd_math = kExact); simd_math = kFused opts every
//    vector-tile launch into real FMA under an explicit ULP gate.
//
//  * scalar tiles — everything else: naive mode, non-power-of-two warps,
//    builds without AVX2, kernels without a SIMD form.
//
// A LaunchPlan depends only on (mesh, pair list) — not on the kernel, the
// thread count, or the launch mode — so one plan is shared by the
// density / CRK-moment / momentum-energy passes of a hydro force
// evaluation, and by any future subgrid pass over the same pair list.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "gpu/simd.h"

namespace crkhacc::tree {
class ChainingMesh;
}

namespace crkhacc::gpu {

enum class LaunchMode { kNaive, kWarpSplit };

/// Arithmetic contract of the vector tile engine's kernels.
///  * kExact — every a*b+c is mul then add (two roundings): bitwise
///    identical to the scalar kernels. The default.
///  * kFused — real FMA (one rounding): faster, not bitwise vs. scalar;
///    covered by the explicit per-field ULP gates in tests/test_simd and
///    bench/simd_lanes.
enum class SimdMath { kExact, kFused };

/// Launch policy for launch_pair_kernel. Replaces the old positional
/// (warp_size, mode) arguments; designated initializers keep call sites
/// readable: LaunchConfig{.warp_size = 32, .mode = LaunchMode::kNaive}.
struct LaunchConfig {
  std::uint32_t warp_size = 64;
  LaunchMode mode = LaunchMode::kWarpSplit;
  SimdMath simd_math = SimdMath::kExact;  ///< only read by vector tiles

  /// Whether kernels with a SIMD form run vector tiles (gpu/warp_simd.h):
  /// AVX2 is compiled in, the mode is warp-split (naive mode has no lanes)
  /// and warp_size is a power of two (the widths tests/test_simd pins).
  /// Otherwise scalar tiles run, which give the same bits under kExact.
  constexpr bool vector_tiles() const {
    return simd::kAvailable && mode == LaunchMode::kWarpSplit &&
           std::has_single_bit(warp_size);
  }

  /// nullptr if the config is usable, else a human-readable reason.
  /// warp_size < 2 is rejected for BOTH modes: the warp-split half-warp
  /// w = warp_size / 2 would be zero and the tile loops could never
  /// advance (ci += w), hanging the launch.
  const char* invalid_reason() const {
    if (warp_size < 2) {
      return "warp_size must be >= 2 (half-warp w = warp_size / 2 would be "
             "0 and the warp-split tile loop could not advance)";
    }
    return nullptr;
  }
};

struct LaunchStats {
  std::uint64_t interactions = 0;   ///< ordered pair evaluations
  std::uint64_t global_loads = 0;   ///< State loads from particle arrays
  std::uint64_t partial_evals = 0;  ///< separable-term computations
  std::uint64_t stores = 0;         ///< accumulator write-backs
  double flops = 0.0;
  double seconds = 0.0;
  std::size_t register_bytes_per_thread = 0;

  LaunchStats& operator+=(const LaunchStats& o) {
    interactions += o.interactions;
    global_loads += o.global_loads;
    partial_evals += o.partial_evals;
    stores += o.stores;
    flops += o.flops;
    seconds += o.seconds;
    register_bytes_per_thread =
        std::max(register_bytes_per_thread, o.register_bytes_per_thread);
    return *this;
  }
};

/// Deterministic owner-leaf work lists for one (mesh, pair list).
///
/// CSR layout: owners_ holds the leaves that appear in at least one pair
/// (ascending); the entries of owners_[t] are
/// entries_[entry_begin_[t] .. entry_begin_[t+1]), ordered by the index q
/// of the pair they came from. That per-owner order is what makes every
/// launch bitwise reproducible at any thread count: a particle of leaf L
/// is stored to only by L's task, in the tile order of a pair-by-pair
/// walk.
class LaunchPlan {
 public:
  using Pair = std::pair<std::uint32_t, std::uint32_t>;

  /// Which half of a pair's evaluation an owner performs.
  enum class Side : std::uint8_t {
    kBoth,   ///< self pair (L, L): the full both-sides tile walk
    kISide,  ///< cross pair (owner, partner): accumulate onto owner = i
    kJSide,  ///< cross pair (partner, owner): accumulate onto owner = j
  };

  struct Entry {
    std::uint32_t partner = 0;  ///< leaf id: an image id on periodic meshes
    Side side = Side::kBoth;
  };

  LaunchPlan() = default;

  /// Pairs must satisfy first <= base_leaf(second), with first a real
  /// leaf and second any leaf id of the mesh (as produced by
  /// ChainingMesh::interaction_pairs).
  LaunchPlan(const tree::ChainingMesh& cm, std::span<const Pair> pairs);

  /// Rebuild a plan from pre-extracted owner-task CSRs — the receive
  /// side of work-packet migration (core/load_balancer.h). The caller
  /// guarantees the CSRs describe tasks in the donor plan's owner order
  /// with entries in the donor's per-owner pair order.
  static LaunchPlan from_owner_tasks(std::vector<std::uint32_t> owners,
                                     std::vector<std::uint32_t> entry_begin,
                                     std::vector<Entry> entries);

  std::size_t num_owners() const { return owners_.size(); }
  std::uint32_t owner(std::size_t t) const { return owners_[t]; }
  std::span<const Entry> entries(std::size_t t) const {
    return {entries_.data() + entry_begin_[t],
            entry_begin_[t + 1] - entry_begin_[t]};
  }
  std::size_t num_entries() const { return entries_.size(); }

 private:
  std::vector<std::uint32_t> owners_;
  std::vector<std::uint32_t> entry_begin_;  ///< owners_.size() + 1 offsets
  std::vector<Entry> entries_;
};

}  // namespace crkhacc::gpu
