// Leaf-pair kernel launch: naive and warp-split drivers run as
// leaf-owner tasks, serially or on a thread pool.
//
// The short-range solver's compute is leaf-to-leaf interaction kernels
// (Section IV-B2): all particles i of one leaf interact with all particles
// j of a neighboring leaf. Two execution strategies are implemented over
// the identical kernel definition, so their physics results agree bitwise
// up to floating-point accumulation order:
//
//  * kNaive — one logical thread per i-particle walks all j: it re-loads
//    j state from global memory and re-computes BOTH separable partials
//    for every pair. This is the register-heavy baseline the paper's
//    warp-splitting replaces.
//
//  * kWarpSplit — Algorithm 1 of the paper, executed literally on CPU
//    lanes: a warp of `warp_size` lanes is split in half; the low half
//    loads up to W = warp_size/2 particles of leaf i, the high half of
//    leaf j, each lane computes its separable partial ONCE, and W rotation
//    steps pair every lane with every partner, exchanging partials by
//    lane-indexed reads (the shuffle). Accumulation is lane-local with one
//    store per particle per tile (the per-leaf atomic). The i-side lane
//    file is loaded once per tile ROW and reused across the partner tiles
//    of that row, halving global loads relative to a per-tile reload.
//
// LaunchStats counts global loads, partial evaluations, interactions and
// stores, so the memory-traffic/register reduction of warp splitting is a
// measured output (bench/ablation_warp_split) rather than a claim.
//
// Kernel concept (see sph/ and gravity/ for real instances):
//
//   struct Kernel {
//     struct State   {...};              // registers loaded per particle
//     struct Partial {...};              // separable terms, shuffled
//     struct Accum   {...};              // lane-local accumulator
//     static constexpr const char* kName;
//     static constexpr double kFlopsPerInteraction;  // per ordered pair
//     static constexpr double kFlopsPerPartial;
//     State load(std::uint32_t particle) const;
//     Partial partial(const State&) const;
//     void interact(const State& self, const Partial& self_p,
//                   const State& other, const Partial& other_p,
//                   Accum& acc) const;   // accumulate contribution of
//                                        // `other` onto `self`
//     void store(std::uint32_t particle, const Accum&);  // += semantics
//     const std::uint8_t* active() const;  // optional: activity mask
//   };
//
// Owner-lane culling: a kernel that exposes its activity mask through
// active() (indexed by particle; nullptr = every particle active) has
// only its active owner lanes evaluated and stored, in both tile engines
// and in naive mode. An inactive owner lane is never passed to
// interact() as self and never stored; an owner chunk with no active
// lane is skipped along with its lane fill and its partners' fills.
// Inactive particles still load as PARTNERS of active ones. A kernel
// without active() has every lane evaluated. Active accumulators see
// the same operands in the same order either way, so culling changes no
// stored bit. LaunchStats counts what ran: interactions are the active
// owner lanes times their partners.
//
// One launch path: launch_pair_kernel walks the OWNER tasks of a
// LaunchPlan (gpu/launch.h) — in a plain loop without a pool or on a
// one-thread pool, under parallel_for otherwise. Each owner task walks
// its (partner, side) entries in pair order, accumulating DIRECTLY into
// its own particles: a self pair is one both-sides tile walk, a cross
// pair (A, B) is evaluated one-sided twice — the i-side tiles by A's
// task, the j-side tiles by B's task, each loading both leaves. Results
// and LaunchStats counters are therefore identical for every thread
// count, and bitwise equal to a pair-by-pair walk, because (1) every
// particle is written only by its owner's task, (2) an owner's entries
// are ordered by pair index and its tile walk visits the owner's chunks
// in pair-walk order, so each particle sees the pair walk's store
// sequence, and (3) the per-accumulator arithmetic of a one-sided tile
// is unchanged from the both-sides tile (same rotation order, same
// operand values — load/partial are pure).
//
// Image partners (periodic meshes): an entry's partner may be a virtual
// leaf id (tree::ChainingMesh::resolve). Every fill of the partner's
// lanes — scalar LaneFile, vector SimdLaneBuffer, naive per-pair loads —
// adds the image shift to the loaded State's x, y, z (every kernel
// State starts with these three fields) before partial() runs. Owner
// lanes and zero-shift partners are filled without an add, so launches
// over non-periodic meshes keep their bits.
//
// The tile ENGINE, not the decomposition, follows the build and config:
// kernels with the SimdPairKernel surface take the vector tiles of
// gpu/warp_simd.h whenever LaunchConfig::vector_tiles() holds, all other
// launches the scalar tiles below (same bits under SimdMath::kExact).
// ScalarTiles<Kernel> (end of this header) pins a kernel to scalar tiles.
//
// Kernel contract: load()/partial() must not read any field that store()
// writes within the same launch (the pass structure already guarantees
// it — positions/masses in, accelerations/densities out), and store()
// runs CONCURRENTLY on worker threads for DISTINCT particles, so
// store(i, ...) may only touch per-particle state of i (true of every
// kernel in the tree: they += into per-particle output arrays). store()
// is called only for particles active under active(), so it need not
// test the mask itself.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "gpu/launch.h"
#include "gpu/warp_simd.h"
#include "tree/chaining_mesh.h"
#include "util/assertions.h"
#include "util/thread_pool.h"
#include "util/timer.h"

// kMaxHalfWarp (the largest supported half-warp) lives in gpu/simd.h so
// the SIMD lane-buffer geometry can depend on it; it is still part of
// this header's public surface via that include.

namespace crkhacc::gpu {

namespace detail {

/// Naive side pass: accumulate contributions of leaf B (at image shift
/// `shift_b`, nullable) onto every active particle of leaf A, reloading
/// and recomputing per pair.
template <typename Kernel>
void naive_side(Kernel& kernel, const tree::ChainingMesh& cm,
                const tree::Leaf& a, const tree::Leaf& b, const float* shift_b,
                bool same_leaf, LaunchStats& stats) {
  const std::uint32_t* perm = cm.permutation().data();
  const std::uint8_t* mask = owner_mask(kernel);
  for (std::uint32_t s = a.begin; s < a.end; ++s) {
    const std::uint32_t i = perm[s];
    if (mask && !mask[i]) continue;
    const auto si = kernel.load(i);
    ++stats.global_loads;
    typename Kernel::Accum acc{};
    for (std::uint32_t t = b.begin; t < b.end; ++t) {
      if (same_leaf && t == s) continue;
      const std::uint32_t j = perm[t];
      auto sj = kernel.load(j);
      shift_state(sj, shift_b);
      ++stats.global_loads;
      // Redundant recomputation of both partials — the cost warp
      // splitting removes.
      const auto pi = kernel.partial(si);
      const auto pj = kernel.partial(sj);
      stats.partial_evals += 2;
      kernel.interact(si, pi, sj, pj, acc);
      ++stats.interactions;
    }
    kernel.store(i, acc);
    ++stats.stores;
  }
}

// TileSide (which accumulator half of a tile is live) is declared in
// gpu/warp_simd.h, shared between these scalar drivers and the vector
// engine.

/// Lane-register file of one half-warp chunk: up to W particle states and
/// their separable partials, loaded once and reused across every tile of
/// a row (load()/partial() are pure and particle inputs do not change
/// within a launch, so hoisting the loads cannot change any result).
template <typename Kernel>
struct LaneFile {
  std::array<typename Kernel::State, kMaxHalfWarp> s;
  std::array<typename Kernel::Partial, kMaxHalfWarp> p;
  const std::uint32_t* idx = nullptr;
  const std::uint8_t* mask = nullptr;  ///< owner mask; nullptr = all active
  std::uint32_t n = 0;

  /// Whether lane l accumulates and stores when this chunk is an owner.
  bool active(std::uint32_t l) const { return !mask || mask[idx[l]]; }

  /// `owner_mask` (nullable) as in SimdLaneBuffer::fill: owner fills pass
  /// the kernel's mask, partner fills nullptr.
  void fill(const Kernel& kernel, const std::uint32_t* indices,
            std::uint32_t count, const float* shift,
            const std::uint8_t* owner_mask, LaunchStats& stats) {
    idx = indices;
    mask = owner_mask;
    n = count;
    for (std::uint32_t l = 0; l < count; ++l) {
      s[l] = kernel.load(indices[l]);
      shift_state(s[l], shift);
      p[l] = kernel.partial(s[l]);
    }
    stats.global_loads += count;
    stats.partial_evals += count;
  }
};

/// One warp-split tile over pre-loaded lane files. If `same_chunk`, only
/// the self-from-partner direction accumulates (every ordered pair
/// appears exactly once across the rotation). The rotation order and the
/// per-accumulator operand sequence are identical for every TileSide, so
/// a one-sided evaluation reproduces its half of the both-sides tile
/// bitwise: under the rotation m = (l + t) mod W, accumulator acc_i[l]
/// sees partners m = l, l+1, ..., W-1, 0, ..., l-1 (forward wrap) and
/// acc_j[m] sees i-lanes l = m, m-1, ..., 0, W-1, ..., m+1 (backward
/// wrap). The one-sided specializations below walk exactly those
/// sequences directly — same operands, same order, no dead rotation
/// scaffolding for the idle half. Only active owner lanes (LaneFile::
/// active) accumulate and store; skipping the others changes no operand
/// of an active accumulator.
template <TileSide Side, typename Kernel>
void warp_tile(Kernel& kernel, const LaneFile<Kernel>& fi,
               const LaneFile<Kernel>& fj, std::uint32_t w, bool same_chunk,
               LaunchStats& stats) {
  using Accum = typename Kernel::Accum;
  if constexpr (Side == TileSide::kBoth) {
    std::array<Accum, kMaxHalfWarp> acc_i{};
    std::array<Accum, kMaxHalfWarp> acc_j{};
    const bool do_j = !same_chunk;
    // Rotation: at step t, i-lane l is partnered with j-lane (l + t) mod W.
    for (std::uint32_t t = 0; t < w; ++t) {
      for (std::uint32_t l = 0; l < w; ++l) {
        const std::uint32_t m = (l + t) % w;
        if (l >= fi.n || m >= fj.n) continue;  // idle lanes on ragged chunks
        if (same_chunk && l == m) continue;    // self-interaction diagonal
        // The "shuffle": the partner's state/partial is read by lane index.
        if (fi.active(l)) {
          kernel.interact(fi.s[l], fi.p[l], fj.s[m], fj.p[m], acc_i[l]);
          ++stats.interactions;
        }
        if (do_j && fj.active(m)) {
          kernel.interact(fj.s[m], fj.p[m], fi.s[l], fi.p[l], acc_j[m]);
          ++stats.interactions;
        }
      }
    }
    for (std::uint32_t l = 0; l < fi.n; ++l) {
      if (!fi.active(l)) continue;
      kernel.store(fi.idx[l], acc_i[l]);
      ++stats.stores;
    }
    if (do_j) {
      for (std::uint32_t m = 0; m < fj.n; ++m) {
        if (!fj.active(m)) continue;
        kernel.store(fj.idx[m], acc_j[m]);
        ++stats.stores;
      }
    }
  } else if constexpr (Side == TileSide::kI) {
    // Forward-wrap partner scan per live accumulator (see above).
    for (std::uint32_t l = 0; l < fi.n; ++l) {
      if (!fi.active(l)) continue;
      Accum acc{};
      for (std::uint32_t m = l; m < fj.n; ++m) {
        kernel.interact(fi.s[l], fi.p[l], fj.s[m], fj.p[m], acc);
      }
      const std::uint32_t wrap = std::min(l, fj.n);
      for (std::uint32_t m = 0; m < wrap; ++m) {
        kernel.interact(fi.s[l], fi.p[l], fj.s[m], fj.p[m], acc);
      }
      kernel.store(fi.idx[l], acc);
      stats.interactions += fj.n;
      ++stats.stores;
    }
  } else {
    // Backward-wrap i-lane scan per live j-side accumulator (see above).
    for (std::uint32_t m = 0; m < fj.n; ++m) {
      if (!fj.active(m)) continue;
      Accum acc{};
      for (std::uint32_t l = std::min(m + 1, fi.n); l-- > 0;) {
        kernel.interact(fj.s[m], fj.p[m], fi.s[l], fi.p[l], acc);
      }
      for (std::uint32_t l = fi.n; l-- > m + 1;) {
        kernel.interact(fj.s[m], fj.p[m], fi.s[l], fi.p[l], acc);
      }
      kernel.store(fj.idx[m], acc);
      stats.interactions += fi.n;
      ++stats.stores;
    }
  }
}

/// Both-sides warp-split evaluation of self pair (leaf, leaf): every
/// chunk against itself and every later chunk of the leaf. The i-side
/// lane file is filled once per row, on the row's first evaluated tile,
/// and reused for every partner chunk of that row. Both chunks of a tile
/// are owners, so a tile runs when either has an active lane.
template <typename Kernel>
void warp_split_pair(Kernel& kernel, const tree::ChainingMesh& cm,
                     std::uint32_t leaf, std::uint32_t warp_size,
                     LaunchStats& stats) {
  const tree::Leaf& a = cm.leaf(leaf);
  const std::uint32_t* perm = cm.permutation().data();
  const std::uint32_t w = std::min(warp_size / 2, kMaxHalfWarp);
  const std::uint8_t* mask = owner_mask(kernel);

  LaneFile<Kernel> fi, fj;
  for (std::uint32_t ci = a.begin; ci < a.end; ci += w) {
    const std::uint32_t ni = std::min(w, a.end - ci);
    const bool ai = any_active(mask, perm + ci, ni);
    bool filled = false;
    for (std::uint32_t cj = ci; cj < a.end; cj += w) {
      const std::uint32_t nj = std::min(w, a.end - cj);
      if (!ai && !any_active(mask, perm + cj, nj)) continue;
      if (!filled) {
        fi.fill(kernel, perm + ci, ni, nullptr, mask, stats);
        filled = true;
      }
      fj.fill(kernel, perm + cj, nj, nullptr, mask, stats);
      warp_tile<TileSide::kBoth>(kernel, fi, fj, w, ci == cj, stats);
    }
  }
}

/// One-sided warp-split evaluation of cross pair (leaf_a, leaf_b): only
/// the `side` accumulators run. The OWNER's chunk loop is outermost with
/// its lane file hoisted; for kJ that transposes the both-sides (ci, cj)
/// visit order, which is safe because the reordered tiles store to
/// DIFFERENT owner chunks (disjoint particles) while each owner chunk
/// still sees its partner tiles in ascending ci order. An owner chunk
/// with no active lane is skipped with its partner fills.
/// `partner_shift` (nullable) is the image shift of the non-owner leaf:
/// leaf_b for kI, leaf_a for kJ.
template <typename Kernel>
void warp_split_pair_sided(Kernel& kernel, const tree::ChainingMesh& cm,
                           std::uint32_t leaf_a, std::uint32_t leaf_b,
                           const float* partner_shift, std::uint32_t warp_size,
                           TileSide side, LaunchStats& stats) {
  const tree::Leaf& a = cm.leaf(leaf_a);
  const tree::Leaf& b = cm.leaf(leaf_b);
  const std::uint32_t* perm = cm.permutation().data();
  const std::uint32_t w = std::min(warp_size / 2, kMaxHalfWarp);
  const std::uint8_t* mask = owner_mask(kernel);

  LaneFile<Kernel> fi, fj;
  if (side == TileSide::kI) {
    for (std::uint32_t ci = a.begin; ci < a.end; ci += w) {
      const std::uint32_t ni = std::min(w, a.end - ci);
      if (!any_active(mask, perm + ci, ni)) continue;
      fi.fill(kernel, perm + ci, ni, nullptr, mask, stats);
      for (std::uint32_t cj = b.begin; cj < b.end; cj += w) {
        fj.fill(kernel, perm + cj, std::min(w, b.end - cj), partner_shift,
                nullptr, stats);
        warp_tile<TileSide::kI>(kernel, fi, fj, w, /*same_chunk=*/false,
                                stats);
      }
    }
  } else {
    for (std::uint32_t cj = b.begin; cj < b.end; cj += w) {
      const std::uint32_t nj = std::min(w, b.end - cj);
      if (!any_active(mask, perm + cj, nj)) continue;
      fj.fill(kernel, perm + cj, nj, nullptr, mask, stats);
      for (std::uint32_t ci = a.begin; ci < a.end; ci += w) {
        fi.fill(kernel, perm + ci, std::min(w, a.end - ci), partner_shift,
                nullptr, stats);
        warp_tile<TileSide::kJ>(kernel, fi, fj, w, /*same_chunk=*/false,
                                stats);
      }
    }
  }
}

/// Evaluate every entry of plan owner `t`: the tiles that accumulate onto
/// that owner's particles, in pair order. Kernels with a SIMD form take
/// the vector tile engine when config.vector_tiles() holds; everything
/// else runs the scalar tiles — the same bits either way under kExact.
/// An image partner is resolved to its base leaf plus the shift its
/// lane fills add.
template <typename Kernel>
void run_owner_entries(Kernel& kernel, const tree::ChainingMesh& cm,
                       const LaunchPlan& plan, std::size_t t,
                       const LaunchConfig& config, LaunchStats& stats) {
  const std::uint32_t owner = plan.owner(t);
  for (const LaunchPlan::Entry& e : plan.entries(t)) {
    const tree::LeafImage partner = cm.resolve(e.partner);
    const float* shift = partner.shift_or_null();
    if (config.mode == LaunchMode::kNaive) {
      // naive_side is already one-sided: accumulate partner onto owner.
      naive_side(kernel, cm, cm.leaf(owner), cm.leaf(partner.leaf), shift,
                 e.side == LaunchPlan::Side::kBoth, stats);
      continue;
    }
    // Without the AVX2 backend the vector engine is never instantiated.
    if constexpr (SimdPairKernel<Kernel> && simd::kAvailable) {
      if (config.vector_tiles()) {
        switch (e.side) {
          case LaunchPlan::Side::kBoth:
            simd_pair(kernel, cm, owner, config, stats);
            break;
          case LaunchPlan::Side::kISide:
            simd_pair_sided(kernel, cm, owner, partner.leaf, shift, config,
                            TileSide::kI, stats);
            break;
          case LaunchPlan::Side::kJSide:
            simd_pair_sided(kernel, cm, partner.leaf, owner, shift, config,
                            TileSide::kJ, stats);
            break;
        }
        continue;
      }
    }
    switch (e.side) {
      case LaunchPlan::Side::kBoth:
        warp_split_pair(kernel, cm, owner, config.warp_size, stats);
        break;
      case LaunchPlan::Side::kISide:
        warp_split_pair_sided(kernel, cm, owner, partner.leaf, shift,
                              config.warp_size, TileSide::kI, stats);
        break;
      case LaunchPlan::Side::kJSide:
        warp_split_pair_sided(kernel, cm, partner.leaf, owner, shift,
                              config.warp_size, TileSide::kJ, stats);
        break;
    }
  }
}

/// Per-thread working-set estimate of a launch under `config` (the
/// register_bytes_per_thread stat).
template <typename Kernel>
std::size_t register_footprint(const LaunchConfig& config) {
  std::size_t bytes;
  if (config.mode == LaunchMode::kNaive) {
    bytes = 2 * sizeof(typename Kernel::State) +
            2 * sizeof(typename Kernel::Partial) +
            sizeof(typename Kernel::Accum);
  } else {
    bytes = sizeof(typename Kernel::State) +
            sizeof(typename Kernel::Partial) + sizeof(typename Kernel::Accum);
  }
  if constexpr (SimdPairKernel<Kernel>) {
    if (config.vector_tiles()) {
      // The vector engine's working set: two padded SoA lane buffers
      // plus the vector accumulator block.
      bytes = 2 * sizeof(typename Kernel::SimdLanes) +
              sizeof(typename Kernel::SimdAccum);
    }
  }
  return bytes;
}

}  // namespace detail

/// Execute `kernel` over the plan's owner tasks, skipping the tasks
/// flagged in `skip_task` (nullable, indexed by TASK position t, not by
/// leaf — the work-packet migration donor flags its migrated tasks, see
/// core/load_balancer.h). With no pool or a one-thread pool the tasks
/// run in a plain loop, otherwise one parallel_for task per owner; the
/// decomposition is the same either way, so the result is bitwise
/// identical for every thread count and so is every LaunchStats counter.
template <typename Kernel>
LaunchStats launch_pair_kernel(Kernel& kernel, const tree::ChainingMesh& cm,
                               const LaunchPlan& plan,
                               const LaunchConfig& config,
                               util::ThreadPool* pool = nullptr,
                               const std::uint8_t* skip_task = nullptr) {
  const char* invalid = config.invalid_reason();
  CHECK_MSG(invalid == nullptr, (invalid ? invalid : ""));

  LaunchStats stats;
  Stopwatch watch;
  stats.register_bytes_per_thread = detail::register_footprint<Kernel>(config);
  const auto run_tasks = [&](std::size_t lo, std::size_t hi,
                             LaunchStats& out) {
    for (std::size_t t = lo; t < hi; ++t) {
      if (skip_task && skip_task[t]) continue;
      detail::run_owner_entries(kernel, cm, plan, t, config, out);
    }
  };
  if (!pool || pool->num_threads() <= 1) {
    run_tasks(0, plan.num_owners(), stats);
  } else {
    // Owner tasks store to disjoint particles in place: nothing to
    // buffer, only the per-chunk counters to sum.
    std::vector<LaunchStats> chunk_stats(plan.num_owners());
    pool->parallel_for(0, plan.num_owners(), 1,
                       [&](std::size_t lo, std::size_t hi, std::size_t c) {
                         run_tasks(lo, hi, chunk_stats[c]);
                       });
    for (const LaunchStats& s : chunk_stats) stats += s;
  }
  stats.seconds = watch.seconds();
  stats.flops = static_cast<double>(stats.interactions) *
                    Kernel::kFlopsPerInteraction +
                static_cast<double>(stats.partial_evals) *
                    Kernel::kFlopsPerPartial;
  return stats;
}

/// A kernel's scalar surface without its SIMD surface: launches of
/// ScalarTiles<Kernel> run the scalar tiles at every config, so they are
/// the reference the vector engine is checked and timed against
/// (tests/test_simd, bench/simd_lanes, bench/ablation_warp_split).
/// Holds a reference; the wrapped kernel must outlive the adapter.
template <typename Kernel>
class ScalarTiles {
 public:
  using State = typename Kernel::State;
  using Partial = typename Kernel::Partial;
  using Accum = typename Kernel::Accum;
  static constexpr const char* kName = Kernel::kName;
  static constexpr double kFlopsPerInteraction = Kernel::kFlopsPerInteraction;
  static constexpr double kFlopsPerPartial = Kernel::kFlopsPerPartial;

  explicit ScalarTiles(Kernel& kernel) : kernel_(kernel) {}

  /// The wrapped kernel's activity mask, where it has one, so scalar
  /// tiles cull the same owner lanes as the vector engine.
  const std::uint8_t* active() const
    requires requires(const Kernel& k) { k.active(); }
  {
    return kernel_.active();
  }

  State load(std::uint32_t i) const { return kernel_.load(i); }
  Partial partial(const State& s) const { return kernel_.partial(s); }
  void interact(const State& self, const Partial& self_p, const State& other,
                const Partial& other_p, Accum& acc) const {
    kernel_.interact(self, self_p, other, other_p, acc);
  }
  void store(std::uint32_t i, const Accum& acc) { kernel_.store(i, acc); }

 private:
  Kernel& kernel_;
};

}  // namespace crkhacc::gpu
