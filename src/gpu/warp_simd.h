// Vectorized warp-split tile drivers — the vector tile engine.
//
// The scalar warp tile (gpu/warp.h) pairs i-lane l with j-lane
// m = (l + t) mod W at rotation step t; each accumulator therefore sees
// its partners in a fixed, serial order. This engine evaluates
// simd::kWidth of those lanes per instruction while preserving exactly
// that per-accumulator order, which is what makes vector tiles bitwise
// identical to the scalar tiles (with SimdMath::kExact):
//
//  * Lane buffers are padded SoA arrays with modulo replication: slot k
//    holds lane (k mod w), so slots [base + t, base + t + kWidth) are the
//    rotated partners of self lanes [base, base + kWidth) — the GPU
//    "shuffle" becomes one contiguous unaligned vector load. (Proof:
//    slot (base + t) mod w + k holds lane ((base + t) mod w + k) mod w =
//    (base + k + t) mod w, the rotation partner of self lane base + k;
//    the index stays below w + kWidth <= kLaneSlots.)
//
//  * Ragged chunks and the self-interaction diagonal become lane masks:
//    a masked lane BLENDS its accumulator (keeps the old value) rather
//    than adding zero, so signed zeros and accumulation history match the
//    scalar skip exactly. The diagonal (l == m) occurs only at t = 0, so
//    same-chunk tiles simply start the rotation at t = 1.
//
//  * The one-sided tile walks of the owner tasks (TileSide::kI
//    forward wrap, TileSide::kJ backward wrap — see warp_tile's header
//    comment) ARE the rotation order, so the same rows routine serves
//    kBoth / kI / kJ with a direction flag; per-accumulator operand
//    sequences are unchanged from the scalar specializations.
//
//  * Image partners (periodic meshes): SimdLaneBuffer::fill adds the
//    partner's image shift to each loaded State's x, y, z exactly as the
//    scalar LaneFile does (shift_state, below), so both engines see the
//    same operand bits.
//
//  * Owner-lane culling: an owner buffer also records which of its lanes
//    are active under the kernel's mask (owner_mask, below). Inactive
//    lanes are masked out of `live`, an 8-lane owner block with no
//    active lane is skipped, and only active lanes are stored. The
//    active lanes' accumulators see unchanged operands in unchanged
//    order, so culling keeps their bits.
//
// Kernels opt in by defining SimdLanes / SimdAccum / interact_simd (see
// the SimdPairKernel concept) and run here whenever
// LaunchConfig::vector_tiles() holds; others always run scalar tiles.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>

#include "gpu/launch.h"
#include "gpu/simd.h"
#include "tree/chaining_mesh.h"

namespace crkhacc::gpu::detail {

/// Move a loaded particle State to its periodic image: add the image
/// shift (nullable = no shift, no add) to the leading x, y, z fields
/// every kernel State carries. Runs before partial(), so separable terms
/// see the image position.
template <typename State>
inline void shift_state(State& s, const float* shift) {
  static_assert(requires(State st) {
    { st.x } -> std::same_as<float&>;
    { st.y } -> std::same_as<float&>;
    { st.z } -> std::same_as<float&>;
  }, "kernel State must start with float x, y, z (image shifts)");
  if (shift == nullptr) return;
  s.x += shift[0];
  s.y += shift[1];
  s.z += shift[2];
}

/// The kernel's activity mask over particle indices, or nullptr when the
/// kernel has none: the drivers evaluate and store only owner lanes
/// whose particle is active under it, so the kernel's own mask is the
/// one source of truth for which lanes run.
template <typename Kernel>
const std::uint8_t* owner_mask(const Kernel& kernel) {
  if constexpr (requires {
                  { kernel.active() } -> std::same_as<const std::uint8_t*>;
                }) {
    return kernel.active();
  } else {
    return nullptr;
  }
}

/// Whether any of the `count` particles at `indices` is active under
/// `mask` (nullable: every lane is active). Chunks for which this is
/// false are owner chunks with nothing to evaluate.
inline bool any_active(const std::uint8_t* mask, const std::uint32_t* indices,
                       std::uint32_t count) {
  if (mask == nullptr) return count > 0;
  for (std::uint32_t l = 0; l < count; ++l) {
    if (mask[indices[l]]) return true;
  }
  return false;
}

/// Which accumulator half of a tile is live. kBoth is the symmetric
/// evaluation of a self pair's tiles; kI / kJ are the one-sided halves
/// the owner tasks split a cross pair into. (Defined here, below
/// warp.h's includes, so both the scalar and SIMD drivers share it.)
enum class TileSide : std::uint8_t { kBoth, kI, kJ };

/// A pair kernel that ships a vector form: SoA lane storage, a vector
/// accumulator extractable per lane, and a masked vector interact. The
/// interact_simd member itself is templated on the SimdMath policy, so
/// the concept checks the types and the scalar surface it must mesh with.
template <typename Kernel>
concept SimdPairKernel = requires(const Kernel k, typename Kernel::SimdLanes& lanes,
                                  const typename Kernel::SimdAccum acc) {
  lanes.set(0u, typename Kernel::State{}, typename Kernel::Partial{});
  { acc.lane(0u) } -> std::same_as<typename Kernel::Accum>;
};

/// Padded SoA lane buffer of one half-warp chunk: the kernel's lane
/// fields plus two driver-owned masks, stored as all-ones float bits for
/// direct mask loads. `live` (slot k is live when (k mod w) < n) gates
/// the chunk's lanes as partners; `act` (slot k < n whose particle is
/// active under the owner mask, no replicas) gates them as owners.
/// Replica slots (k >= w) and dead slots hold value-initialized State/
/// Partial, so vector arithmetic on them is ordinary IEEE math on zeros
/// (possibly producing inf/NaN) that the mask blends away — never
/// uninitialized reads.
template <typename Kernel>
struct SimdLaneBuffer {
  typename Kernel::SimdLanes lanes;
  simd::LaneArray live;
  simd::LaneArray act;  ///< slots >= w stay zero (value-initialized)
  const std::uint32_t* idx = nullptr;
  std::uint32_t n = 0;

  /// `owner_mask` (nullable = all active) fills `act`; partner fills,
  /// whose `act` no tile reads, pass nullptr.
  void fill(const Kernel& kernel, const std::uint32_t* indices,
            std::uint32_t count, std::uint32_t w, const float* shift,
            const std::uint8_t* owner_mask, LaunchStats& stats) {
    idx = indices;
    n = count;
    const float on = simd::mask_on();
    // Slot k holds lane (k mod w); each lane is loaded ONCE and copied
    // into its replica slots (k >= w), so the replica padding costs
    // register traffic, not repeated gathers.
    for (std::uint32_t u = 0; u < w; ++u) {
      if (u < count) {
        auto s = kernel.load(indices[u]);
        shift_state(s, shift);
        const auto p = kernel.partial(s);
        lanes.set(u, s, p);
        live[u] = on;
        act[u] = !owner_mask || owner_mask[indices[u]] ? on : 0.0f;
        for (std::uint32_t k = u + w; k < w + simd::kWidth; k += w) {
          lanes.set(k, s, p);
          live[k] = on;
        }
      } else {
        lanes.set(u, typename Kernel::State{}, typename Kernel::Partial{});
        live[u] = 0.0f;
        act[u] = 0.0f;
        for (std::uint32_t k = u + w; k < w + simd::kWidth; k += w) {
          lanes.set(k, typename Kernel::State{}, typename Kernel::Partial{});
          live[k] = 0.0f;
        }
      }
    }
    // Accounting parity with the scalar LaneFile: one global load and one
    // partial evaluation per live lane (replica slots are register
    // traffic, not loads), so vector-tile stats match the scalar tiles.
    stats.global_loads += count;
    stats.partial_evals += count;
  }
};

/// Accumulate every rotation step onto `self`'s active lanes, kWidth
/// lanes per instruction, and store once per active lane — one side of a
/// warp tile. forward = partner (l + t) mod w per step t (the i-side /
/// kI order); backward = partner (l - t) mod w (the j-side / kJ order).
/// Starting at t = 1 skips the same-chunk diagonal (l == m happens only
/// at t = 0). A block with no active lane is skipped whole.
template <typename Math, typename Kernel>
void simd_accum_rows(Kernel& kernel, const SimdLaneBuffer<Kernel>& self,
                     const SimdLaneBuffer<Kernel>& other, std::uint32_t w,
                     bool backward, bool skip_diagonal, LaunchStats& stats) {
  for (std::uint32_t lb = 0; lb < self.n; lb += simd::kWidth) {
    const simd::vmask self_live = simd::loadu_mask(self.act.data() + lb);
    const std::uint32_t self_bits = simd::mask_bits(self_live);
    if (self_bits == 0) continue;
    typename Kernel::SimdAccum acc{};
    for (std::uint32_t t = skip_diagonal ? 1u : 0u; t < w; ++t) {
      const std::uint32_t ob = backward ? (lb + w - t) % w : (lb + t) % w;
      const simd::vmask live =
          self_live & simd::loadu_mask(other.live.data() + ob);
      kernel.template interact_simd<Math>(self.lanes, lb, other.lanes, ob,
                                          live, acc);
      stats.interactions += simd::popcount(live);
    }
    const std::uint32_t hi = std::min(lb + simd::kWidth, self.n);
    for (std::uint32_t l = lb; l < hi; ++l) {
      if ((self_bits >> (l - lb)) & 1u) {
        kernel.store(self.idx[l], acc.lane(l - lb));
      }
    }
    stats.stores += static_cast<std::uint64_t>(std::popcount(self_bits));
  }
}

/// One vector warp tile: the i-side rows always run (forward rotation);
/// the j-side rows run backward unless the tile is a chunk against
/// itself, mirroring warp_tile<kBoth>'s do_j / diagonal handling.
template <typename Math, typename Kernel>
void simd_warp_tile_both(Kernel& kernel, const SimdLaneBuffer<Kernel>& bi,
                         const SimdLaneBuffer<Kernel>& bj, std::uint32_t w,
                         bool same_chunk, LaunchStats& stats) {
  simd_accum_rows<Math>(kernel, bi, bj, w, /*backward=*/false,
                        /*skip_diagonal=*/same_chunk, stats);
  if (!same_chunk) {
    simd_accum_rows<Math>(kernel, bj, bi, w, /*backward=*/true,
                          /*skip_diagonal=*/false, stats);
  }
}

/// Both-sides vector evaluation of self pair (leaf, leaf), chunk-loop
/// structure and chunk skipping identical to warp_split_pair.
template <typename Math, typename Kernel>
void simd_warp_split_pair(Kernel& kernel, const tree::ChainingMesh& cm,
                          std::uint32_t leaf, std::uint32_t warp_size,
                          LaunchStats& stats) {
  const tree::Leaf& a = cm.leaf(leaf);
  const std::uint32_t* perm = cm.permutation().data();
  const std::uint32_t w = std::min(warp_size / 2, kMaxHalfWarp);
  const std::uint8_t* mask = owner_mask(kernel);

  SimdLaneBuffer<Kernel> bi, bj;
  for (std::uint32_t ci = a.begin; ci < a.end; ci += w) {
    const std::uint32_t ni = std::min(w, a.end - ci);
    const bool ai = any_active(mask, perm + ci, ni);
    bool filled = false;
    for (std::uint32_t cj = ci; cj < a.end; cj += w) {
      const std::uint32_t nj = std::min(w, a.end - cj);
      if (!ai && !any_active(mask, perm + cj, nj)) continue;
      if (!filled) {
        bi.fill(kernel, perm + ci, ni, w, nullptr, mask, stats);
        filled = true;
      }
      bj.fill(kernel, perm + cj, nj, w, nullptr, mask, stats);
      simd_warp_tile_both<Math>(kernel, bi, bj, w, ci == cj, stats);
    }
  }
}

/// One-sided vector evaluation of cross pair (leaf_a, leaf_b): only the
/// `side` accumulators run. Chunk-loop structure (owner outermost, lane
/// buffer hoisted) and the partner's image shift (leaf_b for kI, leaf_a
/// for kJ; nullable) as in warp_split_pair_sided.
template <typename Math, typename Kernel>
void simd_warp_split_pair_sided(Kernel& kernel, const tree::ChainingMesh& cm,
                                std::uint32_t leaf_a, std::uint32_t leaf_b,
                                const float* partner_shift,
                                std::uint32_t warp_size, TileSide side,
                                LaunchStats& stats) {
  const tree::Leaf& a = cm.leaf(leaf_a);
  const tree::Leaf& b = cm.leaf(leaf_b);
  const std::uint32_t* perm = cm.permutation().data();
  const std::uint32_t w = std::min(warp_size / 2, kMaxHalfWarp);
  const std::uint8_t* mask = owner_mask(kernel);

  SimdLaneBuffer<Kernel> bi, bj;
  if (side == TileSide::kI) {
    for (std::uint32_t ci = a.begin; ci < a.end; ci += w) {
      const std::uint32_t ni = std::min(w, a.end - ci);
      if (!any_active(mask, perm + ci, ni)) continue;
      bi.fill(kernel, perm + ci, ni, w, nullptr, mask, stats);
      for (std::uint32_t cj = b.begin; cj < b.end; cj += w) {
        bj.fill(kernel, perm + cj, std::min(w, b.end - cj), w, partner_shift,
                nullptr, stats);
        simd_accum_rows<Math>(kernel, bi, bj, w, /*backward=*/false,
                              /*skip_diagonal=*/false, stats);
      }
    }
  } else {
    for (std::uint32_t cj = b.begin; cj < b.end; cj += w) {
      const std::uint32_t nj = std::min(w, b.end - cj);
      if (!any_active(mask, perm + cj, nj)) continue;
      bj.fill(kernel, perm + cj, nj, w, nullptr, mask, stats);
      for (std::uint32_t ci = a.begin; ci < a.end; ci += w) {
        bi.fill(kernel, perm + ci, std::min(w, a.end - ci), w, partner_shift,
                nullptr, stats);
        simd_accum_rows<Math>(kernel, bj, bi, w, /*backward=*/true,
                              /*skip_diagonal=*/false, stats);
      }
    }
  }
}

/// SimdMath policy dispatch for a self pair.
template <typename Kernel>
void simd_pair(Kernel& kernel, const tree::ChainingMesh& cm,
               std::uint32_t leaf, const LaunchConfig& config,
               LaunchStats& stats) {
  if (config.simd_math == SimdMath::kFused) {
    simd_warp_split_pair<simd::FusedMath>(kernel, cm, leaf, config.warp_size,
                                          stats);
  } else {
    simd_warp_split_pair<simd::ExactMath>(kernel, cm, leaf, config.warp_size,
                                          stats);
  }
}

/// SimdMath policy dispatch for a one-sided cross pair.
template <typename Kernel>
void simd_pair_sided(Kernel& kernel, const tree::ChainingMesh& cm,
                     std::uint32_t leaf_a, std::uint32_t leaf_b,
                     const float* partner_shift, const LaunchConfig& config,
                     TileSide side, LaunchStats& stats) {
  if (config.simd_math == SimdMath::kFused) {
    simd_warp_split_pair_sided<simd::FusedMath>(
        kernel, cm, leaf_a, leaf_b, partner_shift, config.warp_size, side,
        stats);
  } else {
    simd_warp_split_pair_sided<simd::ExactMath>(
        kernel, cm, leaf_a, leaf_b, partner_shift, config.warp_size, side,
        stats);
  }
}

}  // namespace crkhacc::gpu::detail
