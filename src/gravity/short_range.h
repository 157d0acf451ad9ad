// Short-range gravity: the direct particle-pair complement of the
// filtered PM solve.
//
// Within the chaining-mesh cutoff, each pair contributes the Newtonian
// force times the split factor f_s(r) (mesh/force_split.h), so that
// PM + short-range sums to the full 1/r^2 force. The kernel evaluates
// f_s in-lane, as the float polynomial mesh::SplitPolynomial (within
// 2e-6 of the double definition): scalar and vector tiles run the same
// elementwise float ops, so they stay bitwise equal under kExact. A
// Plummer softening regularizes close encounters at the force-resolution
// scale. Runs as a
// warp-split leaf-pair kernel like every other short-range operator,
// through gpu::launch_pair_kernel's owner tasks: the pair-list entry
// point builds the launch plan and hands it to the plan entry point,
// which the load balancer's donor (with skipped tasks) and helper (with
// a packet's rebuilt plan) call directly.
#pragma once

#include <cmath>
#include <cstdint>

#include "comm/work_packets.h"
#include "core/particles.h"
#include "gpu/device.h"
#include "gpu/simd.h"
#include "gpu/warp.h"
#include "mesh/force_split.h"
#include "tree/chaining_mesh.h"
#include "util/assertions.h"

namespace crkhacc::gravity {

class ShortRangeKernel {
 public:
  static constexpr const char* kName = "gravity_short_range";
  /// What interact executes (FMA = 2, sqrt and divide = 1 each): 20 for
  /// the softened Newtonian pair, plus the split factor at the default
  /// threshold 1e-3, whose 13-term polynomial costs 2 (t) + 24 (Horner)
  /// + 4 (1 - sqrt(r2) r2 P) = 30.
  static constexpr double kFlopsPerInteraction = 50.0;
  static constexpr double kFlopsPerPartial = 1.0;

  struct State {
    float x, y, z;
    float mass;
  };
  struct Partial {
    float m;  ///< g_j term: the partner's mass is all that is shuffled
  };
  struct Accum {
    float ax = 0.0f, ay = 0.0f, az = 0.0f;
  };

  /// `split` may be null for pure Newtonian pair forces (tests and
  /// non-cosmological problems); `accel_scale` should carry G and any
  /// cosmological factor (G / a^2 for comoving integrations);
  /// `softening` is the Plummer length; `cutoff` the interaction radius
  /// (<= chaining-mesh bin width, and <= the split's cutoff, beyond which
  /// its polynomial is undefined).
  ShortRangeKernel(Particles& particles, const std::uint8_t* active,
                   const mesh::ForceSplit* split, float accel_scale,
                   float softening, float cutoff)
      : p_(particles),
        active_(active),
        poly_(split ? &split->polynomial() : nullptr),
        scale_(accel_scale),
        soft2_(softening * softening),
        cutoff2_(cutoff * cutoff) {
    CHECK_MSG(!split || cutoff <= static_cast<float>(split->cutoff()),
              "kernel cutoff exceeds the force split's cutoff");
  }

  /// The launch evaluates and stores only particles active under this
  /// mask (nullable = all; gpu/warp.h, owner-lane culling).
  const std::uint8_t* active() const { return active_; }

  State load(std::uint32_t i) const {
    return State{p_.x[i], p_.y[i], p_.z[i], p_.mass[i]};
  }

  Partial partial(const State& s) const { return Partial{s.mass}; }

  void interact(const State& self, const Partial& /*self_p*/,
                const State& other, const Partial& other_p, Accum& acc) const {
    const float dx = self.x - other.x;
    const float dy = self.y - other.y;
    const float dz = self.z - other.z;
    const float r2 = dx * dx + dy * dy + dz * dz;
    if (r2 >= cutoff2_ || r2 <= 0.0f) return;
    const float soft_r2 = r2 + soft2_;
    const float inv_r3 = 1.0f / (soft_r2 * std::sqrt(soft_r2));
    const float fs = poly_ ? poly_->evaluate(r2) : 1.0f;
    // a_i = -m_j f_s(r) d_ij / r^3 (G and 1/a^2 applied at store).
    const float f = -other_p.m * fs * inv_r3;
    acc.ax += f * dx;
    acc.ay += f * dy;
    acc.az += f * dz;
  }

  void store(std::uint32_t i, const Accum& acc) {
    p_.ax[i] += scale_ * acc.ax;
    p_.ay[i] += scale_ * acc.ay;
    p_.az[i] += scale_ * acc.az;
  }

  // --- SIMD surface (gpu/warp_simd.h). interact_simd mirrors interact's
  // expression DAG per lane: the early-out becomes a mask, stores blend.
  // Keep both bodies in lockstep.

  struct SimdLanes {
    gpu::simd::LaneArray x, y, z, m;
    void set(std::uint32_t k, const State& s, const Partial& p) {
      x[k] = s.x;
      y[k] = s.y;
      z[k] = s.z;
      m[k] = p.m;
    }
  };

  struct SimdAccum {
    gpu::simd::vfloat ax = gpu::simd::vzero();
    gpu::simd::vfloat ay = gpu::simd::vzero();
    gpu::simd::vfloat az = gpu::simd::vzero();
    Accum lane(std::uint32_t l) const {
      return Accum{gpu::simd::extract(ax, l), gpu::simd::extract(ay, l),
                   gpu::simd::extract(az, l)};
    }
  };

  /// mesh::SplitPolynomial::evaluate on kWidth lanes: the same ops in
  /// the same order, each a*b + c step through Math::madd.
  template <typename Math>
  static gpu::simd::vfloat split_factor_simd(const mesh::SplitPolynomial& poly,
                                             gpu::simd::vfloat r2) {
    namespace v = gpu::simd;
    const v::vfloat t =
        Math::madd(r2, v::broadcast(poly.t_scale), v::broadcast(-1.0f));
    v::vfloat p = v::broadcast(poly.coeff[poly.terms - 1]);
    for (std::uint32_t k = poly.terms - 1; k-- > 0;) {
      p = Math::madd(p, t, v::broadcast(poly.coeff[k]));
    }
    return v::broadcast(1.0f) - (v::sqrt(r2) * r2) * p;
  }

  template <typename Math>
  void interact_simd(const SimdLanes& self, std::uint32_t sb,
                     const SimdLanes& other, std::uint32_t ob,
                     gpu::simd::vmask live, SimdAccum& acc) const {
    namespace v = gpu::simd;
    const v::vfloat sx = v::load_aligned(self.x.data() + sb);
    const v::vfloat sy = v::load_aligned(self.y.data() + sb);
    const v::vfloat sz = v::load_aligned(self.z.data() + sb);
    const v::vfloat ox = v::loadu(other.x.data() + ob);
    const v::vfloat oy = v::loadu(other.y.data() + ob);
    const v::vfloat oz = v::loadu(other.z.data() + ob);
    const v::vfloat om = v::loadu(other.m.data() + ob);
    const v::vfloat dx = sx - ox;
    const v::vfloat dy = sy - oy;
    const v::vfloat dz = sz - oz;
    const v::vfloat r2 = Math::madd(dz, dz, Math::madd(dy, dy, dx * dx));
    live = live & v::cmp_lt(r2, v::broadcast(cutoff2_)) &
           v::cmp_gt(r2, v::vzero());
    // Fully-dead blocks skip the remaining math — the scalar driver's
    // early-out, block-wise. Bitwise neutral: every op below is blended
    // under `live`.
    if (v::mask_bits(live) == 0) return;
    const v::vfloat soft_r2 = r2 + v::broadcast(soft2_);
    const v::vfloat inv_r3 = v::broadcast(1.0f) / (soft_r2 * v::sqrt(soft_r2));
    const v::vfloat fs =
        poly_ ? split_factor_simd<Math>(*poly_, r2) : v::broadcast(1.0f);
    const v::vfloat f = v::neg(om) * fs * inv_r3;
    acc.ax = v::select(live, Math::madd(f, dx, acc.ax), acc.ax);
    acc.ay = v::select(live, Math::madd(f, dy, acc.ay), acc.ay);
    acc.az = v::select(live, Math::madd(f, dz, acc.az), acc.az);
  }

 private:
  Particles& p_;
  const std::uint8_t* active_;
  const mesh::SplitPolynomial* poly_;  ///< null: pure Newtonian
  float scale_;
  float soft2_;
  float cutoff2_;
};

struct GravityConfig {
  float softening = 0.05f;  ///< Plummer softening (code length)
  /// Pair-kernel launch policy (warp size, mode, tile engine).
  gpu::LaunchConfig launch;
};

/// Evaluate the short-range gravity of all particles in `mesh` (built
/// over every species). Accumulates into ax/ay/az; `a` is the scale
/// factor (1 = non-cosmological => pure Newtonian requires split=null).
/// If `pairs` is non-null, uses the caller's (active-filtered) leaf pair
/// list instead of building one. Builds the launch plan over that list
/// and runs the plan overload below, so the result is bitwise identical
/// for any thread count.
gpu::LaunchStats compute_short_range(
    Particles& particles, const tree::ChainingMesh& mesh,
    const mesh::ForceSplit* split, const GravityConfig& config, double a,
    const std::uint8_t* active, gpu::FlopRegistry& flops,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>* pairs =
        nullptr,
    util::ThreadPool* pool = nullptr);

/// Launch over a caller-built plan, skipping the owner tasks flagged in
/// `skip_task` (nullable, indexed by task position, as passed to
/// gpu::launch_pair_kernel). The work-packet migration donor
/// (core/load_balancer.h) flags its migrated tasks; the helper runs the
/// packet's rebuilt plan unflagged. Either way each executed task is
/// bitwise identical per particle to the unskipped launch.
gpu::LaunchStats compute_short_range(
    Particles& particles, const tree::ChainingMesh& mesh,
    const gpu::LaunchPlan& plan, const mesh::ForceSplit* split,
    const GravityConfig& config, double a, const std::uint8_t* active,
    gpu::FlopRegistry& flops, const std::uint8_t* skip_task = nullptr,
    util::ThreadPool* pool = nullptr);

/// Helper-side execution of a migrated work packet: rebuild the donor's
/// leaf ranges (tree::ChainingMesh::adopt) and owner tasks
/// (gpu::LaunchPlan::from_owner_tasks) on scratch particle state, run
/// the identical kernel (split/softening/launch policy are global
/// config, a comes with the packet, the packet's activity flags are its
/// mask), and return the owner-slot accelerations. Scratch accumulators
/// start at 0.0f — the same value the donor's zeroed accumulators hold —
/// so the returned values of active slots equal the ones the donor's own
/// launch would have produced, bit for bit.
comm::WorkReply execute_work_packet(const comm::WorkPacket& packet,
                                    const mesh::ForceSplit* split,
                                    const GravityConfig& config,
                                    gpu::FlopRegistry& flops,
                                    util::ThreadPool* pool = nullptr);

/// Reference O(N^2) Newtonian (or split) direct sum, for accuracy tests.
void direct_sum_reference(Particles& particles, const mesh::ForceSplit* split,
                          float softening, double accel_scale);

}  // namespace crkhacc::gravity
