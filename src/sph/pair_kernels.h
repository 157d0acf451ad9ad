// CRKSPH pair kernels, written against the warp-split kernel concept
// (gpu/warp.h). Three passes per hydro sub-step:
//
//   1. DensityKernel    — rho_i = sum_j m_j W(|x_ij|, h_i), neighbor count
//   2. CrkMomentKernel  — geometric moments m0, m1, m2 (volumes from rho)
//   3. MomentumEnergyKernel — corrected, symmetrized momentum and energy
//      exchange with Monaghan artificial viscosity and signal-speed
//      tracking for the CFL criterion
//
// All state is FP32 (the paper's short-range precision). FLOP constants
// are analytic per-operation counts in the profiler convention of
// Section V-B (FMA = 2 ops, transcendental = 1).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "core/particles.h"
#include "gpu/simd.h"
#include "sph/crk.h"
#include "sph/kernel.h"

namespace crkhacc::sph {

/// Per-particle scratch shared by the kernels and owned by SphSolver.
struct SphScratch {
  std::vector<float> volume;   ///< V_i = m_i / rho_i
  std::vector<float> press;    ///< pressure
  std::vector<float> cs;       ///< sound speed
  std::vector<float> crk_a;    ///< CRK A_i
  std::vector<std::array<float, 3>> crk_b;  ///< CRK B_i
  std::vector<CrkMoments> moments;
  std::vector<float> vsig;     ///< max signal speed seen this step
  std::vector<float> nnbr;     ///< neighbor count within 2 h_i

  void resize(std::size_t n) {
    volume.assign(n, 0.0f);
    press.assign(n, 0.0f);
    cs.assign(n, 0.0f);
    crk_a.assign(n, 1.0f);
    crk_b.assign(n, {0.0f, 0.0f, 0.0f});
    moments.assign(n, CrkMoments{});
    vsig.assign(n, 0.0f);
    nnbr.assign(n, 0.0f);
  }
};

// ---------------------------------------------------------------------------

template <typename Shape = CubicSpline>
class DensityKernelT {
 public:
  static constexpr const char* kName = "sph_density";
  static constexpr double kFlopsPerInteraction = 26.0;
  static constexpr double kFlopsPerPartial = 6.0;

  struct State {
    float x, y, z;
    float h;
    float mass;
  };
  struct Partial {
    float inv_h;    ///< f_i term: shared normalization
    float support;  ///< 2h (squared test radius precursor)
  };
  struct Accum {
    float rho = 0.0f;
    float nnbr = 0.0f;
  };

  /// `active` (nullable = all) selects the particles the launch
  /// evaluates and stores (gpu/warp.h, owner-lane culling).
  DensityKernelT(Particles& particles, SphScratch& scratch,
                 const std::uint8_t* active)
      : p_(particles), scratch_(scratch), active_(active) {}

  const std::uint8_t* active() const { return active_; }

  State load(std::uint32_t i) const {
    return State{p_.x[i], p_.y[i], p_.z[i], p_.hsml[i], p_.mass[i]};
  }

  Partial partial(const State& s) const {
    return Partial{1.0f / s.h, Shape::kSupport * s.h};
  }

  void interact(const State& self, const Partial& self_p, const State& other,
                const Partial& /*other_p*/, Accum& acc) const {
    const float dx = self.x - other.x;
    const float dy = self.y - other.y;
    const float dz = self.z - other.z;
    const float r2 = dx * dx + dy * dy + dz * dz;
    if (r2 >= self_p.support * self_p.support) return;
    const float r = std::sqrt(r2);
    acc.rho += other.mass * Shape::w(r, self.h);
    acc.nnbr += 1.0f;
  }

  // += semantics: the driver stores once per leaf pair / warp tile (the
  // "per-leaf atomic"), active particles only. The solver zeroes rho and
  // adds the self term.
  void store(std::uint32_t i, const Accum& acc) {
    p_.rho[i] += acc.rho;
    scratch_.nnbr[i] += acc.nnbr;
  }

  // --- SIMD surface (gpu/warp_simd.h): interact's DAG per lane, the
  // support early-out as a mask, accumulators blended. Keep in lockstep
  // with interact.

  struct SimdLanes {
    gpu::simd::LaneArray x, y, z, h, mass, support;
    void set(std::uint32_t k, const State& s, const Partial& p) {
      x[k] = s.x;
      y[k] = s.y;
      z[k] = s.z;
      h[k] = s.h;
      mass[k] = s.mass;
      support[k] = p.support;
    }
  };

  struct SimdAccum {
    gpu::simd::vfloat rho = gpu::simd::vzero();
    gpu::simd::vfloat nnbr = gpu::simd::vzero();
    Accum lane(std::uint32_t l) const {
      return Accum{gpu::simd::extract(rho, l), gpu::simd::extract(nnbr, l)};
    }
  };

  template <typename Math>
  void interact_simd(const SimdLanes& self, std::uint32_t sb,
                     const SimdLanes& other, std::uint32_t ob,
                     gpu::simd::vmask live, SimdAccum& acc) const {
    namespace v = gpu::simd;
    const v::vfloat sx = v::load_aligned(self.x.data() + sb);
    const v::vfloat sy = v::load_aligned(self.y.data() + sb);
    const v::vfloat sz = v::load_aligned(self.z.data() + sb);
    const v::vfloat sh = v::load_aligned(self.h.data() + sb);
    const v::vfloat ssup = v::load_aligned(self.support.data() + sb);
    const v::vfloat ox = v::loadu(other.x.data() + ob);
    const v::vfloat oy = v::loadu(other.y.data() + ob);
    const v::vfloat oz = v::loadu(other.z.data() + ob);
    const v::vfloat omass = v::loadu(other.mass.data() + ob);
    const v::vfloat dx = sx - ox;
    const v::vfloat dy = sy - oy;
    const v::vfloat dz = sz - oz;
    const v::vfloat r2 = Math::madd(dz, dz, Math::madd(dy, dy, dx * dx));
    live = live & v::cmp_lt(r2, ssup * ssup);
    // Fully-dead blocks skip the kernel evaluation — the scalar driver's
    // early-out, block-wise. Bitwise neutral: every op below blends
    // under `live`.
    if (v::mask_bits(live) == 0) return;
    const v::vfloat r = v::sqrt(r2);
    const v::vfloat w = Shape::w_v(r, sh);
    acc.rho = v::select(live, Math::madd(omass, w, acc.rho), acc.rho);
    acc.nnbr = v::select(live, acc.nnbr + v::broadcast(1.0f), acc.nnbr);
  }

 private:
  Particles& p_;
  SphScratch& scratch_;
  const std::uint8_t* active_;
};

// ---------------------------------------------------------------------------

template <typename Shape = CubicSpline>
class CrkMomentKernelT {
 public:
  static constexpr const char* kName = "crk_moments";
  static constexpr double kFlopsPerInteraction = 48.0;
  static constexpr double kFlopsPerPartial = 6.0;

  struct State {
    float x, y, z;
    float h;
    float volume;
  };
  struct Partial {
    float inv_h;
    float support;
  };
  struct Accum {
    CrkMoments m;
  };

  CrkMomentKernelT(Particles& particles, SphScratch& scratch,
                   const std::uint8_t* active)
      : p_(particles), scratch_(scratch), active_(active) {}

  const std::uint8_t* active() const { return active_; }

  State load(std::uint32_t i) const {
    return State{p_.x[i], p_.y[i], p_.z[i], p_.hsml[i], scratch_.volume[i]};
  }

  Partial partial(const State& s) const {
    return Partial{1.0f / s.h, Shape::kSupport * s.h};
  }

  void interact(const State& self, const Partial& self_p, const State& other,
                const Partial& /*other_p*/, Accum& acc) const {
    // d = x_j - x_i with self playing i.
    const float dx = other.x - self.x;
    const float dy = other.y - self.y;
    const float dz = other.z - self.z;
    const float r2 = dx * dx + dy * dy + dz * dz;
    if (r2 >= self_p.support * self_p.support) return;
    const float r = std::sqrt(r2);
    const float vw = other.volume * Shape::w(r, self.h);
    acc.m.m0 += vw;
    acc.m.m1[0] += vw * dx;
    acc.m.m1[1] += vw * dy;
    acc.m.m1[2] += vw * dz;
    acc.m.m2[0] += vw * dx * dx;
    acc.m.m2[1] += vw * dy * dy;
    acc.m.m2[2] += vw * dz * dz;
    acc.m.m2[3] += vw * dx * dy;
    acc.m.m2[4] += vw * dx * dz;
    acc.m.m2[5] += vw * dy * dz;
  }

  // += semantics (see DensityKernel::store); self term added by solver.
  void store(std::uint32_t i, const Accum& acc) {
    CrkMoments& m = scratch_.moments[i];
    m.m0 += acc.m.m0;
    for (int d = 0; d < 3; ++d) m.m1[d] += acc.m.m1[d];
    for (int d = 0; d < 6; ++d) m.m2[d] += acc.m.m2[d];
  }

  // --- SIMD surface: interact's DAG per lane (note d = other - self
  // here). Keep in lockstep with interact.

  struct SimdLanes {
    gpu::simd::LaneArray x, y, z, h, volume, support;
    void set(std::uint32_t k, const State& s, const Partial& p) {
      x[k] = s.x;
      y[k] = s.y;
      z[k] = s.z;
      h[k] = s.h;
      volume[k] = s.volume;
      support[k] = p.support;
    }
  };

  struct SimdAccum {
    gpu::simd::vfloat m0 = gpu::simd::vzero();
    gpu::simd::vfloat m1x = gpu::simd::vzero();
    gpu::simd::vfloat m1y = gpu::simd::vzero();
    gpu::simd::vfloat m1z = gpu::simd::vzero();
    gpu::simd::vfloat m2xx = gpu::simd::vzero();
    gpu::simd::vfloat m2yy = gpu::simd::vzero();
    gpu::simd::vfloat m2zz = gpu::simd::vzero();
    gpu::simd::vfloat m2xy = gpu::simd::vzero();
    gpu::simd::vfloat m2xz = gpu::simd::vzero();
    gpu::simd::vfloat m2yz = gpu::simd::vzero();
    Accum lane(std::uint32_t l) const {
      namespace v = gpu::simd;
      Accum a;
      a.m.m0 = v::extract(m0, l);
      a.m.m1 = {v::extract(m1x, l), v::extract(m1y, l), v::extract(m1z, l)};
      a.m.m2 = {v::extract(m2xx, l), v::extract(m2yy, l), v::extract(m2zz, l),
                v::extract(m2xy, l), v::extract(m2xz, l), v::extract(m2yz, l)};
      return a;
    }
  };

  template <typename Math>
  void interact_simd(const SimdLanes& self, std::uint32_t sb,
                     const SimdLanes& other, std::uint32_t ob,
                     gpu::simd::vmask live, SimdAccum& acc) const {
    namespace v = gpu::simd;
    const v::vfloat sx = v::load_aligned(self.x.data() + sb);
    const v::vfloat sy = v::load_aligned(self.y.data() + sb);
    const v::vfloat sz = v::load_aligned(self.z.data() + sb);
    const v::vfloat sh = v::load_aligned(self.h.data() + sb);
    const v::vfloat ssup = v::load_aligned(self.support.data() + sb);
    const v::vfloat ox = v::loadu(other.x.data() + ob);
    const v::vfloat oy = v::loadu(other.y.data() + ob);
    const v::vfloat oz = v::loadu(other.z.data() + ob);
    const v::vfloat ovol = v::loadu(other.volume.data() + ob);
    // d = x_j - x_i with self playing i.
    const v::vfloat dx = ox - sx;
    const v::vfloat dy = oy - sy;
    const v::vfloat dz = oz - sz;
    const v::vfloat r2 = Math::madd(dz, dz, Math::madd(dy, dy, dx * dx));
    live = live & v::cmp_lt(r2, ssup * ssup);
    // Fully-dead blocks skip the moment sums — see DensityKernelT.
    if (v::mask_bits(live) == 0) return;
    const v::vfloat r = v::sqrt(r2);
    const v::vfloat vw = ovol * Shape::w_v(r, sh);
    const v::vfloat vwdx = vw * dx;
    const v::vfloat vwdy = vw * dy;
    const v::vfloat vwdz = vw * dz;
    acc.m0 = v::select(live, acc.m0 + vw, acc.m0);
    acc.m1x = v::select(live, Math::madd(vw, dx, acc.m1x), acc.m1x);
    acc.m1y = v::select(live, Math::madd(vw, dy, acc.m1y), acc.m1y);
    acc.m1z = v::select(live, Math::madd(vw, dz, acc.m1z), acc.m1z);
    acc.m2xx = v::select(live, Math::madd(vwdx, dx, acc.m2xx), acc.m2xx);
    acc.m2yy = v::select(live, Math::madd(vwdy, dy, acc.m2yy), acc.m2yy);
    acc.m2zz = v::select(live, Math::madd(vwdz, dz, acc.m2zz), acc.m2zz);
    acc.m2xy = v::select(live, Math::madd(vwdx, dy, acc.m2xy), acc.m2xy);
    acc.m2xz = v::select(live, Math::madd(vwdx, dz, acc.m2xz), acc.m2xz);
    acc.m2yz = v::select(live, Math::madd(vwdy, dz, acc.m2yz), acc.m2yz);
  }

 private:
  Particles& p_;
  SphScratch& scratch_;
  const std::uint8_t* active_;
};

// ---------------------------------------------------------------------------

/// Artificial viscosity parameters (Monaghan-style).
struct ViscosityParams {
  float alpha = 1.0f;
  float beta = 2.0f;
  float eps = 0.01f;  ///< softening of mu in units of h^2
};

template <typename Shape = CubicSpline>
class MomentumEnergyKernelT {
 public:
  static constexpr const char* kName = "crk_momentum_energy";
  static constexpr double kFlopsPerInteraction = 112.0;
  static constexpr double kFlopsPerPartial = 4.0;

  struct State {
    float x, y, z;
    float vx, vy, vz;
    float h;
    float volume;
    float press;
    float cs;
    float rho;
    float crk_a;
    float bx, by, bz;
  };
  struct Partial {
    float pv;       ///< P_i V_i — the separable f_i / g_j term
    float support;  ///< 2h
  };
  struct Accum {
    float ax = 0.0f, ay = 0.0f, az = 0.0f;
    float du = 0.0f;
    float vsig = 0.0f;
  };

  /// `accel_scale` multiplies the stored accelerations and du (the
  /// cosmological 1/a factor converting comoving-gradient forces to
  /// peculiar-velocity rates; 1 for non-cosmological problems).
  MomentumEnergyKernelT(Particles& particles, SphScratch& scratch,
                        const std::uint8_t* active,
                        const ViscosityParams& visc,
                        float accel_scale = 1.0f)
      : p_(particles),
        scratch_(scratch),
        active_(active),
        visc_(visc),
        scale_(accel_scale) {}

  const std::uint8_t* active() const { return active_; }

  State load(std::uint32_t i) const {
    const auto& b = scratch_.crk_b[i];
    return State{p_.x[i],  p_.y[i],  p_.z[i],  p_.vx[i], p_.vy[i],
                 p_.vz[i], p_.hsml[i], scratch_.volume[i], scratch_.press[i],
                 scratch_.cs[i], p_.rho[i], scratch_.crk_a[i], b[0], b[1], b[2]};
  }

  Partial partial(const State& s) const {
    return Partial{s.press * s.volume, Shape::kSupport * s.h};
  }

  void interact(const State& self, const Partial& self_p, const State& other,
                const Partial& other_p, Accum& acc) const {
    const float dx = self.x - other.x;  // d_ij = x_i - x_j
    const float dy = self.y - other.y;
    const float dz = self.z - other.z;
    const float r2 = dx * dx + dy * dy + dz * dz;
    const float support = std::max(self_p.support, other_p.support);
    if (r2 >= support * support || r2 <= 0.0f) return;
    const float r = std::sqrt(r2);

    // Corrected gradient of self's kernel w.r.t. x_i.
    const CrkCoefficients ci{self.crk_a, {self.bx, self.by, self.bz}};
    const std::array<float, 3> d_ij{dx, dy, dz};
    const auto gi = corrected_grad(ci, Shape::w(r, self.h),
                                   Shape::dw_dr(r, self.h), d_ij, r);
    // Corrected gradient of other's kernel w.r.t. x_j (d_ji = -d_ij).
    const CrkCoefficients cj{other.crk_a, {other.bx, other.by, other.bz}};
    const std::array<float, 3> d_ji{-dx, -dy, -dz};
    const auto gj = corrected_grad(cj, Shape::w(r, other.h),
                                   Shape::dw_dr(r, other.h), d_ji, r);
    // Antisymmetrized mean gradient: G_ij = (gi - gj)/2 = -G_ji.
    const float gx = 0.5f * (gi[0] - gj[0]);
    const float gy = 0.5f * (gi[1] - gj[1]);
    const float gz = 0.5f * (gi[2] - gj[2]);

    // Monaghan viscosity on approaching pairs.
    const float dvx = self.vx - other.vx;
    const float dvy = self.vy - other.vy;
    const float dvz = self.vz - other.vz;
    const float vdotr = dvx * dx + dvy * dy + dvz * dz;
    const float h_mean = 0.5f * (self.h + other.h);
    const float cs_mean = 0.5f * (self.cs + other.cs);
    const float rho_mean = 0.5f * (self.rho + other.rho);
    float visc = 0.0f;
    float mu = 0.0f;
    if (vdotr < 0.0f) {
      mu = h_mean * vdotr / (r2 + visc_.eps * h_mean * h_mean);
      visc = (-visc_.alpha * cs_mean * mu + visc_.beta * mu * mu) / rho_mean;
    }

    // Pair force on self: F = -[V_i V_j (P_i + P_j) + m_i m_j Pi_ij] G_ij.
    // (self_p.pv * other.volume + other_p.pv * self.volume) recovers
    // V_i V_j (P_i + P_j) from the shuffled separable partials.
    const float pressure_term =
        self_p.pv * other.volume + other_p.pv * self.volume;
    const float visc_term = self.volume * other.volume * rho_mean * rho_mean * visc;
    const float f = -(pressure_term + visc_term);
    const float mass = self.rho * self.volume;  // m_i
    const float inv_m = 1.0f / mass;
    acc.ax += f * gx * inv_m;
    acc.ay += f * gy * inv_m;
    acc.az += f * gz * inv_m;
    // Half of the pair's compressive work heats self:
    // du_i = -(1/2 m_i) F . (v_i - v_j).
    acc.du += -0.5f * f * (gx * dvx + gy * dvy + gz * dvz) * inv_m;

    // Signal speed for the CFL criterion.
    const float vsig = self.cs + other.cs - 3.0f * std::min(0.0f, mu);
    acc.vsig = std::max(acc.vsig, vsig);
  }

  void store(std::uint32_t i, const Accum& acc) {
    p_.ax[i] += scale_ * acc.ax;
    p_.ay[i] += scale_ * acc.ay;
    p_.az[i] += scale_ * acc.az;
    p_.du[i] += scale_ * acc.du;
    scratch_.vsig[i] = std::max(scratch_.vsig[i], acc.vsig);
  }

  // --- SIMD surface: interact's DAG per lane. The viscosity branch
  // (vdotr < 0) and std::min/std::max become selects; vsig tracking
  // max-blends under the live mask. Keep in lockstep with interact.

  struct SimdLanes {
    gpu::simd::LaneArray x, y, z, vx, vy, vz, h, volume, cs, rho;
    gpu::simd::LaneArray crk_a, bx, by, bz, pv, support;
    void set(std::uint32_t k, const State& s, const Partial& p) {
      x[k] = s.x;
      y[k] = s.y;
      z[k] = s.z;
      vx[k] = s.vx;
      vy[k] = s.vy;
      vz[k] = s.vz;
      h[k] = s.h;
      volume[k] = s.volume;
      cs[k] = s.cs;
      rho[k] = s.rho;
      crk_a[k] = s.crk_a;
      bx[k] = s.bx;
      by[k] = s.by;
      bz[k] = s.bz;
      pv[k] = p.pv;
      support[k] = p.support;
    }
  };

  struct SimdAccum {
    gpu::simd::vfloat ax = gpu::simd::vzero();
    gpu::simd::vfloat ay = gpu::simd::vzero();
    gpu::simd::vfloat az = gpu::simd::vzero();
    gpu::simd::vfloat du = gpu::simd::vzero();
    gpu::simd::vfloat vsig = gpu::simd::vzero();
    Accum lane(std::uint32_t l) const {
      namespace v = gpu::simd;
      return Accum{v::extract(ax, l), v::extract(ay, l), v::extract(az, l),
                   v::extract(du, l), v::extract(vsig, l)};
    }
  };

  template <typename Math>
  void interact_simd(const SimdLanes& self, std::uint32_t sb,
                     const SimdLanes& other, std::uint32_t ob,
                     gpu::simd::vmask live, SimdAccum& acc) const {
    namespace v = gpu::simd;
    // Geometry first: only the position/support lanes gate the cutoff,
    // so fully-dead blocks return before touching the other 12 fields.
    const v::vfloat sx = v::load_aligned(self.x.data() + sb);
    const v::vfloat sy = v::load_aligned(self.y.data() + sb);
    const v::vfloat sz = v::load_aligned(self.z.data() + sb);
    const v::vfloat ssup = v::load_aligned(self.support.data() + sb);
    const v::vfloat ox = v::loadu(other.x.data() + ob);
    const v::vfloat oy = v::loadu(other.y.data() + ob);
    const v::vfloat oz = v::loadu(other.z.data() + ob);
    const v::vfloat osup = v::loadu(other.support.data() + ob);

    const v::vfloat dx = sx - ox;  // d_ij = x_i - x_j
    const v::vfloat dy = sy - oy;
    const v::vfloat dz = sz - oz;
    const v::vfloat r2 = Math::madd(dz, dz, Math::madd(dy, dy, dx * dx));
    const v::vfloat support = v::max_std(ssup, osup);
    live = live & v::cmp_lt(r2, support * support) &
           v::cmp_gt(r2, v::vzero());
    // Fully-dead blocks skip both gradient evaluations and the viscosity
    // chain — see DensityKernelT.
    if (v::mask_bits(live) == 0) return;

    const v::vfloat svx = v::load_aligned(self.vx.data() + sb);
    const v::vfloat svy = v::load_aligned(self.vy.data() + sb);
    const v::vfloat svz = v::load_aligned(self.vz.data() + sb);
    const v::vfloat sh = v::load_aligned(self.h.data() + sb);
    const v::vfloat svol = v::load_aligned(self.volume.data() + sb);
    const v::vfloat scs = v::load_aligned(self.cs.data() + sb);
    const v::vfloat srho = v::load_aligned(self.rho.data() + sb);
    const v::vfloat sa = v::load_aligned(self.crk_a.data() + sb);
    const v::vfloat sbx = v::load_aligned(self.bx.data() + sb);
    const v::vfloat sby = v::load_aligned(self.by.data() + sb);
    const v::vfloat sbz = v::load_aligned(self.bz.data() + sb);
    const v::vfloat spv = v::load_aligned(self.pv.data() + sb);
    const v::vfloat ovx = v::loadu(other.vx.data() + ob);
    const v::vfloat ovy = v::loadu(other.vy.data() + ob);
    const v::vfloat ovz = v::loadu(other.vz.data() + ob);
    const v::vfloat oh = v::loadu(other.h.data() + ob);
    const v::vfloat ovol = v::loadu(other.volume.data() + ob);
    const v::vfloat ocs = v::loadu(other.cs.data() + ob);
    const v::vfloat orho = v::loadu(other.rho.data() + ob);
    const v::vfloat oa = v::loadu(other.crk_a.data() + ob);
    const v::vfloat obx = v::loadu(other.bx.data() + ob);
    const v::vfloat oby = v::loadu(other.by.data() + ob);
    const v::vfloat obz = v::loadu(other.bz.data() + ob);
    const v::vfloat opv = v::loadu(other.pv.data() + ob);
    const v::vfloat r = v::sqrt(r2);

    // Corrected gradients of self's kernel (w.r.t. x_i) and other's
    // (w.r.t. x_j; d_ji = -d_ij), then the antisymmetrized mean.
    const CorrectedGradV gi = corrected_grad_v<Math>(
        sa, sbx, sby, sbz, Shape::w_v(r, sh), Shape::dw_dr_v(r, sh), dx, dy,
        dz, r);
    const CorrectedGradV gj = corrected_grad_v<Math>(
        oa, obx, oby, obz, Shape::w_v(r, oh), Shape::dw_dr_v(r, oh),
        v::neg(dx), v::neg(dy), v::neg(dz), r);
    const v::vfloat gx = v::broadcast(0.5f) * (gi.x - gj.x);
    const v::vfloat gy = v::broadcast(0.5f) * (gi.y - gj.y);
    const v::vfloat gz = v::broadcast(0.5f) * (gi.z - gj.z);

    // Monaghan viscosity on approaching pairs: both sides computed, the
    // vdotr < 0 branch becomes a select (mu = visc = 0 otherwise).
    const v::vfloat dvx = svx - ovx;
    const v::vfloat dvy = svy - ovy;
    const v::vfloat dvz = svz - ovz;
    const v::vfloat vdotr =
        Math::madd(dvz, dz, Math::madd(dvy, dy, dvx * dx));
    const v::vfloat h_mean = v::broadcast(0.5f) * (sh + oh);
    const v::vfloat cs_mean = v::broadcast(0.5f) * (scs + ocs);
    const v::vfloat rho_mean = v::broadcast(0.5f) * (srho + orho);
    const v::vmask approach = v::cmp_lt(vdotr, v::vzero());
    const v::vfloat mu_raw =
        h_mean * vdotr /
        (r2 + v::broadcast(visc_.eps) * h_mean * h_mean);
    const v::vfloat visc_raw =
        (v::broadcast(-visc_.alpha) * cs_mean * mu_raw +
         v::broadcast(visc_.beta) * mu_raw * mu_raw) /
        rho_mean;
    const v::vfloat mu = v::select(approach, mu_raw, v::vzero());
    const v::vfloat visc = v::select(approach, visc_raw, v::vzero());

    const v::vfloat pressure_term = Math::madd(opv, svol, spv * ovol);
    const v::vfloat visc_term = svol * ovol * rho_mean * rho_mean * visc;
    const v::vfloat f = v::neg(pressure_term + visc_term);
    const v::vfloat mass = srho * svol;  // m_i
    const v::vfloat inv_m = v::broadcast(1.0f) / mass;
    acc.ax = v::select(live, Math::madd(f * gx, inv_m, acc.ax), acc.ax);
    acc.ay = v::select(live, Math::madd(f * gy, inv_m, acc.ay), acc.ay);
    acc.az = v::select(live, Math::madd(f * gz, inv_m, acc.az), acc.az);
    const v::vfloat gdotv =
        Math::madd(gz, dvz, Math::madd(gy, dvy, gx * dvx));
    acc.du = v::select(
        live, Math::madd(v::broadcast(-0.5f) * f * gdotv, inv_m, acc.du),
        acc.du);

    // Signal speed: vsig = cs_i + cs_j - 3 min(0, mu), max-tracked.
    const v::vfloat vsig =
        scs + ocs -
        v::broadcast(3.0f) * v::select(v::cmp_lt(mu, v::vzero()), mu,
                                       v::vzero());
    acc.vsig = v::select(live, v::max_std(acc.vsig, vsig), acc.vsig);
  }

 private:
  Particles& p_;
  SphScratch& scratch_;
  const std::uint8_t* active_;
  ViscosityParams visc_;
  float scale_;
};

/// Default (cubic B-spline) instantiations — the names the rest of the
/// code uses; Wendland variants are selected by the solver config.
using DensityKernel = DensityKernelT<CubicSpline>;
using CrkMomentKernel = CrkMomentKernelT<CubicSpline>;
using MomentumEnergyKernel = MomentumEnergyKernelT<CubicSpline>;

}  // namespace crkhacc::sph
