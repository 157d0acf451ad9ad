// CRKSPH hydrodynamics solver.
//
// Orchestrates the per-substep pass sequence over the gas-only chaining
// mesh: density -> (EOS, volumes) -> CRK moments -> coefficient solve ->
// corrected momentum/energy. Accelerations and du/dt are *accumulated*
// into the particle work arrays, so gravity can be summed first.
//
// Also provides the baseline: running with `use_crk = false` skips the
// moment/coefficient machinery and evaluates plain (uncorrected) SPH —
// the comparison CRKSPH improves on.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/particles.h"
#include "gpu/device.h"
#include "gpu/warp.h"
#include "sph/pair_kernels.h"
#include "tree/chaining_mesh.h"
#include "util/thread_pool.h"

namespace crkhacc::sph {

/// Smoothing-kernel choice. CRKSPH runs Wendland C4 at high neighbor
/// counts (the paper's ~270-neighbor configuration) to avoid the pairing
/// instability; the cubic B-spline is the light default.
enum class KernelShape { kCubicSpline, kWendlandC4 };

struct SphConfig {
  KernelShape kernel = KernelShape::kCubicSpline;
  float eta = 1.6f;   ///< smoothing scale: h = eta (m/rho)^(1/3)
  float cfl = 0.25f;  ///< Courant factor
  float h_change_limit = 1.25f;  ///< max h growth/shrink factor per step
  float h_max = 1e30f;  ///< absolute cap (half the CM bin support limit)
  ViscosityParams viscosity;
  /// Pair-kernel launch policy (warp size, mode, tile engine). The
  /// 64-lane default matches AMD-style warps.
  gpu::LaunchConfig launch;
  bool use_crk = true;  ///< false = plain-SPH baseline (A=1, B=0)
};

class SphSolver {
 public:
  explicit SphSolver(const SphConfig& config) : config_(config) {}

  const SphConfig& config() const { return config_; }
  SphConfig& mutable_config() { return config_; }

  /// One full hydro force evaluation.
  ///
  /// `gas_mesh` must be built over gas-particle indices only. `active`
  /// (nullable) marks particles whose state is updated; inactive
  /// particles contribute as neighbors but keep their state. `a` is the
  /// scale factor (1 for non-cosmological tests). Launch statistics are
  /// recorded per kernel into `flops`. If `pairs` is non-null it is used
  /// as the (active-filtered) leaf pair list; otherwise one is built at
  /// interaction_radius(). With a pool, the pairwise sweeps and
  /// per-particle EOS / coefficient loops run on the worker threads
  /// (bitwise identical to the serial path for any thread count).
  void compute_forces(Particles& particles, const tree::ChainingMesh& gas_mesh,
                      double a, const std::uint8_t* active,
                      gpu::FlopRegistry& flops,
                      const std::vector<std::pair<std::uint32_t,
                                                  std::uint32_t>>* pairs =
                          nullptr,
                      util::ThreadPool* pool = nullptr);

  /// Widest kernel support among the mesh's gas: 2 * max h.
  static double interaction_radius(const Particles& particles,
                                   const tree::ChainingMesh& gas_mesh);

  /// Update smoothing lengths of active gas particles from current
  /// densities (rate-limited). Call once per substep after forces.
  void update_smoothing_lengths(Particles& particles,
                                const std::uint8_t* active) const;

  /// Smallest CFL timestep over active gas particles, in cosmic time
  /// units: dt = cfl * a * h / vsig. Returns `fallback` with no gas.
  double min_timestep(const Particles& particles, const std::uint8_t* active,
                      double a, double fallback) const;

  const SphScratch& scratch() const { return scratch_; }

  /// Stats of the last compute_forces call, keyed by kernel name.
  const std::map<std::string, gpu::LaunchStats>& last_stats() const {
    return last_stats_;
  }

  /// Running count of smoothing-length targets rejected for being
  /// non-finite — a corrupted-mass/density signature surfaced to the
  /// SDC auditor (core/sdc.h). Never resets; the auditor diffs it.
  std::uint64_t nonfinite_smoothing_targets() const {
    return nonfinite_targets_;
  }

 private:
  template <typename Shape>
  void compute_forces_impl(
      Particles& particles, const tree::ChainingMesh& gas_mesh, double a,
      const std::uint8_t* active, gpu::FlopRegistry& flops,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>* pairs_in,
      util::ThreadPool* pool);

  SphConfig config_;
  SphScratch scratch_;
  std::map<std::string, gpu::LaunchStats> last_stats_;
  // mutable: update_smoothing_lengths is const (it mutates only the
  // particle set passed in); the census is observability, not state.
  mutable std::uint64_t nonfinite_targets_ = 0;
};

}  // namespace crkhacc::sph
