// Distributed particle-mesh (PM) gravity solver.
//
// Long-range piece of the separation-of-scales architecture (Fig. 2, top
// left). Per PM step:
//
//   1. CIC-deposit owned particles straight into the FFT's real z-slab.
//      Cell contributions are routed to the slab owners with one
//      alltoallv (the block -> slab repartition SWFFT performs in HACC).
//   2. Real-to-complex distributed FFT of the overdensity, over the
//      Hermitian half spectrum kx = 0..ng/2 (fft/distributed_fft.h).
//   3. Apply the filtered Green's function once per mode,
//         phi_k = -4 pi G S(k) W_cic(k)^{-2} rho_k / k^2
//      (S from mesh/force_split.h; W_cic deconvolves the deposit window),
//      then the spectral gradient F_d = -i k_d phi_k per component.
//   4. Three complex-to-real inverse FFTs give the comoving force mesh.
//   5. Every rank fetches the force at the distinct cells its particles'
//      CIC stencils read -- its own slab's directly, the rest from their
//      slab owners in one alltoallv of sorted cell ids -- and interpolates
//      accelerations for all local particles (ghosts included, so
//      overloaded replicas integrate identically).
//
// Nothing in the solve depends on the caller's domain decomposition: the
// deposit and the fetch follow the particles, and the FFT its own slabs.
//
// Forces returned are comoving: -grad phi with Del^2 phi = 4 pi G rho_com.
// The integrator applies the cosmological 1/a^2 factor.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "comm/decomposition.h"
#include "comm/world.h"
#include "core/particles.h"
#include "fft/distributed_fft.h"
#include "mesh/force_split.h"
#include "util/thread_pool.h"

namespace crkhacc::mesh {

struct PMConfig {
  std::size_t ng = 64;        ///< global mesh cells per dimension
  double box = 64.0;          ///< box side (code length)
  double rs_cells = 1.5;      ///< split scale rs in units of grid cells
  double split_threshold = 1e-3;  ///< pair-force tail where handover ends
};

class PMSolver {
 public:
  /// `decomp` is not used: the solve follows the particles and the FFT's
  /// own slabs (see above).
  PMSolver(comm::Communicator& comm, const comm::CartDecomposition& decomp,
           const PMConfig& config);

  const ForceSplit& split() const { return split_; }
  const PMConfig& config() const { return config_; }

  /// Optional intra-node workers for the deposit and interpolation loops.
  /// Deposit batches are merged in fixed chunk order, so the density mesh
  /// and mean density are bitwise identical for every thread count
  /// (including no pool at all). The pool must outlive the solver's use.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }

  /// Full long-range solve: overwrites (ax, ay, az) for every local
  /// particle with the filtered mesh acceleration (comoving, includes G).
  /// `overload`, the ghost-layer width of the caller's domain, sizes
  /// nothing: the fetch follows the particles' own CIC stencils.
  void apply(comm::Communicator& comm, Particles& particles, double overload);

  /// Deposit-only entry point: returns this rank's slab of the global
  /// density mesh (mass per cell volume). Used by tests and by power
  /// spectrum measurement.
  std::vector<double> deposit(comm::Communicator& comm,
                              const Particles& particles);

  /// Mean matter density implied by the most recent deposit.
  double mean_density() const { return mean_density_; }

  /// Deposit + forward FFT of the dimensionless overdensity delta; the
  /// local k-slab is returned with the CIC deposit window deconvolved.
  /// Feeds the in situ power-spectrum measurement.
  std::vector<fft::Complex> overdensity_spectrum(comm::Communicator& comm,
                                                 const Particles& particles);

  const fft::DistributedFFT& fft() const { return fft_; }

 private:
  /// phi_k multiplier: -4 pi G S(k) / (k^2 W^2), 0 at k=0, at the global
  /// frequency indices (ix, iy, iz).
  double greens(std::size_t ix, std::size_t iy, std::size_t iz) const;

  /// CIC-deposits the owned particles into `density`, resized to this
  /// rank's z-slab (mass per cell volume), and sets mean_density().
  void deposit_into(comm::Communicator& comm, const Particles& particles,
                    std::vector<double>& density);

  PMConfig config_;
  ForceSplit split_;
  fft::DistributedFFT fft_;
  /// Per frequency index i (any axis): the wavenumber 2 pi freq(i) / box
  /// and the CIC window factor sinc(k cell / 2). Filled once, so the
  /// Green's function and the spectrum deconvolution cost no sin per mode.
  std::vector<double> wavenumber_;
  std::vector<double> window_;
  double mean_density_ = 0.0;
  util::ThreadPool* pool_ = nullptr;
};

/// CIC weights for one coordinate: returns base cell and fraction.
struct CicAxis {
  long cell;      ///< lower cell index (may need periodic wrap)
  double w_hi;    ///< weight of cell+1; weight of cell is 1-w_hi
};
CicAxis cic_axis(double position, double cell_size);

}  // namespace crkhacc::mesh
