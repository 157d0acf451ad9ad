// Distributed 3-D FFT (SWFFT analog).
//
// The paper's long-range solver performs distributed FFTs on a global
// 12,600^3 mesh (two trillion cells) via HACC's SWFFT, which repartitions
// between the 3-D block layout used by the particle solver and the
// slab/pencil layouts FFTs need. This class implements the same pattern
// in miniature over the in-process communicator, with slabs only:
//
//   real space:    z-slabs, local array (z_local, y, x), x fastest
//   k space:       x-slabs, local array (x_local, y, z), z fastest
//   half spectrum: kx = 0..n/2 only, split over ranks by its own
//                  SlabPartition of n/2 + 1, local array (x_local, y, z)
//
// forward() = per-plane 2-D FFTs + global alltoallv transpose + 1-D z FFTs
// on complex data. forward_real() does the same for a real field: each
// z-plane's x rows are transformed two real rows per complex transform,
// only kx <= n/2 is kept (the rest is the Hermitian mirror), and the y
// pass, the transpose and the z pass run on those n/2 + 1 columns, so
// they do and ship about half the work. backward_real() is its c2r
// inverse: the real part of the complex inverse of the Hermitian
// extension, i.e. the imaginary parts that the extension cannot carry
// (the kx = 0 and kx = n/2 bins of each row after the z and y passes)
// are dropped.
//
// Buffers are allocated on first use, so a grid that runs only the real
// transforms never holds the complex ones, and vice versa.
// All math is FP64, matching the paper's precision split (spectral solver
// in double, short-range solver in single).
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <vector>

#include "comm/world.h"
#include "fft/fft.h"
#include "util/assertions.h"

namespace crkhacc::fft {

/// Signed integer frequency of DFT bin i for length n: 0..n/2, then negative.
inline long freq_of(std::size_t i, std::size_t n) {
  return (i <= n / 2) ? static_cast<long>(i)
                      : static_cast<long>(i) - static_cast<long>(n);
}

/// 1-D slab partition of n items over p ranks (balanced, contiguous).
/// With p > n some ranks own empty slabs.
struct SlabPartition {
  SlabPartition(std::size_t n, int p) : n_(n), p_(p) {}
  std::size_t start(int rank) const {
    return n_ * static_cast<std::size_t>(rank) / static_cast<std::size_t>(p_);
  }
  std::size_t count(int rank) const { return start(rank + 1) - start(rank); }
  /// Rank owning global index i: the largest r with start(r) <= i, i.e.
  /// n·r < (i + 1)·p. That rank's slab is never empty.
  int owner(std::size_t i) const {
    CHECK(i < n_);
    const auto p = static_cast<std::size_t>(p_);
    return static_cast<int>(std::min(p - 1, ((i + 1) * p - 1) / n_));
  }

 private:
  std::size_t n_;
  int p_;
};

class DistributedFFT {
 public:
  /// Cubic n^3 grid distributed over all ranks of `comm`.
  DistributedFFT(comm::Communicator& comm, std::size_t n);

  std::size_t n() const { return n_; }

  // Real-space slab (z-slabs): index (z_local, y, x), x fastest.
  std::size_t local_z_start() const { return z_part_.start(comm_.rank()); }
  std::size_t local_z_count() const { return z_part_.count(comm_.rank()); }
  std::vector<Complex>& real_data();
  std::size_t real_index(std::size_t z_local, std::size_t y, std::size_t x) const {
    return (z_local * n_ + y) * n_ + x;
  }

  // k-space slab (x-slabs): index (x_local, y, z), z fastest.
  std::size_t local_kx_start() const { return x_part_.start(comm_.rank()); }
  std::size_t local_kx_count() const { return x_part_.count(comm_.rank()); }
  std::vector<Complex>& k_data();
  std::size_t k_index(std::size_t x_local, std::size_t y, std::size_t z) const {
    return (x_local * n_ + y) * n_ + z;
  }

  /// real_data -> k_data. Contents of real_data are consumed.
  void forward();

  /// k_data -> real_data (includes the 1/n^3 normalization). Contents of
  /// k_data are consumed.
  void backward();

  /// Real field on the z-slab, indexed like real_data: (z_local, y, x).
  std::vector<double>& real_field();

  // Half spectrum (x-slabs of kx = 0..n/2): index (x_local, y, z), z
  // fastest, k_index's layout over half_count() columns.
  std::size_t half_count() const { return n_ / 2 + 1; }
  std::size_t local_half_start() const { return half_part_.start(comm_.rank()); }
  std::size_t local_half_count() const { return half_part_.count(comm_.rank()); }
  std::vector<Complex>& half_k_data();

  /// real_field -> half_k_data (r2c). Contents of real_field are consumed.
  void forward_real();

  /// half_k_data -> real_field (c2r, includes the 1/n^3 normalization):
  /// the real part of backward() applied to the Hermitian extension of
  /// the half spectrum. Contents of half_k_data are consumed.
  void backward_real();

  const SlabPartition& z_partition() const { return z_part_; }
  const SlabPartition& x_partition() const { return x_part_; }

 private:
  /// Repartition between a z-slab (z_local, y, x) whose rows hold `row`
  /// columns and an x-slab (x_local, y, z) of those columns over `xpart`.
  void transpose_z_to_x(const std::vector<Complex>& slab, std::size_t row,
                        const SlabPartition& xpart, std::vector<Complex>& out);
  void transpose_x_to_z(const std::vector<Complex>& xslab,
                        const SlabPartition& xpart, std::size_t row,
                        std::vector<Complex>& out);

  comm::Communicator& comm_;
  std::size_t n_;
  SlabPartition z_part_;
  SlabPartition x_part_;
  SlabPartition half_part_;
  std::vector<Complex> real_;
  std::vector<Complex> k_;
  std::vector<double> field_;
  std::vector<Complex> half_k_;
};

}  // namespace crkhacc::fft
