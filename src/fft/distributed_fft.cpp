#include "fft/distributed_fft.h"

#include "util/assertions.h"
#include "util/trace.h"

namespace crkhacc::fft {
namespace {

/// Forward DFTs of the n real rows (length n) of one plane into rows of
/// n/2 + 1 complex bins, two rows per complex transform: z = a + i b
/// gives A_k = (Z_k + conj Z_{n-k}) / 2 and B_k = (Z_k - conj Z_{n-k}) / 2i.
/// With n odd the last row is transformed alone. `packed` is scratch.
void rows_r2c(const double* in, std::size_t n, Complex* out,
              std::vector<Complex>& packed) {
  const std::size_t nh = n / 2 + 1;
  const std::size_t pairs = (n + 1) / 2;
  packed.resize(pairs * n);
  for (std::size_t j = 0; j < pairs; ++j) {
    const double* a = in + 2 * j * n;
    const double* b = 2 * j + 1 < n ? a + n : nullptr;
    Complex* z = &packed[j * n];
    for (std::size_t x = 0; x < n; ++x) z[x] = Complex(a[x], b ? b[x] : 0.0);
  }
  transform_lines(packed.data(), n, 1, pairs, n, false);
  for (std::size_t j = 0; j < pairs; ++j) {
    const Complex* z = &packed[j * n];
    Complex* a = out + 2 * j * nh;
    Complex* b = 2 * j + 1 < n ? a + nh : nullptr;
    for (std::size_t k = 0; k < nh; ++k) {
      const Complex zk = z[k];
      const Complex zm = z[(n - k) % n];
      a[k] = Complex(0.5 * (zk.real() + zm.real()), 0.5 * (zk.imag() - zm.imag()));
      if (b) {
        b[k] = Complex(0.5 * (zk.imag() + zm.imag()), 0.5 * (zm.real() - zk.real()));
      }
    }
  }
}

/// Inverse of rows_r2c (c2r, with the 1/n factor): each pair of
/// half-spectrum rows A, B becomes one complex inverse of A + i B over the
/// Hermitian extensions, whose real and imaginary parts are the two real
/// rows. The extension keeps only the real part of the self-mirrored bins
/// 0 and n/2 (n even), which is what the real part of a full complex
/// inverse sees of them.
void rows_c2r(const Complex* in, std::size_t n, double* out,
              std::vector<Complex>& packed) {
  const std::size_t nh = n / 2 + 1;
  const std::size_t pairs = (n + 1) / 2;
  packed.resize(pairs * n);
  for (std::size_t j = 0; j < pairs; ++j) {
    const Complex* a = in + 2 * j * nh;
    const Complex* b = 2 * j + 1 < n ? a + nh : nullptr;
    Complex* z = &packed[j * n];
    for (std::size_t k = 0; k < nh; ++k) {
      const Complex ak = a[k];
      const Complex bk = b ? b[k] : Complex(0.0, 0.0);
      const std::size_t m = (n - k) % n;
      if (m == k) {  // k = 0, or the Nyquist bin of an even n
        z[k] = Complex(ak.real(), bk.real());
      } else {
        z[k] = Complex(ak.real() - bk.imag(), ak.imag() + bk.real());
        z[m] = Complex(ak.real() + bk.imag(), bk.real() - ak.imag());
      }
    }
  }
  transform_lines(packed.data(), n, 1, pairs, n, true);
  for (std::size_t j = 0; j < pairs; ++j) {
    const Complex* z = &packed[j * n];
    double* a = out + 2 * j * n;
    double* b = 2 * j + 1 < n ? a + n : nullptr;
    for (std::size_t x = 0; x < n; ++x) {
      a[x] = z[x].real();
      if (b) b[x] = z[x].imag();
    }
  }
}

}  // namespace

DistributedFFT::DistributedFFT(comm::Communicator& comm, std::size_t n)
    : comm_(comm),
      n_(n),
      z_part_(n, comm.size()),
      x_part_(n, comm.size()),
      half_part_(n / 2 + 1, comm.size()) {
  CHECK(n >= 1);
}

std::vector<Complex>& DistributedFFT::real_data() {
  if (real_.empty()) real_.assign(local_z_count() * n_ * n_, Complex(0.0, 0.0));
  return real_;
}

std::vector<Complex>& DistributedFFT::k_data() {
  if (k_.empty()) k_.assign(local_kx_count() * n_ * n_, Complex(0.0, 0.0));
  return k_;
}

std::vector<double>& DistributedFFT::real_field() {
  if (field_.empty()) field_.assign(local_z_count() * n_ * n_, 0.0);
  return field_;
}

std::vector<Complex>& DistributedFFT::half_k_data() {
  if (half_k_.empty()) {
    half_k_.assign(local_half_count() * n_ * n_, Complex(0.0, 0.0));
  }
  return half_k_;
}

void DistributedFFT::forward() {
  HACC_TRACE_SPAN("fft_forward");
  auto& real = real_data();
  const std::size_t nz_local = local_z_count();
  // 2-D (x, y) FFT on every local z-plane.
  transform_lines(real.data(), n_, 1, nz_local * n_, n_, false);
  for (std::size_t zl = 0; zl < nz_local; ++zl) {
    transform_lines(&real[zl * n_ * n_], n_, n_, n_, 1, false);
  }
  transpose_z_to_x(real, n_, x_part_, k_);
  // 1-D z FFTs (contiguous in the k layout).
  transform_lines(k_.data(), n_, 1, local_kx_count() * n_, n_, false);
}

void DistributedFFT::backward() {
  HACC_TRACE_SPAN("fft_backward");
  auto& k = k_data();
  transform_lines(k.data(), n_, 1, local_kx_count() * n_, n_, true);
  transpose_x_to_z(k, x_part_, n_, real_);
  const std::size_t nz_local = local_z_count();
  transform_lines(real_.data(), n_, 1, nz_local * n_, n_, true);
  for (std::size_t zl = 0; zl < nz_local; ++zl) {
    transform_lines(&real_[zl * n_ * n_], n_, n_, n_, 1, true);
  }
}

void DistributedFFT::forward_real() {
  HACC_TRACE_SPAN("fft_forward");
  const auto& field = real_field();
  const std::size_t nh = half_count();
  const std::size_t nz_local = local_z_count();
  // Per plane: r2c x rows, then y columns, into (z_local, y, kx).
  std::vector<Complex> slab(nz_local * n_ * nh);
  std::vector<Complex> packed;
  for (std::size_t zl = 0; zl < nz_local; ++zl) {
    Complex* plane = &slab[zl * n_ * nh];
    rows_r2c(&field[zl * n_ * n_], n_, plane, packed);
    transform_lines(plane, n_, nh, nh, 1, false);
  }
  transpose_z_to_x(slab, nh, half_part_, half_k_);
  transform_lines(half_k_.data(), n_, 1, local_half_count() * n_, n_, false);
}

void DistributedFFT::backward_real() {
  HACC_TRACE_SPAN("fft_backward");
  auto& half_k = half_k_data();
  const std::size_t nh = half_count();
  transform_lines(half_k.data(), n_, 1, local_half_count() * n_, n_, true);
  std::vector<Complex> slab;
  transpose_x_to_z(half_k, half_part_, nh, slab);
  auto& field = real_field();
  std::vector<Complex> packed;
  for (std::size_t zl = 0; zl < local_z_count(); ++zl) {
    Complex* plane = &slab[zl * n_ * nh];
    transform_lines(plane, n_, nh, nh, 1, true);
    rows_c2r(plane, n_, &field[zl * n_ * n_], packed);
  }
}

void DistributedFFT::transpose_z_to_x(const std::vector<Complex>& slab,
                                      std::size_t row,
                                      const SlabPartition& xpart,
                                      std::vector<Complex>& out) {
  const int p = comm_.size();
  const std::size_t nz_local = local_z_count();
  // Pack: message to rank d contains, ordered (x_local_d, y, z_local_src),
  // the x-range owned by d for every local plane.
  std::vector<std::vector<Complex>> sends(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    const std::size_t x0 = xpart.start(d);
    const std::size_t nxd = xpart.count(d);
    auto& buf = sends[static_cast<std::size_t>(d)];
    buf.resize(nxd * n_ * nz_local);
    std::size_t w = 0;
    for (std::size_t xi = 0; xi < nxd; ++xi) {
      for (std::size_t y = 0; y < n_; ++y) {
        for (std::size_t zl = 0; zl < nz_local; ++zl) {
          buf[w++] = slab[(zl * n_ + y) * row + (x0 + xi)];
        }
      }
    }
  }
  auto recvs = comm_.alltoallv(std::move(sends));
  // Unpack into (x_local, y, z) with z fastest.
  const std::size_t nx_local = xpart.count(comm_.rank());
  out.assign(nx_local * n_ * n_, Complex(0.0, 0.0));
  for (int s = 0; s < p; ++s) {
    const std::size_t z0 = z_part_.start(s);
    const std::size_t nzs = z_part_.count(s);
    const auto& buf = recvs[static_cast<std::size_t>(s)];
    CHECK(buf.size() == nx_local * n_ * nzs);
    std::size_t r = 0;
    for (std::size_t xl = 0; xl < nx_local; ++xl) {
      for (std::size_t y = 0; y < n_; ++y) {
        for (std::size_t zi = 0; zi < nzs; ++zi) {
          out[(xl * n_ + y) * n_ + (z0 + zi)] = buf[r++];
        }
      }
    }
  }
}

void DistributedFFT::transpose_x_to_z(const std::vector<Complex>& xslab,
                                      const SlabPartition& xpart,
                                      std::size_t row,
                                      std::vector<Complex>& out) {
  const int p = comm_.size();
  const std::size_t nx_local = xpart.count(comm_.rank());
  // Pack: message to rank d contains, ordered (x_local_src, y, z_local_d),
  // the z-range owned by d for every local x line.
  std::vector<std::vector<Complex>> sends(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    const std::size_t z0 = z_part_.start(d);
    const std::size_t nzd = z_part_.count(d);
    auto& buf = sends[static_cast<std::size_t>(d)];
    buf.resize(nx_local * n_ * nzd);
    std::size_t w = 0;
    for (std::size_t xl = 0; xl < nx_local; ++xl) {
      for (std::size_t y = 0; y < n_; ++y) {
        for (std::size_t zi = 0; zi < nzd; ++zi) {
          buf[w++] = xslab[(xl * n_ + y) * n_ + (z0 + zi)];
        }
      }
    }
  }
  auto recvs = comm_.alltoallv(std::move(sends));
  const std::size_t nz_local = local_z_count();
  out.assign(nz_local * n_ * row, Complex(0.0, 0.0));
  for (int s = 0; s < p; ++s) {
    const std::size_t x0 = xpart.start(s);
    const std::size_t nxs = xpart.count(s);
    const auto& buf = recvs[static_cast<std::size_t>(s)];
    CHECK(buf.size() == nxs * n_ * nz_local);
    std::size_t r = 0;
    for (std::size_t xi = 0; xi < nxs; ++xi) {
      for (std::size_t y = 0; y < n_; ++y) {
        for (std::size_t zl = 0; zl < nz_local; ++zl) {
          out[(zl * n_ + y) * row + (x0 + xi)] = buf[r++];
        }
      }
    }
  }
}

}  // namespace crkhacc::fft
