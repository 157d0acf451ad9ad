#include "mesh/pm_solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "cosmology/units.h"
#include "util/assertions.h"
#include "util/trace.h"

namespace crkhacc::mesh {
namespace {

constexpr double kPi = std::numbers::pi;

double sinc(double x) {
  if (std::abs(x) < 1e-8) return 1.0;
  return std::sin(x) / x;
}

/// One CIC cell contribution routed to a slab owner.
struct CellContribution {
  std::uint64_t cell;  ///< global (z*ng + y)*ng + x
  double value;
};

/// Periodic wrap of a (possibly out-of-box) cell index into [0, ng).
std::size_t wrap_cell(long c, std::size_t ng) {
  long m = c % static_cast<long>(ng);
  if (m < 0) m += static_cast<long>(ng);
  return static_cast<std::size_t>(m);
}

/// The cells the CIC stencils of a particle set read.
struct Footprint {
  /// Distinct global cell ids (z*ng + y)*ng + x, ascending.
  std::vector<std::uint64_t> cells;
  /// slot[8*i + (dz*2 + dy)*2 + dx]: index into `cells` of particle i's
  /// stencil corner (dx, dy, dz).
  std::vector<std::uint32_t> slot;
};

Footprint stencil_footprint(const Particles& particles, std::size_t ng,
                            double cell, util::ThreadPool* pool) {
  struct Corner {
    std::uint64_t cell;
    std::uint32_t at;  ///< index into Footprint::slot
  };
  const std::size_t n = particles.size();
  CHECK(8 * n <= std::numeric_limits<std::uint32_t>::max());
  std::vector<Corner> corners(8 * n);
  auto collect = [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t i = lo; i < hi; ++i) {
      const CicAxis axis_x = cic_axis(particles.x[i], cell);
      const CicAxis axis_y = cic_axis(particles.y[i], cell);
      const CicAxis axis_z = cic_axis(particles.z[i], cell);
      std::size_t at = 8 * i;
      for (int dz = 0; dz < 2; ++dz) {
        const std::size_t cz = wrap_cell(axis_z.cell + dz, ng);
        for (int dy = 0; dy < 2; ++dy) {
          const std::size_t cy = wrap_cell(axis_y.cell + dy, ng);
          for (int dx = 0; dx < 2; ++dx) {
            const std::size_t cx = wrap_cell(axis_x.cell + dx, ng);
            const std::uint64_t id =
                (static_cast<std::uint64_t>(cz) * ng + cy) * ng + cx;
            corners[at] = Corner{id, static_cast<std::uint32_t>(at)};
            ++at;
          }
        }
      }
    }
  };
  if (pool && pool->num_threads() > 1) {
    pool->parallel_for(0, n, 1024, collect);
  } else {
    collect(0, n, 0);
  }
  // Stable LSD radix sort by cell id, 11 bits per pass: two passes at
  // ng 64, one at ng 12, and no comparisons.
  constexpr int kDigitBits = 11;
  constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDigitBits) - 1;
  const std::uint64_t max_id = static_cast<std::uint64_t>(ng) * ng * ng - 1;
  std::vector<Corner> sorted(corners.size());
  std::vector<std::size_t> offset(kDigitMask + 1);
  for (int shift = 0; shift < 64 && (max_id >> shift) != 0;
       shift += kDigitBits) {
    std::fill(offset.begin(), offset.end(), 0);
    for (const Corner& c : corners) ++offset[(c.cell >> shift) & kDigitMask];
    std::size_t end = 0;
    for (std::size_t& o : offset) {
      end += o;
      o = end - o;
    }
    for (const Corner& c : corners) {
      sorted[offset[(c.cell >> shift) & kDigitMask]++] = c;
    }
    corners.swap(sorted);
  }
  Footprint footprint;
  footprint.slot.resize(8 * n);
  for (const Corner& corner : corners) {
    if (footprint.cells.empty() || footprint.cells.back() != corner.cell) {
      footprint.cells.push_back(corner.cell);
    }
    footprint.slot[corner.at] =
        static_cast<std::uint32_t>(footprint.cells.size() - 1);
  }
  return footprint;
}

}  // namespace

CicAxis cic_axis(double position, double cell_size) {
  const double t = position / cell_size - 0.5;
  const double base = std::floor(t);
  return CicAxis{static_cast<long>(base), t - base};
}

PMSolver::PMSolver(comm::Communicator& comm,
                   const comm::CartDecomposition& /*decomp*/,
                   const PMConfig& config)
    : config_(config),
      split_(config.rs_cells * config.box / static_cast<double>(config.ng),
             config.split_threshold),
      fft_(comm, config.ng) {
  CHECK(config.ng >= 4);
  CHECK(config.box > 0.0);
  const std::size_t ng = config.ng;
  const double cell = config.box / static_cast<double>(ng);
  wavenumber_.resize(ng);
  window_.resize(ng);
  for (std::size_t i = 0; i < ng; ++i) {
    wavenumber_[i] = 2.0 * kPi / config.box *
                     static_cast<double>(fft::freq_of(i, ng));
    window_[i] = sinc(0.5 * wavenumber_[i] * cell);
  }
}

double PMSolver::greens(std::size_t ix, std::size_t iy, std::size_t iz) const {
  const double kx = wavenumber_[ix];
  const double ky = wavenumber_[iy];
  const double kz = wavenumber_[iz];
  const double k2 = kx * kx + ky * ky + kz * kz;
  if (k2 <= 0.0) return 0.0;
  // CIC window is sinc^2 per dimension; deconvolve deposit + interpolation.
  const double wx = window_[ix];
  const double wy = window_[iy];
  const double wz = window_[iz];
  const double w2 = wx * wx * wy * wy * wz * wz;
  const double deconv = 1.0 / (w2 * w2);
  return -4.0 * kPi * units::kGravity *
         split_.long_range_filter(std::sqrt(k2)) * deconv / k2;
}

std::vector<double> PMSolver::deposit(comm::Communicator& comm,
                                      const Particles& particles) {
  std::vector<double> density;
  deposit_into(comm, particles, density);
  return density;
}

void PMSolver::deposit_into(comm::Communicator& comm,
                            const Particles& particles,
                            std::vector<double>& density) {
  HACC_TRACE_SPAN("pm_deposit");
  const std::size_t ng = config_.ng;
  const double cell = config_.box / static_cast<double>(ng);
  const double cell_volume = cell * cell * cell;
  const auto& zpart = fft_.z_partition();

  // Per-chunk deposit batches, merged in fixed chunk order. The chunk
  // decomposition depends only on the particle count, and both serial and
  // pooled paths walk the same chunks, so the send streams and the
  // chunk-folded mass sum are bitwise identical for every thread count.
  const int p = comm.size();
  const std::size_t nloc = particles.size();
  constexpr std::size_t kDepositGrain = 2048;
  const std::size_t nchunks =
      nloc == 0 ? 0 : (nloc + kDepositGrain - 1) / kDepositGrain;
  struct ChunkDeposit {
    std::vector<std::vector<CellContribution>> sends;
    double mass = 0.0;
  };
  std::vector<ChunkDeposit> chunk_out(nchunks);
  auto deposit_range = [&](std::size_t lo, std::size_t hi, std::size_t c) {
    ChunkDeposit& out = chunk_out[c];
    out.sends.resize(static_cast<std::size_t>(p));
    for (std::size_t i = lo; i < hi; ++i) {
      if (!particles.is_owned(i)) continue;  // ghosts deposited by their owner
      out.mass += particles.mass[i];
      const CicAxis axis_x = cic_axis(particles.x[i], cell);
      const CicAxis axis_y = cic_axis(particles.y[i], cell);
      const CicAxis axis_z = cic_axis(particles.z[i], cell);
      const double rho = particles.mass[i] / cell_volume;
      for (int dz = 0; dz < 2; ++dz) {
        const std::size_t cz = wrap_cell(axis_z.cell + dz, ng);
        const double wz = dz ? axis_z.w_hi : 1.0 - axis_z.w_hi;
        const int owner = zpart.owner(cz);
        for (int dy = 0; dy < 2; ++dy) {
          const std::size_t cy = wrap_cell(axis_y.cell + dy, ng);
          const double wy = dy ? axis_y.w_hi : 1.0 - axis_y.w_hi;
          for (int dx = 0; dx < 2; ++dx) {
            const std::size_t cx = wrap_cell(axis_x.cell + dx, ng);
            const double wx = dx ? axis_x.w_hi : 1.0 - axis_x.w_hi;
            out.sends[static_cast<std::size_t>(owner)].push_back(
                CellContribution{
                    (static_cast<std::uint64_t>(cz) * ng + cy) * ng + cx,
                    rho * wz * wy * wx});
          }
        }
      }
    }
  };
  if (pool_ && pool_->num_threads() > 1) {
    pool_->parallel_for(0, nloc, kDepositGrain, deposit_range);
  } else {
    for (std::size_t c = 0; c < nchunks; ++c) {
      deposit_range(c * kDepositGrain,
                    std::min((c + 1) * kDepositGrain, nloc), c);
    }
  }
  std::vector<std::vector<CellContribution>> sends(static_cast<std::size_t>(p));
  double local_mass = 0.0;
  for (auto& out : chunk_out) {
    local_mass += out.mass;
    for (std::size_t d = 0; d < out.sends.size(); ++d) {
      sends[d].insert(sends[d].end(), out.sends[d].begin(),
                      out.sends[d].end());
    }
  }

  const double total_mass =
      comm.allreduce_scalar(local_mass, comm::ReduceOp::kSum);
  mean_density_ = total_mass / (config_.box * config_.box * config_.box);

  auto recvs = comm.alltoallv(std::move(sends));
  const std::size_t z0 = fft_.local_z_start();
  density.assign(fft_.local_z_count() * ng * ng, 0.0);
  for (const auto& batch : recvs) {
    for (const auto& c : batch) {
      const std::size_t cz = static_cast<std::size_t>(c.cell / (ng * ng));
      const std::size_t rem = static_cast<std::size_t>(c.cell % (ng * ng));
      HACC_ASSERT(cz >= z0 && cz < z0 + fft_.local_z_count());
      density[(cz - z0) * ng * ng + rem] += c.value;
    }
  }
}

std::vector<fft::Complex> PMSolver::overdensity_spectrum(
    comm::Communicator& comm, const Particles& particles) {
  const std::size_t ng = config_.ng;
  auto density = deposit(comm, particles);
  // A grid of its own for the complex transform: the solve's transforms
  // are real, so fft_ never holds complex buffers between measurements.
  fft::DistributedFFT grid(comm, ng);
  auto& real = grid.real_data();
  const double inv_mean = mean_density_ > 0.0 ? 1.0 / mean_density_ : 0.0;
  for (std::size_t s = 0; s < density.size(); ++s) {
    real[s] = fft::Complex(density[s] * inv_mean - 1.0, 0.0);
  }
  grid.forward();
  std::vector<fft::Complex> spectrum = std::move(grid.k_data());
  // Deconvolve the CIC deposit window.
  const std::size_t kx0 = grid.local_kx_start();
  const std::size_t nx_local = grid.local_kx_count();
  for (std::size_t xl = 0; xl < nx_local; ++xl) {
    const double wx = window_[kx0 + xl];
    for (std::size_t y = 0; y < ng; ++y) {
      const double wy = window_[y];
      for (std::size_t z = 0; z < ng; ++z) {
        const double wz = window_[z];
        const double w = wx * wx * wy * wy * wz * wz;
        spectrum[(xl * ng + y) * ng + z] /= w;
      }
    }
  }
  return spectrum;
}

void PMSolver::apply(comm::Communicator& comm, Particles& particles,
                     double /*overload*/) {
  const std::size_t ng = config_.ng;
  const double cell = config_.box / static_cast<double>(ng);

  // 1-2. Deposit straight into the real slab and transform the
  // overdensity over the half spectrum.
  auto& field = fft_.real_field();
  deposit_into(comm, particles, field);
  for (double& rho : field) rho -= mean_density_;
  fft_.forward_real();

  // 3. phi_k = G(k) rho_k, once per mode.
  const std::size_t kx0 = fft_.local_half_start();
  const std::size_t nx_local = fft_.local_half_count();
  const std::size_t nz_local = fft_.local_z_count();
  std::vector<fft::Complex> phi = fft_.half_k_data();
  {
    HACC_TRACE_SPAN("pm_greens");
    for (std::size_t xl = 0; xl < nx_local; ++xl) {
      for (std::size_t y = 0; y < ng; ++y) {
        for (std::size_t z = 0; z < ng; ++z) {
          phi[(xl * ng + y) * ng + z] *= greens(kx0 + xl, y, z);
        }
      }
    }
  }

  // 4. F_d(k) = -i k_d phi_k and one c2r inverse per force component.
  // On the Nyquist plane of axis d (even ng) the derivative's sign is
  // undefined and F_d is zeroed: the Hermitian part of -i k_d phi_k
  // vanishes there, so a complex inverse's real part drops it too.
  auto k_of = [&](std::size_t i) {
    return 2 * i == ng ? 0.0 : wavenumber_[i];
  };
  std::array<std::vector<double>, 3> force;
  for (int d = 0; d < 3; ++d) {
    util::TraceRecorder::Span gradient_span(util::TraceRecorder::current(),
                                            "pm_gradient");
    auto& kdata = fft_.half_k_data();
    for (std::size_t xl = 0; xl < nx_local; ++xl) {
      const double kx = k_of(kx0 + xl);
      for (std::size_t y = 0; y < ng; ++y) {
        const double ky = k_of(y);
        for (std::size_t z = 0; z < ng; ++z) {
          const double kd = (d == 0) ? kx : (d == 1) ? ky : k_of(z);
          const std::size_t mode = (xl * ng + y) * ng + z;
          kdata[mode] = fft::Complex(kd * phi[mode].imag(),
                                     -kd * phi[mode].real());
        }
      }
    }
    gradient_span.close();
    fft_.backward_real();
    force[static_cast<std::size_t>(d)] = fft_.real_field();
  }

  // 5. Fetch the force at every cell the local CIC stencils read: owned
  // cells straight from the slab, the rest from their slab owners, three
  // doubles per cell in request order.
  util::TraceRecorder::Span fetch_span(util::TraceRecorder::current(),
                                       "pm_fetch");
  const Footprint footprint = stencil_footprint(particles, ng, cell, pool_);
  const auto& cells = footprint.cells;
  const auto& zpart = fft_.z_partition();
  const std::size_t plane = ng * ng;
  const std::size_t slab_lo = fft_.local_z_start() * plane;
  const std::size_t slab_hi = slab_lo + nz_local * plane;
  auto read_owned = [&](std::uint64_t id, double* out) {
    CHECK(id >= slab_lo && id < slab_hi);
    const std::size_t s = static_cast<std::size_t>(id) - slab_lo;
    for (std::size_t c = 0; c < 3; ++c) out[c] = force[c][s];
  };
  // Cell ids are z-major, so each slab owner's cells form one run of the
  // sorted footprint: [first[d], first[d + 1]).
  const auto p = static_cast<std::size_t>(comm.size());
  const auto me = static_cast<std::size_t>(comm.rank());
  std::vector<std::size_t> first(p + 1);
  for (std::size_t d = 0; d <= p; ++d) {
    const std::uint64_t lo = zpart.start(static_cast<int>(d)) * plane;
    first[d] = static_cast<std::size_t>(
        std::lower_bound(cells.begin(), cells.end(), lo) - cells.begin());
  }
  std::vector<double> values(3 * cells.size());
  for (std::size_t u = first[me]; u < first[me + 1]; ++u) {
    read_owned(cells[u], &values[3 * u]);
  }
  std::vector<std::vector<std::uint64_t>> requests(p);
  for (std::size_t d = 0; d < p; ++d) {
    if (d == me) continue;
    requests[d].assign(cells.data() + first[d], cells.data() + first[d + 1]);
  }
  const auto asked = comm.alltoallv(std::move(requests));
  std::vector<std::vector<double>> answers(p);
  for (std::size_t s = 0; s < p; ++s) {
    answers[s].resize(3 * asked[s].size());
    for (std::size_t q = 0; q < asked[s].size(); ++q) {
      read_owned(asked[s][q], &answers[s][3 * q]);
    }
  }
  const auto answered = comm.alltoallv(std::move(answers));
  for (std::size_t d = 0; d < p; ++d) {
    if (d == me) continue;
    CHECK(answered[d].size() == 3 * (first[d + 1] - first[d]));
    std::copy(answered[d].begin(), answered[d].end(),
              values.data() + 3 * first[d]);
  }
  fetch_span.close();

  // 6. CIC interpolation for every local particle (ghosts included), in
  // the deposit's corner order.
  HACC_TRACE_SPAN("pm_interpolate");
  // Per-particle gather with disjoint writes; thread-count independent.
  const std::size_t n = particles.size();
  auto interpolate_one = [&](std::size_t i) {
    const CicAxis axis_x = cic_axis(particles.x[i], cell);
    const CicAxis axis_y = cic_axis(particles.y[i], cell);
    const CicAxis axis_z = cic_axis(particles.z[i], cell);
    const std::uint32_t* slot = &footprint.slot[8 * i];
    double f[3] = {0.0, 0.0, 0.0};
    for (int dz = 0; dz < 2; ++dz) {
      const double wz = dz ? axis_z.w_hi : 1.0 - axis_z.w_hi;
      for (int dy = 0; dy < 2; ++dy) {
        const double wy = dy ? axis_y.w_hi : 1.0 - axis_y.w_hi;
        for (int dx = 0; dx < 2; ++dx) {
          const double wx = dx ? axis_x.w_hi : 1.0 - axis_x.w_hi;
          const double w = wz * wy * wx;
          const double* v = &values[3 * static_cast<std::size_t>(*slot++)];
          for (int c = 0; c < 3; ++c) f[c] += w * v[c];
        }
      }
    }
    particles.ax[i] = static_cast<float>(f[0]);
    particles.ay[i] = static_cast<float>(f[1]);
    particles.az[i] = static_cast<float>(f[2]);
  };
  if (pool_ && pool_->num_threads() > 1) {
    pool_->parallel_for(0, n, 1024,
                        [&](std::size_t lo, std::size_t hi, std::size_t) {
                          for (std::size_t i = lo; i < hi; ++i) {
                            interpolate_one(i);
                          }
                        });
  } else {
    for (std::size_t i = 0; i < n; ++i) interpolate_one(i);
  }
}

}  // namespace crkhacc::mesh
