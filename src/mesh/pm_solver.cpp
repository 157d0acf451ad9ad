#include "mesh/pm_solver.h"

#include <cmath>
#include <numbers>
#include <unordered_map>

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

/// One fetched force plane: global z index + 3*ng*ng force values.
struct PlaneHeader {
  std::int64_t plane;
};

}  // namespace

CicAxis cic_axis(double position, double cell_size) {
  const double t = position / cell_size - 0.5;
  const double base = std::floor(t);
  return CicAxis{static_cast<long>(base), t - base};
}

PMSolver::PMSolver(comm::Communicator& comm,
                   const comm::CartDecomposition& decomp, const PMConfig& config)
    : comm_(comm),
      decomp_(decomp),
      config_(config),
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
  HACC_TRACE_SPAN("pm_deposit");
  const std::size_t ng = config_.ng;
  const double cell = config_.box / static_cast<double>(ng);
  const double cell_volume = cell * cell * cell;
  const auto& zpart = fft_.z_partition();

  auto wrap_cell = [ng](long c) {
    long m = c % static_cast<long>(ng);
    if (m < 0) m += static_cast<long>(ng);
    return static_cast<std::size_t>(m);
  };

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
        const std::size_t cz = wrap_cell(axis_z.cell + dz);
        const double wz = dz ? axis_z.w_hi : 1.0 - axis_z.w_hi;
        const int owner = zpart.owner(cz);
        for (int dy = 0; dy < 2; ++dy) {
          const std::size_t cy = wrap_cell(axis_y.cell + dy);
          const double wy = dy ? axis_y.w_hi : 1.0 - axis_y.w_hi;
          for (int dx = 0; dx < 2; ++dx) {
            const std::size_t cx = wrap_cell(axis_x.cell + dx);
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

  auto recvs = comm.alltoallv(sends);
  const std::size_t z0 = fft_.local_z_start();
  std::vector<double> density(fft_.local_z_count() * ng * ng, 0.0);
  for (const auto& batch : recvs) {
    for (const auto& c : batch) {
      const std::size_t cz = static_cast<std::size_t>(c.cell / (ng * ng));
      const std::size_t rem = static_cast<std::size_t>(c.cell % (ng * ng));
      HACC_ASSERT(cz >= z0 && cz < z0 + fft_.local_z_count());
      density[(cz - z0) * ng * ng + rem] += c.value;
    }
  }
  return density;
}

std::vector<fft::Complex> PMSolver::overdensity_spectrum(
    comm::Communicator& comm, const Particles& particles) {
  const std::size_t ng = config_.ng;
  auto density = deposit(comm, particles);
  auto& real = fft_.real_data();
  const double inv_mean = mean_density_ > 0.0 ? 1.0 / mean_density_ : 0.0;
  for (std::size_t s = 0; s < density.size(); ++s) {
    real[s] = fft::Complex(density[s] * inv_mean - 1.0, 0.0);
  }
  fft_.forward();
  std::vector<fft::Complex> spectrum = fft_.k_data();
  // Deconvolve the CIC deposit window.
  const std::size_t kx0 = fft_.local_kx_start();
  const std::size_t nx_local = fft_.local_kx_count();
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
                     double overload) {
  const std::size_t ng = config_.ng;
  const double cell = config_.box / static_cast<double>(ng);

  // 1-2. Deposit and transform the overdensity.
  auto density = deposit(comm, particles);
  auto& real = fft_.real_data();
  for (std::size_t s = 0; s < density.size(); ++s) {
    real[s] = fft::Complex(density[s] - mean_density_, 0.0);
  }
  fft_.forward();
  const std::vector<fft::Complex> rho_k = fft_.k_data();  // saved spectrum

  // 3-4. One inverse transform per force component.
  const std::size_t kx0 = fft_.local_kx_start();
  const std::size_t nx_local = fft_.local_kx_count();
  const std::size_t nz_local = fft_.local_z_count();
  std::array<std::vector<double>, 3> force;
  for (int d = 0; d < 3; ++d) {
    util::TraceRecorder::Span gradient_span(util::TraceRecorder::current(),
                                            "pm_gradient");
    auto& kdata = fft_.k_data();
    for (std::size_t xl = 0; xl < nx_local; ++xl) {
      for (std::size_t y = 0; y < ng; ++y) {
        for (std::size_t z = 0; z < ng; ++z) {
          const double g = greens(kx0 + xl, y, z);
          const double kd = wavenumber_[(d == 0) ? kx0 + xl : (d == 1) ? y : z];
          // F_d(k) = -i k_d phi_k
          kdata[(xl * ng + y) * ng + z] =
              fft::Complex(0.0, -kd * g) * rho_k[(xl * ng + y) * ng + z];
        }
      }
    }
    gradient_span.close();
    fft_.backward();
    auto& fd = force[static_cast<std::size_t>(d)];
    fd.resize(nz_local * ng * ng);
    const auto& out = fft_.real_data();
    for (std::size_t s = 0; s < fd.size(); ++s) fd[s] = out[s].real();
  }

  // 5. Fetch the force planes covering this rank's overloaded box.
  util::TraceRecorder::Span fetch_span(util::TraceRecorder::current(),
                                       "pm_fetch_planes");
  const auto obox = decomp_.overloaded_box(comm.rank(), overload);
  // CIC at position z touches cells floor(z/cell - 0.5) and +1; pad by one.
  const long plane_lo = static_cast<long>(std::floor(obox.lo[2] / cell - 0.5)) - 1;
  const long plane_hi = static_cast<long>(std::floor(obox.hi[2] / cell - 0.5)) + 2;
  std::vector<std::int64_t> needed;
  {
    std::vector<bool> seen(ng, false);
    for (long pz = plane_lo; pz <= plane_hi; ++pz) {
      long m = pz % static_cast<long>(ng);
      if (m < 0) m += static_cast<long>(ng);
      if (!seen[static_cast<std::size_t>(m)]) {
        seen[static_cast<std::size_t>(m)] = true;
        needed.push_back(m);
      }
    }
  }

  // Everybody learns everybody's needs, then serves planes it owns.
  std::vector<std::uint8_t> needed_bytes(needed.size() * sizeof(std::int64_t));
  std::memcpy(needed_bytes.data(), needed.data(), needed_bytes.size());
  auto all_needs = comm.allgather_bytes(needed_bytes);

  const auto& zpart = fft_.z_partition();
  const std::size_t z0 = fft_.local_z_start();
  const std::size_t plane_doubles = 3 * ng * ng;
  const int p = comm.size();
  std::vector<std::vector<double>> plane_sends(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    const auto& raw = all_needs[static_cast<std::size_t>(d)];
    const std::size_t count = raw.size() / sizeof(std::int64_t);
    const auto* planes = reinterpret_cast<const std::int64_t*>(raw.data());
    auto& buf = plane_sends[static_cast<std::size_t>(d)];
    for (std::size_t q = 0; q < count; ++q) {
      const auto pz = static_cast<std::size_t>(planes[q]);
      if (zpart.owner(pz) != comm.rank()) continue;
      buf.push_back(static_cast<double>(pz));  // header: plane index
      const std::size_t base = (pz - z0) * ng * ng;
      for (int c = 0; c < 3; ++c) {
        const auto& fc = force[static_cast<std::size_t>(c)];
        buf.insert(buf.end(), fc.begin() + static_cast<std::ptrdiff_t>(base),
                   fc.begin() + static_cast<std::ptrdiff_t>(base + ng * ng));
      }
    }
  }
  auto plane_recvs = comm.alltoallv(plane_sends);

  // Assemble plane index -> local storage offset.
  std::unordered_map<std::size_t, std::size_t> plane_offset;
  std::vector<double> fetched;
  for (const auto& batch : plane_recvs) {
    std::size_t r = 0;
    while (r < batch.size()) {
      const auto pz = static_cast<std::size_t>(batch[r]);
      ++r;
      CHECK(r + plane_doubles <= batch.size() + 0);
      plane_offset[pz] = fetched.size();
      fetched.insert(fetched.end(), batch.begin() + static_cast<std::ptrdiff_t>(r),
                     batch.begin() + static_cast<std::ptrdiff_t>(r + plane_doubles));
      r += plane_doubles;
    }
  }

  fetch_span.close();

  // 6. CIC interpolation for every local particle (ghosts included).
  HACC_TRACE_SPAN("pm_interpolate");
  auto wrap_cell = [ng](long c) {
    long m = c % static_cast<long>(ng);
    if (m < 0) m += static_cast<long>(ng);
    return static_cast<std::size_t>(m);
  };
  // Per-particle gather with disjoint writes; thread-count independent.
  const std::size_t n = particles.size();
  auto interpolate_one = [&](std::size_t i) {
    const CicAxis axis_x = cic_axis(particles.x[i], cell);
    const CicAxis axis_y = cic_axis(particles.y[i], cell);
    const CicAxis axis_z = cic_axis(particles.z[i], cell);
    double f[3] = {0.0, 0.0, 0.0};
    for (int dz = 0; dz < 2; ++dz) {
      const std::size_t cz = wrap_cell(axis_z.cell + dz);
      const double wz = dz ? axis_z.w_hi : 1.0 - axis_z.w_hi;
      const auto it = plane_offset.find(cz);
      CHECK_MSG(it != plane_offset.end(), "force plane not fetched");
      const double* plane = fetched.data() + it->second;
      for (int dy = 0; dy < 2; ++dy) {
        const std::size_t cy = wrap_cell(axis_y.cell + dy);
        const double wy = dy ? axis_y.w_hi : 1.0 - axis_y.w_hi;
        for (int dx = 0; dx < 2; ++dx) {
          const std::size_t cx = wrap_cell(axis_x.cell + dx);
          const double wx = dx ? axis_x.w_hi : 1.0 - axis_x.w_hi;
          const double w = wz * wy * wx;
          const std::size_t idx = cy * ng + cx;
          for (int c = 0; c < 3; ++c) {
            f[c] += w * plane[static_cast<std::size_t>(c) * ng * ng + idx];
          }
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
