// Structure-of-arrays particle storage.
//
// One container holds every species (dark matter, gas, stars, black holes)
// exactly as CRK-HACC keeps all tracers in unified per-rank arrays that
// are pushed to the device each PM step. SoA layout keeps the short-range
// kernels' memory accesses coalesced-equivalent (unit stride per field).
//
// Positions are comoving (Mpc/h), velocities peculiar (km/s), masses in
// 1e10 Msun/h, internal energy in (km/s)^2. FP32 state matches the paper's
// mixed-precision split: the short-range solver runs single precision.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "util/assertions.h"

namespace crkhacc {

enum class Species : std::uint8_t {
  kDarkMatter = 0,
  kGas = 1,
  kStar = 2,
  kBlackHole = 3,
};

enum class ColumnKind : std::uint8_t {
  kState,    ///< checkpointed, carried by Record, compared bitwise
  kScratch,  ///< per-step accumulator, recomputed after restore
};

/// Call f(column) for every entry of kParticleColumns, in list order.
template <typename F>
void for_each_column(F&& f);

struct Particles {
  std::vector<std::uint64_t> id;
  std::vector<float> x, y, z;     ///< comoving position
  std::vector<float> vx, vy, vz;  ///< peculiar velocity
  std::vector<float> mass;

  // Hydro / subgrid state (meaningful for kGas; zero elsewhere).
  std::vector<float> u;      ///< specific internal energy
  std::vector<float> rho;    ///< SPH mass density (comoving)
  std::vector<float> hsml;   ///< smoothing length
  std::vector<float> metal;  ///< metal mass fraction

  std::vector<std::uint8_t> species;
  std::vector<std::uint8_t> bin;    ///< hierarchical timestep bin
  std::vector<std::uint8_t> ghost;  ///< 1 if overloaded replica, 0 if owned

  // Per-step accumulators (the scratch columns).
  std::vector<float> ax, ay, az;  ///< acceleration accumulator
  std::vector<float> du;          ///< du/dt accumulator

  std::size_t size() const { return x.size(); }
  bool empty() const { return x.empty(); }

  void resize(std::size_t n) {
    for_each_column([&](const auto& c) { (this->*c.member).resize(n); });
  }

  void reserve(std::size_t n) {
    for_each_column([&](const auto& c) { (this->*c.member).reserve(n); });
  }

  /// Append a bare tracer; every column not given here is zero.
  std::size_t push_back(std::uint64_t pid, Species sp, float px, float py,
                        float pz, float pvx, float pvy, float pvz, float m) {
    const std::size_t i = size();
    for_each_column([&](const auto& c) { (this->*c.member).emplace_back(); });
    id[i] = pid;
    x[i] = px; y[i] = py; z[i] = pz;
    vx[i] = pvx; vy[i] = pvy; vz[i] = pvz;
    mass[i] = m;
    species[i] = static_cast<std::uint8_t>(sp);
    return i;
  }

  /// Copy particle `src_index` of `src` onto the end of this container.
  void append_from(const Particles& src, std::size_t src_index) {
    HACC_ASSERT(src_index < src.size());
    for_each_column([&](const auto& c) {
      (this->*c.member).push_back((src.*c.member)[src_index]);
    });
  }

  /// Remove all particles whose keep[i] is false, preserving order of kept
  /// particles. keep.size() must equal size().
  void compact(const std::vector<bool>& keep) {
    HACC_ASSERT(keep.size() == size());
    const std::size_t first = static_cast<std::size_t>(
        std::find(keep.begin(), keep.end(), false) - keep.begin());
    if (first == keep.size()) return;
    for_each_column([&](const auto& c) {
      auto& column = this->*c.member;
      std::size_t w = first;
      for (std::size_t r = first + 1; r < keep.size(); ++r) {
        if (keep[r]) column[w++] = column[r];
      }
      column.resize(w);
    });
  }

  /// Zero every scratch column.
  void clear_scratch() {
    for_each_column([&](const auto& c) {
      if (c.kind != ColumnKind::kScratch) return;
      auto& column = this->*c.member;
      std::fill(column.begin(), column.end(), 0);
    });
  }

  bool is_gas(std::size_t i) const {
    return species[i] == static_cast<std::uint8_t>(Species::kGas);
  }
  bool is_owned(std::size_t i) const { return ghost[i] == 0; }

  /// Fixed-size record of one particle's state columns: the exchange's
  /// wire format, and the one other list of columns (tests pin it to the
  /// state columns). Carries the ghost flag so replicas arrive marked.
  struct Record {
    std::uint64_t id;
    float x, y, z, vx, vy, vz, mass;
    float u, rho, hsml, metal;
    std::uint8_t species;
    std::uint8_t bin;
    std::uint8_t ghost;
  };

  Record record(std::size_t i) const {
    return Record{id[i], x[i], y[i], z[i], vx[i], vy[i], vz[i], mass[i],
                  u[i], rho[i], hsml[i], metal[i], species[i], bin[i],
                  ghost[i]};
  }

  std::size_t append_record(const Record& r) {
    const std::size_t i =
        push_back(r.id, static_cast<Species>(r.species), r.x, r.y, r.z, r.vx,
                  r.vy, r.vz, r.mass);
    u[i] = r.u; rho[i] = r.rho; hsml[i] = r.hsml; metal[i] = r.metal;
    bin[i] = r.bin;
    ghost[i] = r.ghost;
    return i;
  }
};

/// One SoA column of Particles.
template <typename T>
struct ParticleColumn {
  const char* name;
  std::vector<T> Particles::*member;
  ColumnKind kind;
};

/// Every column of Particles, once: the bulk operations, the SDC snapshot
/// regions, the checkpoint columns and first_state_difference iterate it.
/// The state columns come first, in CKC2 order (part of the file layout).
inline constexpr std::tuple kParticleColumns{
    ParticleColumn{"id", &Particles::id, ColumnKind::kState},
    ParticleColumn{"x", &Particles::x, ColumnKind::kState},
    ParticleColumn{"y", &Particles::y, ColumnKind::kState},
    ParticleColumn{"z", &Particles::z, ColumnKind::kState},
    ParticleColumn{"vx", &Particles::vx, ColumnKind::kState},
    ParticleColumn{"vy", &Particles::vy, ColumnKind::kState},
    ParticleColumn{"vz", &Particles::vz, ColumnKind::kState},
    ParticleColumn{"mass", &Particles::mass, ColumnKind::kState},
    ParticleColumn{"u", &Particles::u, ColumnKind::kState},
    ParticleColumn{"rho", &Particles::rho, ColumnKind::kState},
    ParticleColumn{"hsml", &Particles::hsml, ColumnKind::kState},
    ParticleColumn{"metal", &Particles::metal, ColumnKind::kState},
    ParticleColumn{"species", &Particles::species, ColumnKind::kState},
    ParticleColumn{"bin", &Particles::bin, ColumnKind::kState},
    ParticleColumn{"ghost", &Particles::ghost, ColumnKind::kState},
    ParticleColumn{"ax", &Particles::ax, ColumnKind::kScratch},
    ParticleColumn{"ay", &Particles::ay, ColumnKind::kScratch},
    ParticleColumn{"az", &Particles::az, ColumnKind::kScratch},
    ParticleColumn{"du", &Particles::du, ColumnKind::kScratch},
};
inline constexpr std::size_t kNumParticleColumns =
    std::tuple_size_v<decltype(kParticleColumns)>;
// A member added to Particles has to join the list.
static_assert(sizeof(Particles) ==
              kNumParticleColumns * sizeof(std::vector<float>));

template <typename F>
void for_each_column(F&& f) {
  std::apply([&f](const auto&... column) { (f(column), ...); },
             kParticleColumns);
}

/// Compare the state columns of `a` and `b` bit for bit (-0.0 differs
/// from +0.0). Returns "" when they match, otherwise the first difference
/// in list order: "size 8 vs 9" or "<column>[<index>]".
inline std::string first_state_difference(const Particles& a,
                                          const Particles& b) {
  if (a.size() != b.size()) {
    return "size " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  std::string where;
  for_each_column([&](const auto& c) {
    if (c.kind != ColumnKind::kState) return;
    const auto& va = a.*c.member;
    const auto& vb = b.*c.member;
    for (std::size_t i = 0; i < va.size() && where.empty(); ++i) {
      if (std::memcmp(&va[i], &vb[i], sizeof(va[i])) != 0) {
        where = std::string(c.name) + "[" + std::to_string(i) + "]";
      }
    }
  });
  return where;
}

}  // namespace crkhacc
