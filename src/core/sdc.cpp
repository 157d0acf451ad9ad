#include "core/sdc.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <span>

#include "tree/chaining_mesh.h"
#include "util/assertions.h"
#include "util/audit.h"

namespace crkhacc::core {
namespace {

constexpr const char* kCheckNames[kSdcNumChecks] = {
    "nonfinite", "bounds", "conservation", "occupancy", "timestep",
    "snapshot",
};

template <typename Region, typename P>
std::vector<Region> regions_of(P& particles) {
  std::vector<Region> regions;
  regions.reserve(kNumParticleColumns);
  for_each_column([&](const auto& c) {
    auto& column = particles.*c.member;
    regions.push_back({column.data(), column.size() * sizeof(column[0])});
  });
  return regions;
}

/// MemFaultInjector's guarded float columns in drill order: a flip's
/// `field` indexes this list for both the log name and the column.
struct GuardedColumn {
  const char* name;
  std::vector<float> Particles::*member;
};
constexpr GuardedColumn kGuardedColumns[] = {
    {"x", &Particles::x},   {"y", &Particles::y},   {"z", &Particles::z},
    {"vx", &Particles::vx}, {"vy", &Particles::vy}, {"vz", &Particles::vz},
    {"u", &Particles::u},   {"mass", &Particles::mass}};
static_assert(std::size(kGuardedColumns) == MemFaultInjector::kFieldCount);

}  // namespace

std::string sdc_check_names(std::uint32_t mask) {
  if (mask == 0) return "ok";
  std::string names;
  for (int b = 0; b < kSdcNumChecks; ++b) {
    if ((mask & (1u << b)) == 0) continue;
    if (!names.empty()) names += '|';
    names += kCheckNames[b];
  }
  return names;
}

std::uint32_t SdcAuditor::local_audit(const Particles& particles,
                                      const AuditContext& ctx) {
  last_failure_.clear();
  std::uint32_t mask = 0;

  struct FieldScan {
    const char* name;
    std::span<const float> values;
    double lo, hi;
  };
  // Ghost replicas live at unwrapped image coordinates, so the legal
  // position band extends `position_margin` beyond the box on each side.
  const double pm = ctx.position_margin;
  const FieldScan scans[] = {
      {"x", particles.x, -pm, ctx.box + pm},
      {"y", particles.y, -pm, ctx.box + pm},
      {"z", particles.z, -pm, ctx.box + pm},
      {"vx", particles.vx, -config_.max_velocity, config_.max_velocity},
      {"vy", particles.vy, -config_.max_velocity, config_.max_velocity},
      {"vz", particles.vz, -config_.max_velocity, config_.max_velocity},
      {"u", particles.u, -config_.max_internal_energy,
       config_.max_internal_energy},
      {"mass", particles.mass, 0.0, config_.max_particle_mass},
  };
  for (const FieldScan& f : scans) {
    // The scans locate the first offender; CHECK_FINITE / CHECK_BOUNDS
    // then format the exception (value + context) that becomes the
    // verdict bit and the log line — recoverable, so thrown, not fatal.
    const std::size_t nf = util::find_nonfinite(f.values);
    if (nf != util::kAuditNone) {
      try {
        char where[64];
        std::snprintf(where, sizeof(where), "field %s, particle %zu", f.name,
                      nf);
        CHECK_FINITE(f.values[nf], where);
      } catch (const InvariantError& error) {
        mask |= kSdcCheckNonFinite;
        note(error.what());
      }
    }
    const float lo = static_cast<float>(f.lo);
    const float hi = static_cast<float>(f.hi);
    const std::size_t out = util::find_outside(f.values, lo, hi);
    if (out != util::kAuditNone) {
      try {
        char where[64];
        std::snprintf(where, sizeof(where), "field %s, particle %zu", f.name,
                      out);
        CHECK_BOUNDS(f.values[out], lo, hi, where);
      } catch (const InvariantError& error) {
        mask |= kSdcCheckBounds;
        note(error.what());
      }
    }
  }

  if (ctx.solver_nonfinite > 0) {
    mask |= kSdcCheckNonFinite;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "SPH rejected %llu non-finite smoothing targets",
                  static_cast<unsigned long long>(ctx.solver_nonfinite));
    note(buf);
  }

  if (ctx.timestep.nonfinite > 0 || ctx.timestep.nonpositive > 0) {
    mask |= kSdcCheckTimestep;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "timestep limits: %llu NaN, %llu non-positive",
                  static_cast<unsigned long long>(ctx.timestep.nonfinite),
                  static_cast<unsigned long long>(ctx.timestep.nonpositive));
    note(buf);
  }

  const tree::OccupancyStats occ = tree::bin_occupancy(
      ctx.domain, ctx.cm_bin_width, particles, ctx.domain_slack, ctx.box);
  const double occ_limit =
      config_.occupancy_factor * std::max(1.0, occ.mean_bin);
  if (occ.out_of_domain > 0 ||
      static_cast<double>(occ.max_bin) > occ_limit) {
    mask |= kSdcCheckOccupancy;
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "occupancy: %llu escaped domain, fullest bin %llu vs mean "
                  "%.3g over %llu bins",
                  static_cast<unsigned long long>(occ.out_of_domain),
                  static_cast<unsigned long long>(occ.max_bin), occ.mean_bin,
                  static_cast<unsigned long long>(occ.bins));
    note(buf);
  }

  return mask;
}

std::uint32_t SdcAuditor::audit(comm::Communicator& comm,
                                const Particles& particles,
                                const AuditContext& ctx) {
  std::uint32_t mask = local_audit(particles, ctx);

  // Conservation gates compare against the capture-point reference.
  // measure_conservation is collective and its sums are global, so these
  // bits come out identical on every rank. Comparisons are negated so a
  // NaN sum (poisoned by corrupt state) fails the gate.
  const ConservationSnapshot after = measure_conservation(comm, particles);
  if (ctx.reference.count > 0) {
    char buf[224];
    const double mass_drift = util::relative_drift(
        ctx.reference.mass_total, after.mass_total, 1e-30);
    if (!(mass_drift <= config_.mass_drift_tol)) {
      mask |= kSdcCheckConservation;
      std::snprintf(buf, sizeof(buf),
                    "mass drift %.3g (tol %.3g): %.9g -> %.9g", mass_drift,
                    config_.mass_drift_tol, ctx.reference.mass_total,
                    after.mass_total);
      note(buf);
    }
    const double e0 =
        ctx.reference.kinetic_energy + ctx.reference.thermal_energy;
    const double e1 = after.kinetic_energy + after.thermal_energy;
    if (!(e1 <= config_.energy_growth_factor * std::max(e0, 1e-30))) {
      mask |= kSdcCheckConservation;
      std::snprintf(buf, sizeof(buf),
                    "energy grew %.9g -> %.9g (> %.3gx per-step gate)", e0,
                    e1, config_.energy_growth_factor);
      note(buf);
    }
    double dp2 = 0.0;
    for (int d = 0; d < 3; ++d) {
      const double dd = after.momentum[d] - ctx.reference.momentum[d];
      dp2 += dd * dd;
    }
    const double momentum_drift =
        std::sqrt(dp2) / std::max(ctx.reference.abs_momentum, 1e-30);
    if (!(momentum_drift <= config_.momentum_drift_tol)) {
      mask |= kSdcCheckConservation;
      std::snprintf(buf, sizeof(buf),
                    "net momentum drifted %.3g of sum m|v| (tol %.3g)",
                    momentum_drift, config_.momentum_drift_tol);
      note(buf);
    }
  }

  // Per-bit max-reduce == collective OR: every rank leaves with the same
  // verdict mask, and that shared mask IS the commit/rollback decision.
  std::int64_t bits[kSdcNumChecks];
  for (int b = 0; b < kSdcNumChecks; ++b) bits[b] = (mask >> b) & 1;
  comm.allreduce(std::span<std::int64_t>(bits, kSdcNumChecks),
                 comm::ReduceOp::kMax);
  std::uint32_t verdict = 0;
  for (int b = 0; b < kSdcNumChecks; ++b) {
    if (bits[b] != 0) verdict |= 1u << b;
  }
  return verdict;
}

MemFaultInjector::~MemFaultInjector() {
  CHECK_MSG(armed_refs_.load(std::memory_order_acquire) == 0,
            "MemFaultInjector destroyed while still armed on a Simulation");
}

const char* MemFaultInjector::field_name(std::uint32_t field) {
  CHECK(field < kFieldCount);
  return kGuardedColumns[field].name;
}

std::optional<MemFaultInjector::Flip> MemFaultInjector::draw(
    std::uint64_t opportunity) const {
  const std::uint64_t base = opportunity * 4;
  if (rng_.uniform(base) >= rate_) return std::nullopt;
  Flip flip;
  flip.field = static_cast<std::uint32_t>(rng_.u64(base + 1) % kFieldCount);
  flip.index = rng_.u64(base + 2);
  flip.bit = static_cast<std::uint32_t>(rng_.u64(base + 3) % 32);
  return flip;
}

std::string apply_flip(Particles& particles,
                       const MemFaultInjector::Flip& flip) {
  CHECK(!particles.empty());
  CHECK(flip.field < MemFaultInjector::kFieldCount);
  std::vector<float>& field = particles.*kGuardedColumns[flip.field].member;
  const std::size_t i = static_cast<std::size_t>(flip.index % field.size());
  const float before = field[i];
  std::uint32_t bits;
  std::memcpy(&bits, &field[i], sizeof(bits));
  bits ^= 1u << (flip.bit & 31u);
  std::memcpy(&field[i], &bits, sizeof(bits));
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s[%zu] bit %u: %.9g -> %.9g",
                MemFaultInjector::field_name(flip.field), i, flip.bit & 31u,
                static_cast<double>(before), static_cast<double>(field[i]));
  return buf;
}

std::vector<util::PagedSnapshot::Region> snapshot_regions(
    const Particles& particles) {
  return regions_of<util::PagedSnapshot::Region>(particles);
}

std::vector<util::PagedSnapshot::MutableRegion> snapshot_regions(
    Particles& particles) {
  return regions_of<util::PagedSnapshot::MutableRegion>(particles);
}

}  // namespace crkhacc::core
