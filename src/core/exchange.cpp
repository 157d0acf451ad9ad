#include "core/exchange.h"

#include <array>
#include <vector>

#include "util/assertions.h"
#include "util/trace.h"

namespace crkhacc::core {
namespace {

/// Intersection of two boxes (possibly empty).
comm::Box3 intersect(const comm::Box3& a, const comm::Box3& b) {
  comm::Box3 out;
  for (int d = 0; d < 3; ++d) {
    out.lo[d] = std::max(a.lo[d], b.lo[d]);
    out.hi[d] = std::min(a.hi[d], b.hi[d]);
  }
  return out;
}

bool is_empty(const comm::Box3& b) {
  for (int d = 0; d < 3; ++d) {
    if (b.hi[d] <= b.lo[d]) return true;
  }
  return false;
}

/// A precomputed ghost-send rule: owned particles inside `region` are
/// sent to `target` at position + offset.
struct GhostRegion {
  int target;
  comm::Box3 region;
  std::array<double, 3> offset;
};

/// Send rules of `rank`'s overload layer. A one-rank world evolves no
/// self-images (its chaining mesh wraps instead) unless `self_images`
/// asks for them — the analysis replica cloud.
std::vector<GhostRegion> build_ghost_regions(
    const comm::CartDecomposition& decomp, int rank, double overload,
    bool self_images) {
  const double box = decomp.box_size();
  const auto my_box = decomp.local_box(rank);

  std::vector<int> targets = decomp.neighbors_of(rank);
  // Periodic self-images along unsplit axes of a multi-rank grid.
  if (self_images) targets.push_back(rank);

  std::vector<GhostRegion> regions;
  for (int target : targets) {
    const auto obox = decomp.overloaded_box(target, overload);
    for (int ox = -1; ox <= 1; ++ox) {
      for (int oy = -1; oy <= 1; ++oy) {
        for (int oz = -1; oz <= 1; ++oz) {
          if (target == rank && ox == 0 && oy == 0 && oz == 0) continue;
          const std::array<double, 3> offset{ox * box, oy * box, oz * box};
          // Image p + offset lands in obox  <=>  p in obox - offset.
          comm::Box3 shifted = obox;
          for (int d = 0; d < 3; ++d) {
            shifted.lo[d] -= offset[d];
            shifted.hi[d] -= offset[d];
          }
          const auto region = intersect(shifted, my_box);
          if (!is_empty(region)) {
            regions.push_back(GhostRegion{target, region, offset});
          }
        }
      }
    }
  }
  return regions;
}

}  // namespace

ExchangeStats exchange_and_overload(comm::Communicator& comm,
                                    const comm::CartDecomposition& decomp,
                                    Particles& particles, double overload) {
  HACC_TRACE_SPAN("exchange");
  ExchangeStats stats;
  const int rank = comm.rank();
  const int p = comm.size();
  // A decomposition built for a different machine size silently routes
  // particles to ranks that no longer exist (or never receives from ones
  // that do) — the classic stale-state footgun after a shrink relaunch.
  CHECK_MSG(decomp.num_ranks() == p,
            "exchange: decomposition rank count does not match the "
            "communicator — rebuild CartDecomposition after a resize");

  // 1. Drop stale ghosts.
  {
    std::vector<bool> keep(particles.size());
    for (std::size_t i = 0; i < particles.size(); ++i) {
      keep[i] = particles.is_owned(i);
    }
    particles.compact(keep);
  }

  // 2. Migrate owned particles to their new home ranks.
  {
    std::vector<std::vector<Particles::Record>> sends(static_cast<std::size_t>(p));
    std::vector<bool> keep(particles.size(), true);
    for (std::size_t i = 0; i < particles.size(); ++i) {
      const int owner = decomp.owner_of(
          {particles.x[i], particles.y[i], particles.z[i]});
      if (owner != rank) {
        sends[static_cast<std::size_t>(owner)].push_back(particles.record(i));
        keep[i] = false;
        ++stats.migrated;
      }
    }
    particles.compact(keep);
    auto recvs = comm.alltoallv(std::move(sends));
    for (const auto& batch : recvs) {
      for (const auto& record : batch) {
        particles.append_record(record);
      }
    }
  }
  stats.owned = static_cast<std::int64_t>(particles.size());

  // 3. Re-overload: replicate boundary particles (with image offsets)
  //    into every overlapping overloaded box.
  {
    const auto regions = build_ghost_regions(decomp, rank, overload,
                                             !decomp.self_periodic());
    std::vector<std::vector<Particles::Record>> sends(static_cast<std::size_t>(p));
    for (std::size_t i = 0; i < particles.size(); ++i) {
      const std::array<double, 3> pos{particles.x[i], particles.y[i],
                                      particles.z[i]};
      for (const auto& rule : regions) {
        if (!rule.region.contains(pos)) continue;
        auto record = particles.record(i);
        record.x = static_cast<float>(pos[0] + rule.offset[0]);
        record.y = static_cast<float>(pos[1] + rule.offset[1]);
        record.z = static_cast<float>(pos[2] + rule.offset[2]);
        sends[static_cast<std::size_t>(rule.target)].push_back(record);
      }
    }
    auto recvs = comm.alltoallv(std::move(sends));
    for (const auto& batch : recvs) {
      for (const auto& record : batch) {
        const std::size_t idx = particles.append_record(record);
        particles.ghost[idx] = 1;
        ++stats.ghosts;
      }
    }
  }
  return stats;
}

Particles analysis_replica_cloud(const comm::CartDecomposition& decomp,
                                 const Particles& particles, double overload) {
  CHECK_MSG(decomp.self_periodic(),
            "analysis replicas are built for one-rank worlds only; "
            "multi-rank worlds carry their overload layer from the exchange");
  HACC_TRACE_SPAN("analysis_replicas");
  std::vector<bool> owned(particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    owned[i] = particles.is_owned(i);
  }
  Particles cloud = particles;
  cloud.compact(owned);
  // The exchange's self-target rules, appended in its order: particle by
  // particle, rule by rule. A first pass counts the images, so every
  // column is allocated once at its final size.
  const auto regions = build_ghost_regions(decomp, 0, overload, true);
  const std::size_t n = cloud.size();
  std::size_t images = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::array<double, 3> pos{cloud.x[i], cloud.y[i], cloud.z[i]};
    for (const auto& rule : regions) images += rule.region.contains(pos);
  }
  cloud.reserve(n + images);
  for (std::size_t i = 0; i < n; ++i) {
    const std::array<double, 3> pos{cloud.x[i], cloud.y[i], cloud.z[i]};
    for (const auto& rule : regions) {
      if (!rule.region.contains(pos)) continue;
      auto record = cloud.record(i);
      record.x = static_cast<float>(pos[0] + rule.offset[0]);
      record.y = static_cast<float>(pos[1] + rule.offset[1]);
      record.z = static_cast<float>(pos[2] + rule.offset[2]);
      const std::size_t idx = cloud.append_record(record);
      cloud.ghost[idx] = 1;
    }
  }
  return cloud;
}

}  // namespace crkhacc::core
