#include "core/load_balancer.h"

#include <algorithm>
#include <numeric>

#include "util/assertions.h"
#include "util/trace.h"

namespace crkhacc::core {
namespace {

/// Per-rank load sample exchanged by the decision collective.
struct RankLoad {
  double census = 0.0;
  double measured = 0.0;
  std::uint64_t nfine = 0;
};

}  // namespace

std::vector<double> lb_bin_costs(const tree::ChainingMesh& mesh) {
  const auto& dims = mesh.dims();
  const std::size_t nbins = mesh.num_bins();
  std::vector<double> counts(nbins);
  for (std::size_t b = 0; b < nbins; ++b) {
    counts[b] = static_cast<double>(mesh.bin_particle_count(b));
  }
  std::vector<double> costs(nbins, 0.0);
  for (int bz = 0; bz < dims[2]; ++bz) {
    for (int by = 0; by < dims[1]; ++by) {
      for (int bx = 0; bx < dims[0]; ++bx) {
        const std::size_t b =
            (static_cast<std::size_t>(bz) * dims[1] + by) * dims[0] + bx;
        const double nb = counts[b];
        if (nb <= 0.0) continue;
        double neighbor_sum = 0.0;
        for (int dz = -1; dz <= 1; ++dz) {
          const int cz = bz + dz;
          if (cz < 0 || cz >= dims[2]) continue;
          for (int dy = -1; dy <= 1; ++dy) {
            const int cy = by + dy;
            if (cy < 0 || cy >= dims[1]) continue;
            for (int dx = -1; dx <= 1; ++dx) {
              const int cx = bx + dx;
              if (cx < 0 || cx >= dims[0]) continue;
              if (dx == 0 && dy == 0 && dz == 0) continue;
              const std::size_t nbr =
                  (static_cast<std::size_t>(cz) * dims[1] + cy) * dims[0] + cx;
              neighbor_sum += counts[nbr];
            }
          }
        }
        costs[b] = nb * (nb - 1.0) + nb * neighbor_sum;
      }
    }
  }
  return costs;
}

double lb_census_cost(const tree::ChainingMesh& mesh) {
  const auto costs = lb_bin_costs(mesh);
  return std::accumulate(costs.begin(), costs.end(), 0.0);
}

std::vector<double> lb_blend_costs(const std::vector<double>& census,
                                   const std::vector<double>& measured) {
  CHECK(census.size() == measured.size());
  const std::size_t n = census.size();
  const double census_sum = std::accumulate(census.begin(), census.end(), 0.0);
  const double measured_sum =
      std::accumulate(measured.begin(), measured.end(), 0.0);
  const bool all_measured =
      n > 0 && std::all_of(measured.begin(), measured.end(),
                           [](double m) { return m > 0.0; });
  if (!all_measured || census_sum <= 0.0 || measured_sum <= 0.0) {
    return census;
  }
  const double mean_census = census_sum / static_cast<double>(n);
  const double mean_measured = measured_sum / static_cast<double>(n);
  std::vector<double> blended(n);
  for (std::size_t r = 0; r < n; ++r) {
    blended[r] = 0.5 * mean_census *
                 (census[r] / mean_census + measured[r] / mean_measured);
  }
  return blended;
}

LbPlan lb_assign(const std::vector<double>& costs,
                 const comm::CartDecomposition& decomp,
                 const LbConfig& config) {
  LbPlan plan;
  const std::size_t n = costs.size();
  if (n < 2) return plan;
  const double mean =
      std::accumulate(costs.begin(), costs.end(), 0.0) / static_cast<double>(n);
  if (mean <= 0.0) return plan;
  const double peak = *std::max_element(costs.begin(), costs.end());
  plan.imbalance_before = peak / mean;
  plan.imbalance_after = plan.imbalance_before;

  // Donors in descending cost (ties to the lower rank: stable sort over
  // the ascending rank order).
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return costs[a] > costs[b];
  });

  std::vector<std::uint8_t> used(n, 0);
  std::vector<double> shifted = costs;
  for (const int donor : order) {
    if (costs[donor] <= mean) break;  // the rest are not overloaded
    if (used[donor]) continue;
    // Cheapest unused underloaded neighbor; ascending-rank scan with a
    // strict < keeps ties on the lower rank.
    std::vector<int> neighbors = decomp.neighbors_of(donor);
    std::sort(neighbors.begin(), neighbors.end());
    int helper = -1;
    for (const int h : neighbors) {
      if (used[h] || costs[h] >= mean) continue;
      if (helper < 0 || costs[h] < costs[helper]) helper = h;
    }
    if (helper < 0) continue;
    const double delta =
        std::min({costs[donor] - mean, mean - costs[helper],
                  config.max_fraction * costs[donor]});
    if (delta <= 0.0) continue;
    used[donor] = used[helper] = 1;
    plan.migrations.push_back(LbMigration{donor, helper, delta});
    shifted[donor] -= delta;
    shifted[helper] += delta;
  }
  if (!plan.migrations.empty()) {
    plan.imbalance_after =
        *std::max_element(shifted.begin(), shifted.end()) / mean;
  }
  return plan;
}

bool lb_gate(double ratio, bool engaged, const LbConfig& config) {
  if (config.threshold <= 0.0) return false;
  if (ratio > config.threshold) return true;
  const double rearm =
      std::max(1.0, 1.0 + config.hysteresis * (config.threshold - 1.0));
  return engaged && ratio > rearm;
}

std::vector<std::uint8_t> lb_pick_bins(const std::vector<double>& bin_costs,
                                       double delta) {
  std::vector<std::uint8_t> flags(bin_costs.size(), 0);
  if (delta <= 0.0) return flags;
  std::vector<std::size_t> order(bin_costs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return bin_costs[a] > bin_costs[b];
  });
  double shipped = 0.0;
  for (const std::size_t b : order) {
    if (bin_costs[b] <= 0.0) break;
    if (shipped + bin_costs[b] / 2.0 > delta) continue;
    flags[b] = 1;
    shipped += bin_costs[b];
  }
  return flags;
}

LbDecision LoadBalancer::decide(const tree::ChainingMesh& mesh,
                                std::uint64_t nfine,
                                double measured_seconds) {
  LbDecision d;
  if (!enabled()) return d;

  const std::vector<double> bin_costs = lb_bin_costs(mesh);
  RankLoad mine;
  mine.census = std::accumulate(bin_costs.begin(), bin_costs.end(), 0.0);
  mine.measured = measured_seconds;
  mine.nfine = nfine;
  const std::vector<RankLoad> loads = comm_.allgather_value(mine);

  std::vector<double> census(loads.size()), measured(loads.size());
  for (std::size_t r = 0; r < loads.size(); ++r) {
    census[r] = loads[r].census;
    measured[r] = loads[r].measured;
  }
  const std::vector<double> costs = lb_blend_costs(census, measured);

  const LbPlan plan = lb_assign(costs, decomp_, config_);
  d.decided = true;
  d.imbalance_before = plan.imbalance_before;
  d.imbalance_after = plan.imbalance_before;
  ++decisions_;

  engaged_ = lb_gate(plan.imbalance_before, engaged_, config_);
  if (!engaged_ || plan.migrations.empty()) return d;

  d.imbalance_after = plan.imbalance_after;
  const int rank = comm_.rank();
  for (const LbMigration& m : plan.migrations) {
    if (m.donor == rank) {
      d.helper = m.helper;
      // The bin pick works in census units; rescale the (possibly
      // measurement-blended) delta back onto this rank's census share.
      const double delta_census =
          costs[m.donor] > 0.0 ? m.delta * (census[m.donor] / costs[m.donor])
                               : m.delta;
      d.bin_migrated = lb_pick_bins(bin_costs, delta_census);
    }
    if (m.helper == rank) {
      d.donors.push_back(m.donor);
      d.donor_substeps.push_back(loads[m.donor].nfine);
    }
  }
  // Serve donors in ascending rank order every substep — the fixed
  // order both sides of the protocol agree on.
  std::vector<std::size_t> by_rank(d.donors.size());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::sort(by_rank.begin(), by_rank.end(), [&](std::size_t a, std::size_t b) {
    return d.donors[a] < d.donors[b];
  });
  std::vector<int> donors;
  std::vector<std::uint64_t> substeps;
  for (const std::size_t i : by_rank) {
    donors.push_back(d.donors[i]);
    substeps.push_back(d.donor_substeps[i]);
  }
  d.donors = std::move(donors);
  d.donor_substeps = std::move(substeps);

  ++migration_steps_;
  return d;
}

comm::WorkPacket extract_work_packet(const Particles& particles,
                                     const tree::ChainingMesh& mesh,
                                     const gpu::LaunchPlan& plan,
                                     const std::vector<std::uint8_t>& skip_task,
                                     const std::uint8_t* active, double a_mid,
                                     std::uint32_t substep,
                                     std::uint32_t donor_rank) {
  // Packets name leaves by real index; image ids of a periodic mesh
  // (one-rank worlds, where there is no helper to ship to) are not
  // representable in them.
  CHECK_MSG(!mesh.periodic(),
            "work packets carry no periodic image ids");
  comm::WorkPacket packet;
  packet.donor = donor_rank;
  packet.substep = substep;
  packet.a_mid = a_mid;

  // Shipped leaves: migrated owners plus every partner their tiles read,
  // ascending global-leaf order (so local ids resolve by binary search).
  std::vector<std::uint32_t> needed;
  for (std::size_t t = 0; t < plan.num_owners(); ++t) {
    if (!skip_task[t]) continue;
    needed.push_back(plan.owner(t));
    for (const gpu::LaunchPlan::Entry& e : plan.entries(t)) {
      needed.push_back(e.partner);
    }
  }
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  const auto local_id = [&](std::uint32_t leaf) {
    const auto it = std::lower_bound(needed.begin(), needed.end(), leaf);
    return static_cast<std::uint32_t>(it - needed.begin());
  };

  packet.leaf_begin.reserve(needed.size() + 1);
  packet.leaf_begin.push_back(0);
  for (const std::uint32_t leaf : needed) {
    const tree::Leaf& l = mesh.leaf(leaf);
    packet.leaf_begin.push_back(packet.leaf_begin.back() + l.size());
    for (std::uint32_t s = l.begin; s < l.end; ++s) {
      const std::uint32_t i = mesh.permutation()[s];
      packet.x.push_back(particles.x[i]);
      packet.y.push_back(particles.y[i]);
      packet.z.push_back(particles.z[i]);
      packet.mass.push_back(particles.mass[i]);
      packet.active.push_back(active ? active[i] : 1);
    }
  }

  packet.task_entry_begin.push_back(0);
  for (std::size_t t = 0; t < plan.num_owners(); ++t) {
    if (!skip_task[t]) continue;
    packet.task_owner.push_back(local_id(plan.owner(t)));
    for (const gpu::LaunchPlan::Entry& e : plan.entries(t)) {
      packet.entry_partner.push_back(local_id(e.partner));
      packet.entry_side.push_back(static_cast<std::uint8_t>(e.side));
    }
    packet.task_entry_begin.push_back(
        static_cast<std::uint32_t>(packet.entry_partner.size()));
  }
  return packet;
}

void apply_work_reply(Particles& particles, const tree::ChainingMesh& mesh,
                      const gpu::LaunchPlan& plan,
                      const std::vector<std::uint8_t>& skip_task,
                      const comm::WorkReply& reply,
                      const std::uint8_t* active) {
  std::size_t k = 0;
  for (std::size_t t = 0; t < plan.num_owners(); ++t) {
    if (!skip_task[t]) continue;
    const tree::Leaf& l = mesh.leaf(plan.owner(t));
    for (std::uint32_t s = l.begin; s < l.end; ++s, ++k) {
      const std::uint32_t i = mesh.permutation()[s];
      if (active && !active[i]) continue;
      particles.ax[i] = reply.ax[k];
      particles.ay[i] = reply.ay[k];
      particles.az[i] = reply.az[k];
    }
  }
  CHECK_MSG(k == reply.ax.size(), "work reply slot count disagrees");
}

gpu::LaunchStats LoadBalancer::donor_substep(
    Particles& particles, const tree::ChainingMesh& mesh,
    const std::vector<Pair>& pairs, const mesh::ForceSplit* split,
    const gravity::GravityConfig& gconfig, double a_mid,
    const std::uint8_t* active, gpu::FlopRegistry& flops,
    util::ThreadPool* pool, const LbDecision& d, std::uint64_t substep) {
  gpu::LaunchPlan plan;
  {
    HACC_TRACE_SPAN("launch_plan");
    plan = gpu::LaunchPlan(mesh, pairs);
  }
  std::vector<std::uint8_t> skip(plan.num_owners(), 0);
  for (std::size_t t = 0; t < plan.num_owners(); ++t) {
    skip[t] = d.bin_migrated[mesh.leaf_bin(plan.owner(t))];
  }
  {
    HACC_TRACE_SPAN("lb_ship");
    const comm::WorkPacket packet =
        extract_work_packet(particles, mesh, plan, skip, active, a_mid,
                            static_cast<std::uint32_t>(substep),
                            static_cast<std::uint32_t>(comm_.rank()));
    comm::send_work_packet(comm_, d.helper, packet);
    ++packets_sent_;
  }
  const gpu::LaunchStats stats =
      gravity::compute_short_range(particles, mesh, plan, split, gconfig,
                                   a_mid, active, flops, skip.data(), pool);
  {
    HACC_TRACE_SPAN("lb_return");
    const comm::WorkReply reply = comm::recv_work_reply(comm_, d.helper);
    CHECK_MSG(reply.substep == substep, "work reply substep disagrees");
    apply_work_reply(particles, mesh, plan, skip, reply, active);
  }
  return stats;
}

void LoadBalancer::serve(const LbDecision& d, std::uint64_t substep,
                         const mesh::ForceSplit* split,
                         const gravity::GravityConfig& gconfig,
                         gpu::FlopRegistry& flops, util::ThreadPool* pool) {
  for (std::size_t i = 0; i < d.donors.size(); ++i) {
    if (substep >= d.donor_substeps[i]) continue;
    HACC_TRACE_SPAN("lb_serve");
    const comm::WorkPacket packet = comm::recv_work_packet(comm_, d.donors[i]);
    CHECK_MSG(packet.substep == substep, "work packet substep disagrees");
    const comm::WorkReply reply =
        gravity::execute_work_packet(packet, split, gconfig, flops, pool);
    comm::send_work_reply(comm_, d.donors[i], reply);
    ++packets_served_;
  }
}

void LoadBalancer::drain(const LbDecision& d, std::uint64_t from_substep,
                         const mesh::ForceSplit* split,
                         const gravity::GravityConfig& gconfig,
                         gpu::FlopRegistry& flops, util::ThreadPool* pool) {
  std::uint64_t deepest = 0;
  for (const std::uint64_t s : d.donor_substeps) deepest = std::max(deepest, s);
  for (std::uint64_t s = from_substep; s < deepest; ++s) {
    serve(d, s, split, gconfig, flops, pool);
  }
}

}  // namespace crkhacc::core
