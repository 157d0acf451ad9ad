#include "gravity/short_range.h"

#include <algorithm>

#include "cosmology/units.h"
#include "util/trace.h"

namespace crkhacc::gravity {

gpu::LaunchStats compute_short_range(
    Particles& particles, const tree::ChainingMesh& mesh,
    const mesh::ForceSplit* split, const GravityConfig& config, double a,
    const std::uint8_t* active, gpu::FlopRegistry& flops,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>* pairs,
    util::ThreadPool* pool) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> own_pairs;
  if (!pairs) {
    // Without a split the kernel is pure Newtonian and every neighbor-bin
    // leaf pair interacts (1e15 >> any box, still finite when squared).
    own_pairs = mesh.interaction_pairs(split ? split->cutoff() : 1e15);
    pairs = &own_pairs;
  }
  gpu::LaunchPlan plan;
  {
    HACC_TRACE_SPAN("launch_plan");
    plan = gpu::LaunchPlan(mesh, *pairs);
  }
  return compute_short_range(particles, mesh, plan, split, config, a, active,
                             flops, nullptr, pool);
}

gpu::LaunchStats compute_short_range(
    Particles& particles, const tree::ChainingMesh& mesh,
    const gpu::LaunchPlan& plan, const mesh::ForceSplit* split,
    const GravityConfig& config, double a, const std::uint8_t* active,
    gpu::FlopRegistry& flops, const std::uint8_t* skip_task,
    util::ThreadPool* pool) {
  const double cutoff = split ? split->cutoff() : 1e15;
  const float scale = static_cast<float>(units::kGravity / (a * a));
  ShortRangeKernel kernel(particles, active, split, scale, config.softening,
                          static_cast<float>(cutoff));
  gpu::LaunchStats stats;
  {
    HACC_TRACE_SPAN(ShortRangeKernel::kName);
    stats = gpu::launch_pair_kernel(kernel, mesh, plan, config.launch, pool,
                                    skip_task);
  }
  flops.add(ShortRangeKernel::kName, stats.flops, stats.seconds);
  return stats;
}

comm::WorkReply execute_work_packet(const comm::WorkPacket& packet,
                                    const mesh::ForceSplit* split,
                                    const GravityConfig& config,
                                    gpu::FlopRegistry& flops,
                                    util::ThreadPool* pool) {
  // Scratch state: the shipped particles in slot order, accelerations
  // zeroed (= the donor's per-substep zeroed accumulators).
  Particles scratch;
  scratch.resize(packet.num_particles());
  std::copy(packet.x.begin(), packet.x.end(), scratch.x.begin());
  std::copy(packet.y.begin(), packet.y.end(), scratch.y.begin());
  std::copy(packet.z.begin(), packet.z.end(), scratch.z.begin());
  std::copy(packet.mass.begin(), packet.mass.end(), scratch.mass.begin());

  const tree::ChainingMesh mesh = tree::ChainingMesh::adopt(packet.leaf_begin);

  std::vector<gpu::LaunchPlan::Entry> entries(packet.entry_partner.size());
  for (std::size_t e = 0; e < entries.size(); ++e) {
    entries[e].partner = packet.entry_partner[e];
    entries[e].side =
        static_cast<gpu::LaunchPlan::Side>(packet.entry_side[e]);
  }
  const gpu::LaunchPlan plan = gpu::LaunchPlan::from_owner_tasks(
      packet.task_owner, packet.task_entry_begin, std::move(entries));

  // The packet's activity flags are the kernel mask, so the helper
  // evaluates the owner lanes the donor would have; inactive slots reply
  // their zeroed accumulators, which the donor does not apply.
  compute_short_range(scratch, mesh, plan, split, config, packet.a_mid,
                      packet.active.data(), flops, nullptr, pool);

  comm::WorkReply reply;
  reply.substep = packet.substep;
  std::size_t slots = 0;
  for (const std::uint32_t l : packet.task_owner) {
    slots += packet.leaf_begin[l + 1] - packet.leaf_begin[l];
  }
  reply.ax.reserve(slots);
  reply.ay.reserve(slots);
  reply.az.reserve(slots);
  for (const std::uint32_t l : packet.task_owner) {
    for (std::uint32_t s = packet.leaf_begin[l]; s < packet.leaf_begin[l + 1];
         ++s) {
      reply.ax.push_back(scratch.ax[s]);
      reply.ay.push_back(scratch.ay[s]);
      reply.az.push_back(scratch.az[s]);
    }
  }
  return reply;
}

void direct_sum_reference(Particles& particles, const mesh::ForceSplit* split,
                          float softening, double accel_scale) {
  const std::size_t n = particles.size();
  const float soft2 = softening * softening;
  for (std::size_t i = 0; i < n; ++i) {
    double ax = 0.0, ay = 0.0, az = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double dx = static_cast<double>(particles.x[i]) - particles.x[j];
      const double dy = static_cast<double>(particles.y[i]) - particles.y[j];
      const double dz = static_cast<double>(particles.z[i]) - particles.z[j];
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 <= 0.0) continue;
      const double r = std::sqrt(r2);
      const double soft_r2 = r2 + soft2;
      const double inv_r3 = 1.0 / (soft_r2 * std::sqrt(soft_r2));
      const double fs = split ? split->short_range_factor(r) : 1.0;
      const double f = -particles.mass[j] * fs * inv_r3;
      ax += f * dx;
      ay += f * dy;
      az += f * dz;
    }
    particles.ax[i] += static_cast<float>(accel_scale * ax);
    particles.ay[i] += static_cast<float>(accel_scale * ay);
    particles.az[i] += static_cast<float>(accel_scale * az);
  }
}

}  // namespace crkhacc::gravity
