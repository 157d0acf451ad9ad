// Wire format for migrated short-range work packets.
//
// Rank-level dynamic load balancing (core/load_balancer.h) ships whole
// owner-leaf work packets from an overloaded rank to an underloaded
// neighbor for one substep: the ghost data of the migrated leaves (and
// of every partner leaf their tiles read) travels out, the resulting
// owner-slot accelerations travel back, and the particles themselves
// never move. This header owns only the byte-level protocol — the
// structs, their (de)serialization, and the tagged send/recv plumbing —
// so the comm layer stays ignorant of meshes and launch plans (those
// live in tree/ and gpu/; the packet extraction that fills these
// structs lives in core/load_balancer.cpp).
//
// Leaf and task indices inside a packet are LOCAL: leaf l refers to the
// l-th leaf shipped in this packet (particle range
// [leaf_begin[l], leaf_begin[l+1]) of the flat arrays), in the donor's
// ascending global-leaf order. The helper rebuilds an adoption mesh
// (tree::ChainingMesh::adopt) and a launch plan
// (gpu::LaunchPlan::from_owner_tasks) directly from these CSRs, so the
// tile walk it executes is positionally identical to the walk the donor
// would have run — the load-balancer's bitwise contract rests on that.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/world.h"

namespace crkhacc::comm {

/// Point-to-point tags of the migration protocol. One request and one
/// reply per (donor, helper, substep); FIFO matching by (source, tag)
/// keeps consecutive substeps unambiguous without per-substep tags.
inline constexpr int kTagLbWork = 7301;
inline constexpr int kTagLbReply = 7302;

/// Side of a cross-pair tile an owner task evaluates — mirrors
/// gpu::LaunchPlan::Side (0 = both/self, 1 = i-side, 2 = j-side). Kept
/// as a raw byte here so the wire format does not depend on gpu/.
using WorkEntrySide = std::uint8_t;

/// One substep's migrated owner-leaf work from one donor.
struct WorkPacket {
  std::uint32_t donor = 0;    ///< sending rank (sanity check)
  std::uint32_t substep = 0;  ///< donor's fine-substep index
  double a_mid = 0.0;         ///< substep-midpoint scale factor

  /// Particle ranges of the shipped leaves: leaf l owns flat-array slots
  /// [leaf_begin[l], leaf_begin[l+1]), in the donor's leaf-perm order.
  std::vector<std::uint32_t> leaf_begin;  ///< size = leaves + 1
  std::vector<float> x, y, z, mass;       ///< per shipped particle
  /// Per shipped particle, 1 if it is active this substep: the helper's
  /// kernel mask, so a migrated task evaluates the same owner lanes as
  /// the donor's own launch would (gpu/warp.h, owner-lane culling).
  std::vector<std::uint8_t> active;

  /// Migrated owner tasks (CSR, in the donor's plan order): task t owns
  /// local leaf task_owner[t] and evaluates entries
  /// [task_entry_begin[t], task_entry_begin[t+1]) — (local partner leaf,
  /// side) tiles in the donor's per-owner pair order.
  std::vector<std::uint32_t> task_owner;
  std::vector<std::uint32_t> task_entry_begin;  ///< size = tasks + 1
  std::vector<std::uint32_t> entry_partner;
  std::vector<WorkEntrySide> entry_side;

  std::size_t num_leaves() const {
    return leaf_begin.empty() ? 0 : leaf_begin.size() - 1;
  }
  std::size_t num_particles() const { return x.size(); }
  std::size_t num_tasks() const { return task_owner.size(); }
};

/// The helper's answer: accelerations of every particle slot of every
/// migrated owner leaf, concatenated in the packet's task order (task
/// t's owner leaf contributes its leaf_begin range's worth of slots).
/// Slots map back to donor particle indices through the donor's own
/// mesh permutation, so no ids travel.
struct WorkReply {
  std::uint32_t substep = 0;
  std::vector<float> ax, ay, az;
};

std::vector<std::uint8_t> encode_work_packet(const WorkPacket& packet);
WorkPacket decode_work_packet(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> encode_work_reply(const WorkReply& reply);
WorkReply decode_work_reply(const std::vector<std::uint8_t>& bytes);

/// Non-blocking: moves the encoded packet into the helper's mailbox.
void send_work_packet(Communicator& comm, int helper, const WorkPacket& packet);
/// Blocking receive of the donor's next packet (FIFO per donor).
WorkPacket recv_work_packet(Communicator& comm, int donor);

void send_work_reply(Communicator& comm, int donor, const WorkReply& reply);
WorkReply recv_work_reply(Communicator& comm, int helper);

}  // namespace crkhacc::comm
