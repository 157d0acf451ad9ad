// Particle migration and overload (ghost) exchange.
//
// Once per PM step, each rank: (1) drops its stale ghost replicas,
// (2) migrates owned particles that drifted into other subdomains, and
// (3) re-overloads — sends copies of its boundary particles to every rank
// whose overloaded box contains them, including periodic images (and its
// own periodic images along the axes where a multi-rank grid is unsplit,
// e.g. z of a 2x2x1 slab grid). Ghost copies carry unwrapped image
// coordinates so the receiving rank's chaining mesh sees a spatially
// contiguous cloud.
//
// A one-rank world (comm::CartDecomposition::self_periodic) builds no
// ghosts at all: its short-range work runs on a periodic chaining mesh
// that reads partners at their image positions (tree/chaining_mesh.h),
// so no replica is ever evolved. In situ analysis, which links groups
// across the box edge, gets its replica cloud from
// analysis_replica_cloud() at analysis time only — the same overload
// rule, never evolved.
//
// After the exchange, all short-range work inside the PM step is
// communication-free — the core architectural property of CRK-HACC.
#pragma once

#include "comm/decomposition.h"
#include "comm/world.h"
#include "core/particles.h"

namespace crkhacc::core {

struct ExchangeStats {
  std::int64_t migrated = 0;   ///< owned particles that changed rank
  std::int64_t ghosts = 0;     ///< overload replicas received
  std::int64_t owned = 0;      ///< owned count after exchange
};

/// Full exchange: drop ghosts, migrate owners, rebuild the overload
/// layer of width `overload` (none in a one-rank world).
ExchangeStats exchange_and_overload(comm::Communicator& comm,
                                    const comm::CartDecomposition& decomp,
                                    Particles& particles, double overload);

/// One-rank worlds: the owned particles of `particles` followed by the
/// periodic self-images the overload rule places in the overloaded box
/// of width `overload` (flagged ghost) — exactly the cloud the exchange
/// builds for a rank that is its own neighbor, for analyses that link
/// across the box edge (FOF, SO, galaxies). Built per analysis, never
/// evolved.
Particles analysis_replica_cloud(const comm::CartDecomposition& decomp,
                                 const Particles& particles, double overload);

}  // namespace crkhacc::core
