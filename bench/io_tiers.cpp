// Section VI-B / IV-B4: multi-tier I/O vs direct-to-PFS writes.
//
// The paper's claim: synchronized node-local NVMe writes + asynchronous
// bleed achieve an effective sustained bandwidth (5.45 TB/s) ABOVE the
// PFS's own peak (4.6 TB/s), because the simulation only ever blocks on
// the fast tier while the slow tier drains in the background. We
// reproduce the experiment on the throttled storage models: N writers
// checkpoint repeatedly through (a) the multi-tier path and (b) direct
// synchronous PFS writes, and compare simulation-blocking time and
// effective bandwidth.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <vector>

#include "common.h"
#include "comm/world.h"
#include "core/particles.h"
#include "io/multi_tier.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace crkhacc;

namespace {

Particles payload_particles(std::size_t count, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Particles p;
  for (std::size_t i = 0; i < count; ++i) {
    p.push_back(i, Species::kDarkMatter,
                static_cast<float>(rng.next_double() * 10.0),
                static_cast<float>(rng.next_double() * 10.0),
                static_cast<float>(rng.next_double() * 10.0), 0, 0, 0, 1.0f);
  }
  return p;
}

struct IoOutcome {
  double blocked_seconds = 0.0;  ///< max over ranks, sum over steps
  double wall_seconds = 0.0;     ///< includes final drain
  std::uint64_t bytes = 0;
};

IoOutcome run_campaign(int ranks, int steps, std::size_t particles_per_rank,
                       bool multi_tier, const std::string& workdir) {
  std::filesystem::remove_all(workdir);
  // NVMe: private 150 MB/s per node. PFS: shared 25 MB/s + 2 ms latency.
  io::ThrottledStore pfs(
      io::StoreConfig{workdir + "/pfs", 25e6, 0.002, /*shared=*/true});
  std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
  for (int r = 0; r < ranks; ++r) {
    nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
        workdir + "/nvme" + std::to_string(r), 150e6, 0.0, false}));
  }
  IoOutcome outcome;
  std::mutex mutex;
  Stopwatch wall;
  comm::World world(ranks);
  world.run([&](comm::Communicator& comm) {
    io::MultiTierWriter writer(*nvmes[static_cast<std::size_t>(comm.rank())],
                               pfs, io::MultiTierConfig{comm.rank(), 3});
    const auto particles =
        payload_particles(particles_per_rank,
                          static_cast<std::uint64_t>(comm.rank()) + 1);
    double blocked = 0.0;
    for (int s = 0; s < steps; ++s) {
      io::SnapshotMeta meta;
      meta.step = static_cast<std::uint64_t>(s);
      meta.rank = comm.rank();
      meta.num_ranks = comm.size();
      blocked += multi_tier ? writer.write_checkpoint(meta, particles)
                            : writer.write_checkpoint_direct(meta, particles);
      // "Simulation work" between checkpoints overlaps the async bleed.
      Stopwatch compute;
      volatile double sink = 0.0;
      while (compute.seconds() < 0.05) sink = sink + 1.0;
      (void)sink;
    }
    writer.drain();
    const double max_blocked =
        comm.allreduce_scalar(blocked, comm::ReduceOp::kMax);
    const auto bytes = static_cast<std::int64_t>(writer.bytes_written());
    const auto total_bytes = comm.allreduce_scalar(bytes, comm::ReduceOp::kSum);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      outcome.blocked_seconds = max_blocked;
      outcome.bytes = static_cast<std::uint64_t>(total_bytes);
    }
  });
  outcome.wall_seconds = wall.seconds();
  std::filesystem::remove_all(workdir);
  return outcome;
}

}  // namespace

int main() {
  bench::print_header("I/O tiers — multi-tier vs direct-to-PFS checkpoints");
  const std::string workdir =
      (std::filesystem::temp_directory_path() / "crkhacc_io_tiers").string();
  const int ranks = 4;
  const int steps = 6;

  std::printf("machine model: %d nodes x 150 MB/s NVMe (private), shared PFS "
              "25 MB/s + 2 ms latency\n\n",
              ranks);
  std::printf("%-12s %-14s %-16s %-18s %-16s\n", "payload", "strategy",
              "blocked [s]", "eff. BW [MB/s]", "wall [s]");
  bench::print_rule();

  for (std::size_t count : {10000u, 40000u, 120000u}) {
    const auto multi =
        run_campaign(ranks, steps, count, /*multi_tier=*/true, workdir);
    const auto direct =
        run_campaign(ranks, steps, count, /*multi_tier=*/false, workdir);
    const double payload_mb =
        static_cast<double>(multi.bytes) / 1e6;
    std::printf("%-12.1f %-14s %-16.3f %-18.1f %-16.2f\n", payload_mb,
                "multi-tier", multi.blocked_seconds,
                payload_mb / std::max(1e-9, multi.blocked_seconds),
                multi.wall_seconds);
    std::printf("%-12.1f %-14s %-16.3f %-18.1f %-16.2f\n", payload_mb,
                "direct-PFS", direct.blocked_seconds,
                payload_mb / std::max(1e-9, direct.blocked_seconds),
                direct.wall_seconds);
    std::printf("%-12s speedup (blocking): %.1fx; effective BW exceeds the "
                "25 MB/s PFS channel: %s\n\n", "",
                direct.blocked_seconds / std::max(1e-9, multi.blocked_seconds),
                payload_mb / std::max(1e-9, multi.blocked_seconds) > 25.0
                    ? "yes"
                    : "no");
  }
  std::printf("paper: 150-180 TB checkpoints in tens of seconds on NVMe; "
              "effective 5.45 TB/s vs Orion's 4.6 TB/s peak -> the\n"
              "multi-tier effective bandwidth exceeds what direct PFS writes "
              "could ever deliver.\n");
  return 0;
}
