// Differential-checkpoint gate: steady-state byte reduction + bitwise
// chain restore.
//
// The paper's checkpoint cadence is dominated by steps where most
// particle state barely moves between writes (quiescent regions of a
// slowly-evolving volume). The chunked column format (io/column_file.h)
// exploits that: a differential write carries only the chunks whose page
// CRC moved since the previous checkpoint. This bench drives the
// MultiTierWriter over a quiescent workload — a contiguous ~1/128 slice
// of the particles drifts each step, the rest holds still — and gates:
//
//   1. reduction — steady-state diff bytes at least 5x smaller than the
//      full checkpoint that anchors the chain;
//   2. correctness — restoring the chain tip replays full -> diff -> ...
//      bitwise identical to the live particle state (every column);
//   3. bookkeeping — every write after the first is a diff, and skipped
//      chunks dominate written ones.
//
// --quick shrinks the problem and runs as the ckpt_diff_smoke ctest
// target, so a planner or chain regression fails the build.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/particles.h"
#include "io/checkpoint.h"
#include "io/column_file.h"
#include "io/multi_tier.h"
#include "io/storage.h"
#include "util/rng.h"

using namespace crkhacc;

namespace {

namespace fs = std::filesystem;

Particles quiescent_particles(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Particles p;
  for (std::size_t i = 0; i < n; ++i) {
    const auto idx = p.push_back(
        i, i % 2 ? Species::kGas : Species::kDarkMatter,
        static_cast<float>(rng.next_double() * 10.0),
        static_cast<float>(rng.next_double() * 10.0),
        static_cast<float>(rng.next_double() * 10.0),
        static_cast<float>(rng.next_gaussian()),
        static_cast<float>(rng.next_gaussian()),
        static_cast<float>(rng.next_gaussian()),
        static_cast<float>(1.0 + rng.next_double()));
    p.u[idx] = static_cast<float>(rng.next_double() * 100.0);
    p.rho[idx] = static_cast<float>(rng.next_double());
    p.hsml[idx] = 0.5f;
  }
  return p;
}

/// One "step" of the quiescent workload: a contiguous 1/128 slice
/// drifts, everything else is untouched.
void drift_slice(Particles& p, std::uint64_t step) {
  const std::size_t slice = std::max<std::size_t>(1, p.size() / 128);
  const std::size_t start = (static_cast<std::size_t>(step) * slice) % p.size();
  for (std::size_t i = start; i < std::min(start + slice, p.size()); ++i) {
    p.x[i] += 0.01f;
    p.y[i] += 0.01f;
    p.z[i] += 0.01f;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t n = quick ? 40000 : 100000;
  const std::uint64_t steps = quick ? 6 : 16;

  const auto root = fs::temp_directory_path() / "crkhacc_ckpt_diff_bench";
  fs::remove_all(root);
  io::ThrottledStore nvme(
      io::StoreConfig{(root / "nvme").string(), 0.0, 0.0, false});
  io::ThrottledStore pfs(
      io::StoreConfig{(root / "pfs").string(), 0.0, 0.0, true});
  io::MultiTierConfig config;
  config.rank = 0;
  config.checkpoint_window = 4;
  config.ckpt.diff = true;
  config.ckpt.diff_max_chain = static_cast<int>(steps);  // one chain end to end
  io::MultiTierWriter writer(nvme, pfs, config);

  auto p = quiescent_particles(n, 42);
  for (std::uint64_t step = 1; step <= steps; ++step) {
    if (step > 1) drift_slice(p, step);
    io::SnapshotMeta meta;
    meta.step = step;
    meta.scale_factor = 0.1 + 0.01 * static_cast<double>(step);
    writer.write_checkpoint(meta, p);
  }
  writer.drain();

  const auto records = writer.records();
  const auto stats = writer.stats();
  std::uint64_t full_bytes = 0, diff_bytes = 0, diffs = 0;
  std::printf("ckpt_diff: %zu particles, %llu steps, 1/128 drifting slice\n\n",
              n, static_cast<unsigned long long>(steps));
  std::printf("  %-6s %-6s %12s %10s %10s\n", "step", "kind", "bytes",
              "written", "skipped");
  for (const auto& record : records) {
    std::printf("  %-6llu %-6s %12llu %10llu %10llu\n",
                static_cast<unsigned long long>(record.step),
                record.diff ? "diff" : "full",
                static_cast<unsigned long long>(record.bytes),
                static_cast<unsigned long long>(record.chunks_written),
                static_cast<unsigned long long>(record.chunks_total -
                                                record.chunks_written));
    if (record.diff) {
      diff_bytes += record.bytes;
      ++diffs;
    } else {
      full_bytes += record.bytes;
    }
  }

  bool ok = true;
  if (stats.full_checkpoints != 1 || diffs != steps - 1) {
    std::printf("\nFAIL: expected 1 full + %llu diffs, wrote %llu full + "
                "%llu diffs\n",
                static_cast<unsigned long long>(steps - 1),
                static_cast<unsigned long long>(stats.full_checkpoints),
                static_cast<unsigned long long>(diffs));
    ok = false;
  }
  const double avg_diff =
      diffs > 0 ? static_cast<double>(diff_bytes) / static_cast<double>(diffs)
                : 0.0;
  const double reduction =
      avg_diff > 0.0 ? static_cast<double>(full_bytes) / avg_diff : 0.0;
  std::printf("\nsteady-state byte reduction: full %llu B vs avg diff %.0f B "
              "-> %.1fx (gate: >= 5x)\n",
              static_cast<unsigned long long>(full_bytes), avg_diff,
              reduction);
  if (reduction < 5.0) {
    std::printf("FAIL: reduction below the 5x gate\n");
    ok = false;
  }

  io::SnapshotMeta restored_meta;
  Particles restored;
  if (!io::restore_checkpoint(pfs, steps, 0, restored_meta, restored) ||
      !first_state_difference(restored, p).empty()) {
    std::printf("FAIL: chain restore is not bitwise identical to the live "
                "state\n");
    ok = false;
  } else {
    std::printf("chain restore (length %llu): bitwise identical to live "
                "state\n",
                static_cast<unsigned long long>(stats.longest_chain));
  }
  if (stats.chunks_skipped <= stats.chunks_written) {
    std::printf("FAIL: skipped chunks (%llu) do not dominate written ones "
                "(%llu) on a quiescent workload\n",
                static_cast<unsigned long long>(stats.chunks_skipped),
                static_cast<unsigned long long>(stats.chunks_written));
    ok = false;
  }

  fs::remove_all(root);
  std::printf("\n%s\n", ok ? "ALL GATES PASS" : "GATE FAILURE");
  return ok ? 0 : 1;
}
