// Shrink-and-continue gate: rank-loss recovery wall time + bitwise
// re-entry.
//
// The paper's fault-tolerance argument is that losing a node costs
// little more than a planned restart: the watchdog converts the wedge
// into a collective verdict, the campaign relaunches the survivors, and
// the adopting ranks replay the dead rank's checkpoint chain from the
// PFS. This bench measures that claim end to end on a 3 -> 2 rank
// shrink. It runs kPairs interleaved (shrink, fault-free restart) pairs
// and gates:
//
//   1. overhead — over the pairs, the median ratio of the full recovery
//      (watchdog detection + survivor unwinding + shrunken relaunch
//      running to completion) to a fault-free 2-rank restart doing the
//      same replay from the same checkpoint step is below 1.10x. One
//      sample of each is a ~0.1 s wall clock on a shared host, too
//      noisy to hold at 1.10x alone;
//   2. correctness — in every pair, the shrunken run's final particle
//      state is bitwise identical to that fault-free restart in every
//      state column;
//   3. bookkeeping — in every pair, exactly one rank file is adopted and
//      the campaign reports one loss and one shrink recovery.
//
// --quick shrinks the problem and runs as the rank_loss_smoke ctest
// target, so a detection or adoption regression fails the build.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "comm/world.h"
#include "core/campaign.h"
#include "core/simulation.h"
#include "io/checkpoint.h"
#include "io/multi_tier.h"
#include "io/storage.h"

using namespace crkhacc;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

core::SimConfig bench_config(bool quick) {
  core::SimConfig config;
  config.np = quick ? 8 : 16;
  config.box = 24.0;
  config.ng = quick ? 16 : 32;
  config.z_init = 20.0;
  config.z_final = 5.0;
  // Enough steps after the two committed ones that the replayed tail
  // dominates detection latency — the overhead gate measures recovery
  // against a restart doing the same replay.
  config.num_pm_steps = quick ? 5 : 8;
  config.hydro = false;
  config.subgrid_on = false;
  config.bins.max_depth = 4;
  config.seed = 99;
  config.rank_loss_policy = core::RankLossPolicy::kShrink;
  return config;
}

struct RankRecord {
  std::uint64_t resume_step = 0;
  Particles final_particles;
  core::RunResult result;
  bool finished = false;
};

/// One rank/one epoch: initialize (or recover on resume), commit two
/// steps collectively, then run to completion. Identical comm schedule
/// across the probe, shrink, and reference phases, so the probed op
/// budget transfers.
void epoch_program(comm::Communicator& comm, const core::CampaignEpoch& epoch,
                   io::ThrottledStore& pfs, const core::SimConfig& config,
                   std::vector<std::uint64_t>* op_base,
                   std::vector<std::uint64_t>* op_end,
                   std::vector<RankRecord>* records) {
  const auto me = static_cast<std::size_t>(comm.rank());
  io::MultiTierWriter writer(*epoch.local, pfs,
                             io::MultiTierConfig{comm.rank(), 16});
  core::SimContext ctx(config.threads);
  core::Simulation sim(ctx, comm, config);
  core::RunResult pre;
  if (epoch.resume) {
    sim.recover(pfs, pre, &writer);
  } else {
    sim.initialize();
    sim.step(&writer);
    sim.step(&writer);
    writer.drain();
    comm.barrier();
  }
  if (op_base != nullptr) (*op_base)[me] = comm.op_count();
  if (epoch.resume && records != nullptr) {
    (*records)[me].resume_step = sim.current_step();
  }

  auto result = sim.run(&writer, &pfs, nullptr);
  writer.drain();
  comm.barrier();
  if (op_end != nullptr) (*op_end)[me] = comm.op_count();
  if (records != nullptr) {
    result.merge(pre);
    epoch.stamp(result);
    auto& record = (*records)[me];
    record.final_particles = sim.particles();
    record.result = result;
    record.finished = true;
  }
}

struct Stores {
  io::ThrottledStore pfs;
  std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
  std::vector<io::ThrottledStore*> locals;

  Stores(const fs::path& root, int ranks)
      : pfs(io::StoreConfig{(root / "pfs").string(), 0.0, 0.0, true}) {
    for (int r = 0; r < ranks; ++r) {
      nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
          (root / ("nvme" + std::to_string(r))).string(), 0.0, 0.0, false}));
      locals.push_back(nvmes.back().get());
    }
  }
};

/// One interleaved pair: a shrink recovery, then the fault-free 2-rank
/// restart from the checkpoint step it resumed at.
struct PairOutcome {
  double recovery_s = 0.0;
  double restart_s = 0.0;
  bool ok = true;

  double ratio() const { return restart_s > 0.0 ? recovery_s / restart_s : 0.0; }
};

PairOutcome run_pair(const fs::path& root, const core::SimConfig& config,
                     int ranks, std::uint64_t kill_op,
                     const comm::WatchdogConfig& watchdog) {
  PairOutcome out;

  // --- shrink: kill rank 1 mid-run, survive on 2 ranks -------------------
  Stores shrink_stores(root / "shrink", ranks);
  std::vector<RankRecord> shrunk(ranks);
  core::Campaign campaign(core::RankLossPolicy::kShrink, shrink_stores.locals,
                          watchdog);
  campaign.schedule_rank_failure(1, kill_op);
  campaign.run([&](comm::Communicator& comm, const core::CampaignEpoch& epoch) {
    epoch_program(comm, epoch, shrink_stores.pfs, config, nullptr, nullptr,
                  &shrunk);
  });
  out.recovery_s = campaign.last_recovery_seconds();
  const std::uint64_t resume_step = shrunk[0].resume_step;

  if (campaign.rank_losses() != 1 || campaign.shrink_recoveries() != 1 ||
      !shrunk[0].finished || !shrunk[1].finished ||
      shrunk[0].result.adopted_rank_files != 1) {
    std::printf("FAIL: expected 1 loss / 1 shrink recovery / 1 adopted rank "
                "file, got %llu / %llu / %llu\n",
                static_cast<unsigned long long>(campaign.rank_losses()),
                static_cast<unsigned long long>(campaign.shrink_recoveries()),
                static_cast<unsigned long long>(
                    shrunk[0].result.adopted_rank_files));
    out.ok = false;
  }

  // --- reference: fault-free 2-rank restart from the same step -----------
  const auto step_dir =
      fs::path(io::MultiTierWriter::checkpoint_path(resume_step, 0))
          .parent_path()
          .string();
  Stores ref_stores(root / "reference", ranks - 1);
  fs::create_directories(
      fs::path(ref_stores.pfs.full_path(step_dir)).parent_path());
  fs::copy(shrink_stores.pfs.full_path(step_dir),
           ref_stores.pfs.full_path(step_dir), fs::copy_options::recursive);

  std::vector<RankRecord> reference(ranks - 1);
  core::Campaign ref_campaign(core::RankLossPolicy::kShrink, ref_stores.locals,
                              watchdog);
  ref_campaign.set_resume(true);
  const auto restart_begin = Clock::now();
  ref_campaign.run(
      [&](comm::Communicator& comm, const core::CampaignEpoch& epoch) {
        epoch_program(comm, epoch, ref_stores.pfs, config, nullptr, nullptr,
                      &reference);
      });
  out.restart_s =
      std::chrono::duration<double>(Clock::now() - restart_begin).count();

  if (reference[0].resume_step != resume_step) {
    std::printf("FAIL: reference restarted from step %llu, not %llu\n",
                static_cast<unsigned long long>(reference[0].resume_step),
                static_cast<unsigned long long>(resume_step));
    out.ok = false;
  }
  for (int r = 0; r < ranks - 1; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    const std::string diff = first_state_difference(
        shrunk[idx].final_particles, reference[idx].final_particles);
    if (!diff.empty()) {
      std::printf("FAIL: rank %d final state differs from the fault-free "
                  "restart at %s\n", r, diff.c_str());
      out.ok = false;
    }
  }
  std::printf("pair: recovered from step %llu in %0.3f s (detection + "
              "shrunken relaunch to completion), restart %0.3f s -> %0.2fx, "
              "re-entry %s\n",
              static_cast<unsigned long long>(resume_step), out.recovery_s,
              out.restart_s, out.ratio(), out.ok ? "bitwise identical on both survivors" : "FAILED");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int ranks = 3;
  constexpr int kPairs = 5;
  const core::SimConfig config = bench_config(quick);
  const comm::WatchdogConfig fast_watchdog{true, 0.005};

  const auto root = fs::temp_directory_path() / "crkhacc_rank_loss_bench";
  fs::remove_all(root);
  fs::create_directories(root);

  std::printf("rank_loss: np=%d ng=%d steps=%d, %d ranks -> %d survivors, "
              "%d interleaved pairs\n\n",
              static_cast<int>(config.np), static_cast<int>(config.ng),
              config.num_pm_steps, ranks, ranks - 1, kPairs);

  // --- probe: fault-free op budget per rank ------------------------------
  std::vector<std::uint64_t> op_base(ranks, 0), op_end(ranks, 0);
  {
    Stores stores(root / "probe", ranks);
    comm::World world(ranks);
    world.run([&](comm::Communicator& comm) {
      core::CampaignEpoch epoch;
      epoch.local = stores.locals[static_cast<std::size_t>(comm.rank())];
      epoch_program(comm, epoch, stores.pfs, config, &op_base, &op_end,
                    nullptr);
    });
  }
  const std::uint64_t kill_op = (op_base[1] + op_end[1]) / 2;
  std::printf("probe: rank 1 comm ops %llu..%llu, kill scheduled at op %llu"
              "\n\n",
              static_cast<unsigned long long>(op_base[1]),
              static_cast<unsigned long long>(op_end[1]),
              static_cast<unsigned long long>(kill_op));

  bool ok = true;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    const PairOutcome outcome =
        run_pair(root / ("pair" + std::to_string(pair)), config, ranks,
                 kill_op, fast_watchdog);
    ok = ok && outcome.ok;
    ratios.push_back(outcome.ratio());
  }
  if (ok) {
    std::printf("\nre-entry and bookkeeping: every pair passes\n");
  }

  std::sort(ratios.begin(), ratios.end());
  const double median = ratios[ratios.size() / 2];
  std::printf("recovery overhead: median %0.2fx over %d pairs (sorted:",
              median, kPairs);
  for (const double r : ratios) std::printf(" %0.2f", r);
  std::printf(") (gate: < 1.10x)\n");
  if (median >= 1.10) {
    std::printf("FAIL: median recovery overhead above the 1.10x gate\n");
    ok = false;
  }

  fs::remove_all(root);
  std::printf("\n%s\n", ok ? "ALL GATES PASS" : "GATE FAILURE");
  return ok ? 0 : 1;
}
