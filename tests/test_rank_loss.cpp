// Shrink-and-continue acceptance: a rank killed mid-run under
// rank_loss_policy=shrink must leave the campaign bitwise identical to a
// fault-free run that started on the shrunken machine from the same
// checkpoint step.
//
// The test runs three phases per thread count:
//   probe   — a fault-free 3-rank campaign measuring each rank's comm op
//             budget, so the kill can be scheduled mid-run regardless of
//             how the comm pattern drifts as the code evolves;
//   shrink  — the same campaign with rank 1 killed halfway through its
//             op budget under RankLossPolicy::kShrink: the watchdog
//             converts the wedge into a RankLossError, core::Campaign
//             relaunches 2 survivors, and recover() adopts the dead
//             rank's checkpoint chain by round-robin remap;
//   reference — a fresh 2-rank machine restarted from a copy of the SAME
//             checkpoint step the shrink run recovered from.
// The shrink and reference runs share every restored byte and every
// subsequent collective, so their final particle state must match to the
// bit in every state column.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "comm/world.h"
#include "core/campaign.h"
#include "core/simulation.h"
#include "io/checkpoint.h"
#include "io/multi_tier.h"
#include "io/storage.h"

namespace crkhacc::core {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    // PID-qualified: ctest -j runs each case in its own process, so a
    // per-process counter alone collides across concurrent cases.
    path_ = fs::temp_directory_path() /
            ("crkhacc_rank_loss_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

SimConfig tiny_config(int threads) {
  SimConfig config;
  config.np = 8;
  config.box = 24.0;
  config.ng = 16;
  config.z_init = 20.0;
  config.z_final = 5.0;
  config.num_pm_steps = 3;
  config.hydro = false;
  config.subgrid_on = false;
  config.bins.max_depth = 4;
  config.seed = 99;
  config.threads = threads;
  config.rank_loss_policy = RankLossPolicy::kShrink;
  return config;
}

/// One rank/one epoch of the campaign every phase runs: initialize (or
/// recover, on a resumed epoch), guarantee two steps are collectively
/// committed on the PFS, then run to completion. `op_base`/`op_end`
/// bracket the sim.run comm ops when non-null (probe phase).
struct EpochRecord {
  std::uint64_t resume_step = 0;
  Particles final_particles;
  RunResult result;
  bool finished = false;
};

void run_epoch(comm::Communicator& comm, const CampaignEpoch& epoch,
               io::ThrottledStore& pfs, const SimConfig& config,
               std::vector<std::uint64_t>* op_base,
               std::vector<std::uint64_t>* op_end,
               std::vector<EpochRecord>* records) {
  const auto me = static_cast<std::size_t>(comm.rank());
  // Window large enough that no step is pruned while the campaign runs.
  io::MultiTierWriter writer(*epoch.local, pfs,
                             io::MultiTierConfig{comm.rank(), 8});
  SimContext ctx(config.threads);
  Simulation sim(ctx, comm, config);
  RunResult pre;
  if (epoch.resume) {
    sim.recover(pfs, pre, &writer);
  } else {
    sim.initialize();
    // Two steps drained and barriered: steps 1 and 2 are collectively
    // committed on the PFS before any scheduled kill can strike, so the
    // shrink always has a complete step to roll back to.
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

class ShrinkAndContinueTest : public ::testing::TestWithParam<int> {};

TEST_P(ShrinkAndContinueTest, ShrunkenRunIsBitwiseIdenticalToCleanRestart) {
  const int threads = GetParam();
  const int ranks = 3;
  const SimConfig config = tiny_config(threads);
  const comm::WatchdogConfig fast_watchdog{true, 0.01};

  // --- probe: measure each rank's comm op budget, fault free ------------
  std::vector<std::uint64_t> op_base(ranks, 0), op_end(ranks, 0);
  {
    TempDir dir;
    io::ThrottledStore pfs(io::StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true});
    std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
    for (int r = 0; r < ranks; ++r) {
      nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
          dir.str() + "/nvme" + std::to_string(r), 0.0, 0.0, false}));
    }
    comm::World world(ranks);
    world.run([&](comm::Communicator& comm) {
      CampaignEpoch epoch;
      epoch.local = nvmes[static_cast<std::size_t>(comm.rank())].get();
      run_epoch(comm, epoch, pfs, config, &op_base, &op_end, nullptr);
    });
  }
  // The kill lands in the middle of rank 1's sim.run comm traffic — after
  // steps 1 and 2 are committed, before the run finishes.
  ASSERT_GT(op_end[1], op_base[1] + 1);
  const std::uint64_t kill_op = (op_base[1] + op_end[1]) / 2;

  // --- shrink: kill rank 1 at that op under policy=shrink ---------------
  TempDir dir;
  io::ThrottledStore pfs(io::StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true});
  std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
  std::vector<io::ThrottledStore*> locals;
  for (int r = 0; r < ranks; ++r) {
    nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
        dir.str() + "/nvme" + std::to_string(r), 0.0, 0.0, false}));
    locals.push_back(nvmes.back().get());
  }
  std::vector<EpochRecord> shrunk(ranks);
  Campaign campaign(RankLossPolicy::kShrink, locals, fast_watchdog);
  campaign.schedule_rank_failure(1, kill_op);
  campaign.run([&](comm::Communicator& comm, const CampaignEpoch& epoch) {
    run_epoch(comm, epoch, pfs, config, nullptr, nullptr, &shrunk);
  });

  ASSERT_EQ(campaign.ranks(), ranks - 1);
  EXPECT_EQ(campaign.rank_losses(), 1u);
  EXPECT_EQ(campaign.shrink_recoveries(), 1u);
  EXPECT_GT(campaign.last_recovery_seconds(), 0.0);

  ASSERT_TRUE(shrunk[0].finished);
  ASSERT_TRUE(shrunk[1].finished);
  EXPECT_FALSE(shrunk[2].finished);  // the old rank 2 renumbered to 1
  // Both survivors rolled back to the same collectively-committed step,
  // which the drain + barrier after step 2 guarantees exists.
  const std::uint64_t resume_step = shrunk[0].resume_step;
  ASSERT_GE(resume_step, 2u);
  ASSERT_EQ(shrunk[1].resume_step, resume_step);

  for (int r = 0; r < ranks - 1; ++r) {
    const RunResult& result = shrunk[static_cast<std::size_t>(r)].result;
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.rank_losses, 1u) << "rank " << r;
    EXPECT_EQ(result.shrink_recoveries, 1u) << "rank " << r;
    // Old rank file 2 was restored by new rank 0 (2 % 2); the count is
    // allreduce-summed so every rank reports the campaign-wide total.
    EXPECT_EQ(result.adopted_rank_files, 1u) << "rank " << r;
    EXPECT_GE(result.recovery_attempts, 1u) << "rank " << r;
    EXPECT_EQ(result.restarts_from_ics, 0u) << "rank " << r;
  }

  // --- reference: clean 2-rank restart from the same step ---------------
  // Copy only the recovered step's directory: the reference machine must
  // make the same rollback decision from the same bytes.
  io::ThrottledStore ref_pfs(
      io::StoreConfig{dir.str() + "/pfs_ref", 0.0, 0.0, true});
  {
    // Step directory of rank 0's file, e.g. "ckpt/step000002".
    const auto step_dir =
        fs::path(io::MultiTierWriter::checkpoint_path(resume_step, 0))
            .parent_path()
            .string();
    const auto src = fs::path(pfs.full_path(step_dir));
    const auto dst = fs::path(ref_pfs.full_path(step_dir));
    fs::create_directories(dst.parent_path());
    fs::copy(src, dst, fs::copy_options::recursive);
  }
  ASSERT_EQ(io::checkpoint_writer_count(ref_pfs, resume_step), ranks);

  std::vector<EpochRecord> reference(ranks - 1);
  std::vector<std::unique_ptr<io::ThrottledStore>> ref_nvmes;
  std::vector<io::ThrottledStore*> ref_locals;
  for (int r = 0; r < ranks - 1; ++r) {
    ref_nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
        dir.str() + "/nvme_ref" + std::to_string(r), 0.0, 0.0, false}));
    ref_locals.push_back(ref_nvmes.back().get());
  }
  Campaign ref_campaign(RankLossPolicy::kShrink, ref_locals, fast_watchdog);
  ref_campaign.set_resume(true);
  ref_campaign.run([&](comm::Communicator& comm, const CampaignEpoch& epoch) {
    run_epoch(comm, epoch, ref_pfs, config, nullptr, nullptr, &reference);
  });
  EXPECT_EQ(ref_campaign.rank_losses(), 0u);

  for (int r = 0; r < ranks - 1; ++r) {
    const auto& ref = reference[static_cast<std::size_t>(r)];
    ASSERT_TRUE(ref.finished);
    ASSERT_EQ(ref.resume_step, resume_step);
    EXPECT_TRUE(ref.result.completed);
    // The reference restore adopts the same third rank file.
    EXPECT_EQ(ref.result.adopted_rank_files, 1u);
    const auto& got = shrunk[static_cast<std::size_t>(r)].final_particles;
    EXPECT_EQ(first_state_difference(got, ref.final_particles), "");
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ShrinkAndContinueTest,
                         ::testing::Values(1, 8));

// Under the default fatal policy the same kill must abort the campaign
// with a diagnosis naming the dead rank, not shrink past it.
TEST(RankLossPolicyTest, FatalPolicyPropagatesRankLoss) {
  const int ranks = 3;
  TempDir dir;
  io::ThrottledStore pfs(io::StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true});
  std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
  std::vector<io::ThrottledStore*> locals;
  for (int r = 0; r < ranks; ++r) {
    nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
        dir.str() + "/nvme" + std::to_string(r), 0.0, 0.0, false}));
    locals.push_back(nvmes.back().get());
  }
  SimConfig config = tiny_config(1);
  config.rank_loss_policy = RankLossPolicy::kFatal;
  Campaign campaign(RankLossPolicy::kFatal, locals,
                    comm::WatchdogConfig{true, 0.01});
  campaign.schedule_rank_failure(1, 0);
  try {
    campaign.run([&](comm::Communicator& comm, const CampaignEpoch& epoch) {
      run_epoch(comm, epoch, pfs, config, nullptr, nullptr, nullptr);
    });
    FAIL() << "expected RankLossError";
  } catch (const comm::RankLossError& loss) {
    ASSERT_EQ(loss.lost().size(), 1u);
    EXPECT_EQ(loss.lost()[0].rank, 1);
    EXPECT_NE(std::string(loss.what()).find("rank 1"), std::string::npos);
  }
}

}  // namespace
}  // namespace crkhacc::core
