// ScenarioService tests: the job queue drains, round-robin and
// deficit-weighted slice scheduling behave as documented, cancellation
// works before admission and mid-run, interleaved sliced execution is
// bitwise identical to standalone monolithic runs, per-job checkpoint
// tiers recover injected faults, service_* parameter parsing round-trips
// (and is skipped by the SimConfig overload), and the unknown-parameter
// warning fires exactly once per process even under concurrent apply.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "comm/world.h"
#include "core/param_file.h"
#include "core/service.h"
#include "core/simulation.h"
#include "io/checkpoint.h"

namespace crkhacc::core {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    // PID-qualified: ctest -j runs each case in its own process, so a
    // per-process counter alone collides across concurrent cases.
    path_ = fs::temp_directory_path() /
            ("crkhacc_service_test_" + std::to_string(::getpid()) + "_" +
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

/// FaultInjector that interrupts at exactly the scripted trials.
class ScriptedFault : public io::FaultInjector {
 public:
  explicit ScriptedFault(std::vector<std::uint64_t> fail_trials)
      : io::FaultInjector(0.0, 0), fail_trials_(std::move(fail_trials)) {}

  bool should_fail(std::uint64_t trial, double /*dt*/) const override {
    return std::find(fail_trials_.begin(), fail_trials_.end(), trial) !=
           fail_trials_.end();
  }

 private:
  std::vector<std::uint64_t> fail_trials_;
};

SimConfig tiny_config(int steps = 2) {
  SimConfig config;
  config.np = 6;
  config.box = 16.0;
  config.ng = 8;
  config.z_init = 20.0;
  config.z_final = 10.0;
  config.num_pm_steps = steps;
  config.hydro = true;
  config.subgrid_on = false;
  config.bins.max_depth = 1;
  config.seed = 5150;
  return config;
}

ScenarioJob job_named(const std::string& name, const SimConfig& config,
                      const std::string& params = {}) {
  ScenarioJob job;
  job.name = name;
  job.config = config;
  job.params = params;
  return job;
}

// --- draining the queue ------------------------------------------------------

TEST(ScenarioService, DrainsAllJobsAndAggregates) {
  const int steps = 2;
  ScenarioService farm;
  for (int j = 0; j < 3; ++j) {
    const auto id = farm.submit(job_named("box" + std::to_string(j),
                                          tiny_config(steps),
                                          "seed = " + std::to_string(100 + j)));
    EXPECT_EQ(id, static_cast<std::uint64_t>(j + 1));  // ids start at 1
  }
  EXPECT_EQ(farm.pending(), 3u);

  const auto report = farm.drain();
  EXPECT_EQ(farm.pending(), 0u);
  ASSERT_EQ(report.jobs.size(), 3u);
  for (const auto& job : report.jobs) {
    EXPECT_EQ(job.outcome, JobOutcome::kCompleted) << job.name;
    EXPECT_EQ(job.run.steps_done, static_cast<std::uint64_t>(steps));
    EXPECT_TRUE(job.run.completed);
    EXPECT_GT(job.final_particles.size(), 0u);
    EXPECT_GT(job.final_scale_factor, 0.0);
    EXPECT_GT(job.completion_seconds, 0.0);
  }
  // Report is ordered by submission id and the aggregate folds all jobs.
  EXPECT_TRUE(std::is_sorted(
      report.jobs.begin(), report.jobs.end(),
      [](const JobResult& a, const JobResult& b) { return a.id < b.id; }));
  EXPECT_TRUE(report.aggregate.completed);
  EXPECT_EQ(report.aggregate.steps_done, static_cast<std::uint64_t>(3 * steps));
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(ScenarioService, DrainOnEmptyQueueIsANoOp) {
  ScenarioService farm;
  const auto report = farm.drain();
  EXPECT_TRUE(report.jobs.empty());
  EXPECT_FALSE(report.aggregate.completed);  // nothing ran
  EXPECT_EQ(report.fairness_ratio(), 0.0);
}

// --- scheduling --------------------------------------------------------------

TEST(ScenarioService, RoundRobinInterleavesSlicesInSubmissionOrder) {
  const int jobs = 3, steps = 3;
  ServiceConfig config;
  config.slice_steps = 1;
  std::vector<std::uint64_t> order;
  config.on_slice = [&](const SliceEvent& event) {
    order.push_back(event.job);
  };
  ScenarioService farm(config);
  for (int j = 0; j < jobs; ++j) {
    farm.submit(job_named("box" + std::to_string(j), tiny_config(steps)));
  }
  const auto report = farm.drain();
  ASSERT_TRUE(report.aggregate.completed);

  // Equal-length jobs under round-robin: every round visits 1,2,3.
  const std::vector<std::uint64_t> expected = {1, 2, 3, 1, 2, 3, 1, 2, 3};
  EXPECT_EQ(order, expected);
}

TEST(ScenarioService, DeficitWeightedGivesPriorityMoreStepsPerRound) {
  const int steps = 4;
  ServiceConfig config;
  config.slice_steps = 1;
  config.policy = SchedulePolicy::kDeficitWeighted;
  ScenarioService farm(config);

  auto low = job_named("low", tiny_config(steps));
  low.priority = 1;
  auto high = job_named("high", tiny_config(steps));
  high.priority = 2;
  farm.submit(low);
  farm.submit(high);

  const auto report = farm.drain();
  ASSERT_EQ(report.jobs.size(), 2u);
  ASSERT_TRUE(report.aggregate.completed);
  // priority 2 runs 2 steps per slice: 4 steps in 2 slices, while the
  // priority-1 job needs a slice per step.
  EXPECT_EQ(report.jobs[0].slices, 4u);
  EXPECT_EQ(report.jobs[1].slices, 2u);
}

// --- cancellation ------------------------------------------------------------

TEST(ScenarioService, CancelsPendingJobBeforeItStarts) {
  ScenarioService farm;
  farm.submit(job_named("keep", tiny_config()));
  const auto doomed = farm.submit(job_named("doomed", tiny_config()));
  EXPECT_TRUE(farm.request_cancel(doomed));
  EXPECT_FALSE(farm.request_cancel(doomed + 100));  // unknown id

  const auto report = farm.drain();
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].outcome, JobOutcome::kCompleted);
  EXPECT_EQ(report.jobs[1].outcome, JobOutcome::kCancelled);
  EXPECT_EQ(report.jobs[1].run.steps_done, 0u);
  // A cancelled job fails the all-completed aggregate judgment.
  EXPECT_FALSE(report.aggregate.completed);
}

TEST(ScenarioService, CancelsRunningJobBetweenSlices) {
  const int steps = 4;
  ServiceConfig config;
  config.slice_steps = 1;
  ScenarioService* farm_ptr = nullptr;
  config.on_slice = [&](const SliceEvent& event) {
    // Cancel job 1 after its first slice; it must stop at the next
    // round boundary with partial progress.
    if (event.job == 1 && event.slice == 0) {
      EXPECT_TRUE(farm_ptr->request_cancel(event.job));
    }
  };
  ScenarioService farm(config);
  farm_ptr = &farm;
  farm.submit(job_named("victim", tiny_config(steps)));
  farm.submit(job_named("bystander", tiny_config(steps)));

  const auto report = farm.drain();
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].outcome, JobOutcome::kCancelled);
  EXPECT_GT(report.jobs[0].run.steps_done, 0u);
  EXPECT_LT(report.jobs[0].run.steps_done, static_cast<std::uint64_t>(steps));
  EXPECT_EQ(report.jobs[1].outcome, JobOutcome::kCompleted);
  EXPECT_EQ(report.jobs[1].run.steps_done, static_cast<std::uint64_t>(steps));
}

// --- determinism -------------------------------------------------------------

TEST(ScenarioService, InterleavedSlicedJobsMatchStandaloneBitwise) {
  // The farm's safety property: two jobs interleaved slice by slice
  // through one shared context finish bitwise identical to their
  // standalone monolithic runs on private contexts.
  const int steps = 3;
  std::vector<Particles> reference;
  for (int j = 0; j < 2; ++j) {
    SimConfig config = tiny_config(steps);
    config.seed = 7000 + static_cast<std::uint64_t>(j);
    comm::World world(1);
    world.run([&](comm::Communicator& comm) {
      SimContext ctx(1);
      Simulation sim(ctx, comm, config);
      sim.initialize();
      ASSERT_TRUE(sim.run().completed);
      reference.push_back(sim.particles());
    });
  }

  ServiceConfig config;
  config.slice_steps = 1;
  ScenarioService farm(config);
  for (int j = 0; j < 2; ++j) {
    farm.submit(job_named("box" + std::to_string(j), tiny_config(steps),
                          "seed = " + std::to_string(7000 + j)));
  }
  const auto report = farm.drain();
  ASSERT_TRUE(report.aggregate.completed);
  ASSERT_EQ(report.jobs.size(), reference.size());
  for (std::size_t j = 0; j < reference.size(); ++j) {
    EXPECT_EQ(
        first_state_difference(report.jobs[j].final_particles, reference[j]),
        "");
  }
}

TEST(ScenarioService, SweepJobsShareThePrimedRealization) {
  // A softening sweep keys every job to the same cached initial state:
  // one miss, jobs-1 hits.
  ScenarioService farm;
  for (int j = 0; j < 3; ++j) {
    farm.submit(job_named("soft" + std::to_string(j), tiny_config(),
                          "softening = 0.0" + std::to_string(5 + j)));
  }
  const auto report = farm.drain();
  ASSERT_TRUE(report.aggregate.completed);
  EXPECT_EQ(report.assets.initial_state_misses, 1u);
  EXPECT_EQ(report.assets.initial_state_hits, 2u);
}

// --- faults and checkpoints --------------------------------------------------

TEST(ScenarioService, FaultInjectionRequiresAWorkdir) {
  const ScriptedFault fault({0});
  ScenarioService farm;
  auto job = job_named("doomed", tiny_config());
  job.fault = &fault;
  farm.submit(job);

  const auto report = farm.drain();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].outcome, JobOutcome::kFailed);
  EXPECT_NE(report.jobs[0].error.find("workdir"), std::string::npos);
  EXPECT_FALSE(report.aggregate.completed);
}

TEST(ScenarioService, RecoversInjectedFaultFromPerJobCheckpoints) {
  // With a workdir the service wires a MultiTierWriter per job, so an
  // interrupted slice restores from the job's own checkpoint chain and
  // the job still completes every step.
  TempDir dir;
  const ScriptedFault fault({2});
  ServiceConfig config;
  config.workdir = dir.str();
  config.slice_steps = 1;
  ScenarioService farm(config);

  auto faulty = job_named("faulty", tiny_config(/*steps=*/3));
  faulty.fault = &fault;
  farm.submit(faulty);
  farm.submit(job_named("clean", tiny_config(/*steps=*/3)));

  const auto report = farm.drain();
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].outcome, JobOutcome::kCompleted);
  EXPECT_EQ(report.jobs[0].run.steps_done, 3u);
  EXPECT_GE(report.jobs[0].run.interruptions, 1u);
  EXPECT_GE(report.jobs[0].run.recovery_attempts, 1u);
  EXPECT_EQ(report.jobs[1].outcome, JobOutcome::kCompleted);
  EXPECT_EQ(report.jobs[1].run.interruptions, 0u);
  EXPECT_TRUE(report.aggregate.completed);
  // The aggregate folds the interruption accounting (RunResult::merge).
  EXPECT_GE(report.aggregate.interruptions, 1u);
  // Per-job checkpoint tiers landed under the workdir.
  EXPECT_TRUE(fs::exists(fs::path(dir.str()) / "job1" / "pfs"));
  EXPECT_TRUE(fs::exists(fs::path(dir.str()) / "job2" / "local"));
}

TEST(ScenarioService, RejectedOverlayFailsTheJobNotTheFarm) {
  ScenarioService farm;
  farm.submit(job_named("bad", tiny_config(), "ckpt_chunk_bytes = 12"));
  farm.submit(job_named("good", tiny_config()));

  const auto report = farm.drain();
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].outcome, JobOutcome::kFailed);
  EXPECT_FALSE(report.jobs[0].error.empty());
  EXPECT_EQ(report.jobs[1].outcome, JobOutcome::kCompleted);
}

// --- service_* parameters ----------------------------------------------------

TEST(ServiceParams, ApplyRoundTripsEveryServiceKey) {
  const auto params = ParamFile::parse(
      "service_threads = 0\n"
      "service_slice_steps = 3\n"
      "service_policy = deficit\n"
      "service_checkpoint_window = 4\n"
      "service_workdir = /tmp/farm\n"
      "np = 32\n");  // a SimConfig key: not the service overload's business
  ASSERT_TRUE(params.has_value());

  ServiceConfig config;
  const auto unknown = params->apply(config);
  EXPECT_TRUE(unknown.empty());
  EXPECT_EQ(config.threads, 0);
  EXPECT_EQ(config.slice_steps, 3);
  EXPECT_EQ(config.policy, SchedulePolicy::kDeficitWeighted);
  EXPECT_EQ(config.checkpoint_window, 4);
  EXPECT_EQ(config.workdir, "/tmp/farm");
}

TEST(ServiceParams, SimConfigApplySkipsServiceKeysSilently) {
  const auto params = ParamFile::parse(
      "service_slice_steps = 3\n"
      "np = 32\n");
  ASSERT_TRUE(params.has_value());
  SimConfig config;
  const auto unknown = params->apply(config);
  EXPECT_TRUE(unknown.empty());  // service_* is not "unknown", just not ours
  EXPECT_EQ(config.np, 32u);
}

TEST(ServiceParams, BadServiceValuesAreRejected) {
  const auto params = ParamFile::parse(
      "service_slice_steps = 0\n"
      "service_policy = fifo\n");
  ASSERT_TRUE(params.has_value());
  ServiceConfig config;
  const auto unknown = params->apply(config);
  EXPECT_EQ(unknown.size(), 2u);
  EXPECT_EQ(config.slice_steps, 1);  // defaults untouched
  EXPECT_EQ(config.policy, SchedulePolicy::kRoundRobin);
}

TEST(ServiceParams, UnknownKeyWarnsExactlyOncePerProcessUnderConcurrency) {
  // The warn-once registry is keyed per process: hammering the same
  // unknown key from many threads must add exactly one warned entry.
  const std::string text =
      "service_warnonce_probe_" + std::to_string(::getpid()) + " = 1\n";
  const auto params = ParamFile::parse(text);
  ASSERT_TRUE(params.has_value());

  const std::size_t before = ParamFile::unknown_keys_warned();
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&params] {
      for (int i = 0; i < 50; ++i) {
        ServiceConfig config;
        (void)params->apply(config);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ParamFile::unknown_keys_warned(), before + 1);
}

}  // namespace
}  // namespace crkhacc::core
