// Frontier-E in miniature: the full end-to-end campaign.
//
// Runs the complete pipeline the paper describes on a simulated machine:
// several ranks, multi-tiered checkpointing to throttled NVMe/PFS storage
// models, injected machine interruptions with automatic restart from the
// newest complete checkpoint, adaptive sub-cycling, and in situ analysis
// every few PM steps. The final report mirrors the paper's headline
// accounting: timer taxonomy, data written, effective I/O bandwidth, and
// interruption count.
//
//   ./examples/frontier_mini [flags] [num_ranks] [workdir]
//                            [storage_fault_seed]
//
// kUsage below lists the flags. Any other --flag (e.g. --help), or
// num_ranks < 1, prints it and exits 2 before the workdir is touched.
//
// --threads=N runs each rank's short-range pipeline on an N-thread
// work-stealing pool (0 = hardware concurrency). The answer is bitwise
// identical for every N; the report adds the pool's scheduler accounting.
//
// The pair kernels run vector tiles when the build has the AVX2 backend
// (gpu::LaunchConfig::vector_tiles()) and scalar tiles otherwise; the
// banner and the report name the engine. Both give the same bits.
//
// With a storage_fault_seed, the PFS additionally injects silent
// corruption (torn writes, bit flips) and transient I/O errors; the
// campaign must still complete with every checkpoint provably intact
// (write-verify + CRC completion markers + retries).
//
// --trace=FILE enables step-phase tracing on every rank and writes a
// merged Chrome/Perfetto trace_event JSON (open in chrome://tracing or
// ui.perfetto.dev; pid = rank, tid = pool thread). The report gains a
// per-phase summary table and cross-rank imbalance (max/mean) stats.
//
// --metrics prints the unified MetricsRegistry — timers, kernel FLOPs,
// trace phase totals, and scheduler counters — reduced across all ranks.
//
// --ckpt-diff switches the checkpoint writer to differential mode: each
// write carries only the column chunks whose page CRC moved since the
// previous checkpoint, chained full -> diff -> ... with a bounded length.
// Restores replay the chain and are bitwise identical to full writes.
//
// --ckpt-audit-on-restore runs the offline-audit machinery (ckpt_audit)
// over this rank's checkpoints before every restore, repairing damaged
// chunks from the node-local redundant copy (implies keeping local
// copies after the bleed). Audit runs and repairs land in the report.
//
// --rank-loss-policy=shrink keeps the campaign alive when a rank dies:
// the watchdog converts the survivors' wedge into a collective
// RankLossError, the campaign relaunches on N-1 ranks, and the adopting
// ranks replay the dead rank's checkpoint chain from the PFS (round-robin
// remap) before re-entering the normal exchange path. The default, fatal,
// ends the run. --kill-rank=R@OP is the drill switch: rank R throws
// RankFailure at its OP-th comm operation.
//
// --sdc=on (the default) arms the in-memory guardrails: a paged CRC
// snapshot of particle state at each PM-step boundary plus a post-step
// invariant audit, with rollback-replay on a failed audit. With
// --sdc-flip-rate=R > 0, a seeded injector additionally flips bits in
// live particle arrays between kernels (a memory/logic-fault drill);
// detections, rollbacks, replays, and escalations land in the report.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "comm/decomposition.h"
#include "comm/world.h"
#include "core/campaign.h"
#include "core/simulation.h"
#include "gpu/launch.h"

using namespace crkhacc;

namespace {

constexpr const char* kUsage =
    "usage: frontier_mini [--threads=N] [--sdc=on|off] [--sdc-flip-rate=R]\n"
    "                     [--sdc-flip-seed=S] [--ckpt-diff]\n"
    "                     [--ckpt-audit-on-restore]\n"
    "                     [--rank-loss-policy=fatal|shrink] "
    "[--kill-rank=R@OP]\n"
    "                     [--trace=FILE] [--metrics]\n"
    "                     [num_ranks >= 1] [workdir] [storage_fault_seed]\n";

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  bool sdc_on = true;
  double sdc_flip_rate = 0.0;
  std::uint64_t sdc_flip_seed = 13;
  std::string trace_file;
  bool show_metrics = false;
  bool ckpt_diff = false;
  bool ckpt_audit_on_restore = false;
  core::RankLossPolicy rank_loss_policy = core::RankLossPolicy::kFatal;
  int kill_rank = -1;
  std::uint64_t kill_op = 0;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--sdc=", 6) == 0) {
      sdc_on = std::strcmp(argv[i] + 6, "off") != 0;
    } else if (std::strncmp(argv[i], "--sdc-flip-rate=", 16) == 0) {
      sdc_flip_rate = std::atof(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--sdc-flip-seed=", 16) == 0) {
      sdc_flip_seed = static_cast<std::uint64_t>(std::atoll(argv[i] + 16));
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_file = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--ckpt-diff") == 0) {
      ckpt_diff = true;
    } else if (std::strcmp(argv[i], "--ckpt-audit-on-restore") == 0) {
      ckpt_audit_on_restore = true;
    } else if (std::strncmp(argv[i], "--rank-loss-policy=", 19) == 0) {
      const char* value = argv[i] + 19;
      if (std::strcmp(value, "shrink") == 0) {
        rank_loss_policy = core::RankLossPolicy::kShrink;
      } else if (std::strcmp(value, "fatal") != 0) {
        std::fprintf(stderr,
                     "unknown --rank-loss-policy '%s' (fatal | shrink)\n",
                     value);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--kill-rank=", 12) == 0) {
      unsigned long long op = 0;
      if (std::sscanf(argv[i] + 12, "%d@%llu", &kill_rank, &op) != 2 ||
          kill_rank < 0) {
        std::fprintf(stderr, "--kill-rank wants R@OP, e.g. --kill-rank=1@400\n");
        return 2;
      }
      kill_op = op;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      show_metrics = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      // Checked before anything touches the workdir: an unknown flag must
      // not shift a later argument into the workdir slot.
      std::fprintf(stderr, "unknown flag '%s'\n%s", argv[i], kUsage);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int ranks = positional.size() > 0 ? std::atoi(positional[0]) : 4;
  if (ranks < 1) {
    std::fprintf(stderr, "num_ranks must be an integer >= 1\n%s", kUsage);
    return 2;
  }
  const std::string workdir =
      positional.size() > 1
          ? positional[1]
          : (std::filesystem::temp_directory_path() / "frontier_mini")
                .string();
  std::filesystem::remove_all(workdir);

  core::SimConfig config;
  config.np = 10;
  config.box = 20.0;
  config.ng = 20;
  config.rs_cells = 1.0;
  config.z_init = 30.0;
  config.z_final = 1.5;
  config.num_pm_steps = 8;
  config.bins.max_depth = 4;
  config.hydro = true;
  config.subgrid_on = true;
  config.analysis_every = 4;
  config.seed = 7;
  // Thresholds rescaled for the coarse demo mass resolution (low-res
  // cosmological runs do the same): SF and BH seeding fire in the
  // densest halo cores this box can form.
  config.subgrid.star_formation.n_h_threshold = 1e-5;
  config.subgrid.star_formation.min_overdensity = 3.0;
  config.subgrid.star_formation.t_max_K = 1e7;
  config.subgrid.star_formation.efficiency = 0.5;
  config.subgrid.agn.seed_n_h = 5e-5;
  config.subgrid.agn.seed_exclusion = 2.0;
  config.threads = threads;
  config.sdc.enabled = sdc_on;
  config.trace.enabled = !trace_file.empty();
  config.ckpt.diff = ckpt_diff;
  config.ckpt.audit_on_restore = ckpt_audit_on_restore;
  // The audit needs a redundant copy to repair from: keep the node-local
  // file after the bleed instead of deleting it.
  config.ckpt.redundant_local = ckpt_audit_on_restore;
  config.rank_loss_policy = rank_loss_policy;

  std::printf("frontier-mini: %d ranks, %zu^3 particle pairs, %d PM steps, "
              "%d pool threads/rank, %s tiles\n",
              ranks, config.np, config.num_pm_steps, config.threads,
              config.gravity.launch.vector_tiles() ? "vector" : "scalar");
  std::printf("workdir: %s\n", workdir.c_str());
  std::printf("checkpoints: %s format v2%s\n",
              ckpt_diff ? "differential (chained)" : "full",
              ckpt_audit_on_restore ? ", audit+repair on restore" : "");
  std::printf("sdc guardrails: %s%s\n", sdc_on ? "on" : "off",
              !sdc_on && sdc_flip_rate > 0.0
                  ? " (flip injector ignored: guardrails off)"
                  : "");
  std::printf("rank loss policy: %s%s\n\n",
              rank_loss_policy == core::RankLossPolicy::kShrink ? "shrink"
                                                                : "fatal",
              kill_rank >= 0 ? " (kill drill armed)" : "");
  if (kill_rank >= 0) {
    std::printf("kill drill: rank %d dies at comm op %llu\n\n", kill_rank,
                static_cast<unsigned long long>(kill_op));
  }
  if (sdc_on && sdc_flip_rate > 0.0) {
    std::printf("memory fault injection armed: flip rate %.3f per drill "
                "point, seed %llu\n\n",
                sdc_flip_rate,
                static_cast<unsigned long long>(sdc_flip_seed));
  }

  // Storage models: per-node NVMe (private, fast) + shared PFS (slow).
  io::ThrottledStore pfs(
      io::StoreConfig{workdir + "/pfs", 40e6, 0.002, /*shared=*/true});
  if (positional.size() > 2) {
    io::FaultPolicy storage_faults;
    storage_faults.seed =
        static_cast<std::uint64_t>(std::atoll(positional[2]));
    storage_faults.torn_write = 0.05;
    storage_faults.bit_flip = 0.05;
    storage_faults.transient_eio = 0.10;
    pfs.set_fault_policy(storage_faults);
    std::printf("PFS fault injection armed (seed %s): 5%% torn writes, "
                "5%% bit flips, 10%% transient EIO\n\n",
                positional[2]);
  }
  std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
  for (int r = 0; r < ranks; ++r) {
    nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
        workdir + "/nvme" + std::to_string(r), 400e6, 0.0, /*shared=*/false}));
  }

  // The campaign owns the machine: it relaunches a shrunken World after
  // a rank loss (policy permitting), handing each surviving rank its
  // node-local tier under the new dense numbering.
  std::vector<io::ThrottledStore*> locals;
  locals.reserve(nvmes.size());
  for (const auto& nvme : nvmes) locals.push_back(nvme.get());
  core::Campaign campaign(config.rank_loss_policy, locals);
  if (kill_rank >= 0) campaign.schedule_rank_failure(kill_rank, kill_op);
  const auto rank_program = [&](comm::Communicator& comm,
                                const core::CampaignEpoch& epoch) {
    io::MultiTierConfig writer_config;
    writer_config.rank = comm.rank();
    writer_config.checkpoint_window = 3;
    writer_config.ckpt = config.ckpt;
    io::MultiTierWriter writer(*epoch.local, pfs, writer_config);
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);
    core::RunResult pre;  // adoption/audit counters from a shrink resume
    if (epoch.resume) {
      sim.recover(pfs, pre, &writer);
    } else {
      sim.initialize();
    }

    // Per-rank seeded injector: deterministic for a given (seed, rank),
    // so a flaky report reproduces exactly.
    std::unique_ptr<core::MemFaultInjector> mem_faults;
    if (sdc_on && sdc_flip_rate > 0.0) {
      mem_faults = std::make_unique<core::MemFaultInjector>(
          sdc_flip_rate,
          sdc_flip_seed ^ (static_cast<std::uint64_t>(comm.rank()) << 32));
      sim.set_memory_fault_injector(mem_faults.get());
    }

    // MTTI ~ a third of the campaign: expect a few interruptions
    // (the paper cites MTTIs of hours against ~20-minute steps).
    const double campaign_time =
        sim.background().time_of(sim.a_at_step(
            static_cast<std::uint64_t>(config.num_pm_steps))) -
        sim.background().time_of(sim.a_at_step(0));
    const io::FaultInjector fault(campaign_time / 3.0, /*seed=*/2);
    auto result = sim.run(&writer, &pfs, &fault);
    // mem_faults is declared after sim and destructs first; disarm now
    // (Simulation CHECK-aborts if an armed injector dies before it).
    sim.set_memory_fault_injector(nullptr);
    result.merge(pre);
    epoch.stamp(result);
    writer.drain();
    comm.barrier();

    // Aggregate accounting on rank 0.
    const double local_blocked = [&] {
      double sum = 0.0;
      for (const auto& record : writer.records()) sum += record.local_seconds;
      return sum;
    }();
    const auto bytes = static_cast<std::int64_t>(writer.bytes_written());
    const auto total_bytes =
        comm.allreduce_scalar(bytes, comm::ReduceOp::kSum);
    const double max_blocked =
        comm.allreduce_scalar(local_blocked, comm::ReduceOp::kMax);
    const auto io_stats = writer.stats();
    const auto sum_u64 = [&](std::uint64_t value) {
      return comm.allreduce_scalar(static_cast<std::int64_t>(value),
                                   comm::ReduceOp::kSum);
    };
    const auto total_fulls = sum_u64(io_stats.full_checkpoints);
    const auto total_diffs = sum_u64(io_stats.diff_checkpoints);
    const auto total_chunks_written = sum_u64(io_stats.chunks_written);
    const auto total_chunks_skipped = sum_u64(io_stats.chunks_skipped);
    const auto longest_chain = comm.allreduce_scalar(
        static_cast<std::int64_t>(io_stats.longest_chain),
        comm::ReduceOp::kMax);

    if (comm.rank() == 0) {
      std::printf("campaign complete: %llu steps, %llu machine interruptions "
                  "survived\n",
                  static_cast<unsigned long long>(result.steps_done),
                  static_cast<unsigned long long>(result.interruptions));
      std::printf("launch: gravity tiles on simd isa %s\n",
                  result.simd_isa.c_str());
      std::printf("recovery: %llu checkpoint restores attempted, %llu "
                  "fallbacks to older steps, %llu restarts from ICs\n",
                  static_cast<unsigned long long>(result.recovery_attempts),
                  static_cast<unsigned long long>(result.checkpoint_fallbacks),
                  static_cast<unsigned long long>(result.restarts_from_ics));
      if (result.rank_losses > 0) {
        std::printf("rank loss: %llu rank(s) lost, %llu shrink "
                    "recoveries, %llu checkpoint files adopted; finished on "
                    "%s\n",
                    static_cast<unsigned long long>(result.rank_losses),
                    static_cast<unsigned long long>(result.shrink_recoveries),
                    static_cast<unsigned long long>(result.adopted_rank_files),
                    sim.decomposition().describe().c_str());
      }
      std::printf("io hardening: %llu local retries, %llu PFS retries, %llu "
                  "verify failures caught, %llu bleed failures%s\n",
                  static_cast<unsigned long long>(result.io.local_retries),
                  static_cast<unsigned long long>(result.io.pfs_retries),
                  static_cast<unsigned long long>(result.io.verify_failures),
                  static_cast<unsigned long long>(result.io.bleed_failures),
                  result.io.degraded_to_direct ? " (degraded to direct PFS)"
                                               : "");
      std::printf("checkpoint format: %lld full + %lld diff writes, %lld "
                  "chunks written, %lld skipped, longest chain %lld\n",
                  static_cast<long long>(total_fulls),
                  static_cast<long long>(total_diffs),
                  static_cast<long long>(total_chunks_written),
                  static_cast<long long>(total_chunks_skipped),
                  static_cast<long long>(longest_chain));
      if (ckpt_audit_on_restore) {
        std::printf("restore audits: %llu run(s), %llu damaged chunk(s) "
                    "found, %llu repaired\n",
                    static_cast<unsigned long long>(result.ckpt_audit_runs),
                    static_cast<unsigned long long>(
                        result.ckpt_audit_damaged_chunks),
                    static_cast<unsigned long long>(
                        result.ckpt_audit_repaired_chunks));
      }
      std::printf("\n");
      if (config.sdc.enabled) {
        std::printf("sdc guardrails: %llu audits, %llu detections, %llu "
                    "rollbacks, %llu replays, %llu escalations, %llu bit "
                    "flips injected\n",
                    static_cast<unsigned long long>(result.sdc_audits),
                    static_cast<unsigned long long>(result.sdc_detections),
                    static_cast<unsigned long long>(result.sdc_rollbacks),
                    static_cast<unsigned long long>(result.sdc_replays),
                    static_cast<unsigned long long>(result.sdc_escalations),
                    static_cast<unsigned long long>(result.sdc_injected_flips));
        double snapshot_s = 0.0;
        double audit_s = 0.0;
        std::size_t snapshot_bytes = 0;
        for (const auto& report : result.reports) {
          snapshot_s += report.sdc.snapshot_seconds;
          audit_s += report.sdc.audit_seconds;
          snapshot_bytes = std::max(snapshot_bytes,
                                    report.sdc.snapshot_bytes);
        }
        std::printf("sdc cost: snapshot %.3f s + audit %.3f s over the "
                    "campaign, %.2f MB resident snapshot\n",
                    snapshot_s, audit_s,
                    static_cast<double>(snapshot_bytes) / 1e6);
      } else {
        std::printf("sdc guardrails: off\n");
      }
      std::printf("checkpoint data written: %.1f MB total, sim blocked "
                  "%.3f s (max rank)\n",
                  static_cast<double>(total_bytes) / 1e6, max_blocked);
      if (max_blocked > 0.0) {
        std::printf("effective checkpoint bandwidth: %.1f MB/s vs PFS "
                    "channel %.1f MB/s\n\n",
                    static_cast<double>(total_bytes) / 1e6 / max_blocked,
                    40.0);
      }
      for (const auto& analysis : result.analyses) {
        std::printf("analysis @ z=%.2f: %lld halos, %lld stars, %lld BHs, "
                    "largest halo %.2e x 1e10 Msun/h\n",
                    1.0 / analysis.a - 1.0,
                    static_cast<long long>(analysis.halo_count),
                    static_cast<long long>(analysis.star_count),
                    static_cast<long long>(analysis.bh_count),
                    analysis.largest_halo_mass);
      }
      std::printf("\nfinal density slice:\n%s\n",
                  result.analyses.empty()
                      ? "(none)"
                      : analysis::render_density_ascii(
                            result.analyses.back().slice, 48)
                            .c_str());
      std::printf("timer taxonomy (rank 0), paper Fig. 5 style:\n");
      const auto& timers = sim.timers();
      for (const char* name :
           {timers::kShortRange, timers::kAnalysis, timers::kIO,
            timers::kLongRange, timers::kTreeBuild, timers::kMisc}) {
        std::printf("  %-12s %8.3f s  (%5.1f%%)\n", name, timers.total(name),
                    100.0 * timers.fraction(name));
      }
      const auto& flops = sim.flops();
      std::printf("\nkernel FLOPs: %.2f GFLOP total, sustained %.2f GFLOP/s, "
                  "peak kernel '%s' at %.2f GFLOP/s\n",
                  flops.total_flops() / 1e9, flops.sustained_gflops(),
                  flops.peak_kernel().c_str(), flops.peak_gflops());
      const auto& pool = result.threading;
      if (pool.parallel_regions > 0) {
        double busy = 0.0;
        for (double b : pool.busy_seconds) busy += b;
        std::printf("thread pool (rank 0): %u threads, %llu regions, %llu "
                    "chunks, %llu steals, busy %.3f s, critical path %.3f s\n",
                    pool.threads,
                    static_cast<unsigned long long>(pool.parallel_regions),
                    static_cast<unsigned long long>(pool.chunks_executed),
                    static_cast<unsigned long long>(pool.steals), busy,
                    pool.critical_path_seconds());
      } else {
        std::printf("thread pool: serial path (threads=%d)\n", config.threads);
      }
    }

    // Observability: merged Chrome trace + per-phase imbalance + metrics.
    // All ranks participate in the gathers; rank 0 prints and writes.
    if (config.trace.enabled) {
      const std::string fragment = sim.trace().chrome_events_fragment();
      std::vector<std::uint8_t> mine(fragment.begin(), fragment.end());
      const auto gathered = comm.allgather(mine);
      if (comm.rank() == 0) {
        std::vector<std::string> fragments;
        for (const auto& bytes : gathered) {
          fragments.emplace_back(bytes.begin(), bytes.end());
        }
        std::FILE* out = std::fopen(trace_file.c_str(), "wb");
        if (out != nullptr) {
          const std::string doc =
              util::TraceRecorder::chrome_json_document(fragments);
          std::fwrite(doc.data(), 1, doc.size(), out);
          std::fclose(out);
          std::printf("\ntrace: %llu local events (%llu dropped) -> %s\n",
                      static_cast<unsigned long long>(result.trace_events),
                      static_cast<unsigned long long>(result.trace_dropped),
                      trace_file.c_str());
        } else {
          std::fprintf(stderr, "trace: cannot write %s\n", trace_file.c_str());
        }
        std::printf("\nper-phase summary (rank 0):\n%s",
                    sim.trace().summary_table().c_str());
        if (!result.phase_stats.empty()) {
          std::printf("\ncross-rank phase imbalance (campaign totals):\n");
          std::printf("  %-16s %10s %10s %8s\n", "phase", "mean(s)", "max(s)",
                      "max/mean");
          for (const auto& phase : result.phase_stats) {
            std::printf("  %-16s %10.4f %10.4f %8.2f\n", phase.name.c_str(),
                        phase.mean_seconds, phase.max_seconds,
                        phase.imbalance());
          }
        }
      }
    }
    if (show_metrics) {
      const auto reduced = sim.collect_metrics().reduce(comm);
      if (comm.rank() == 0) {
        std::printf("\nmetrics (reduced over %d ranks):\n%s", comm.size(),
                    reduced.table().c_str());
      }
    }
  };
  try {
    campaign.run(rank_program);
  } catch (const comm::RankLossError& loss) {
    // Under rank_loss_policy = fatal (or when a shrink would leave no
    // rank alive) the loss ends the campaign; fail cleanly with the
    // watchdog's diagnosis instead of std::terminate.
    std::fprintf(stderr, "campaign aborted by rank loss:\n%s\n", loss.what());
    std::filesystem::remove_all(workdir);
    return 1;
  }
  std::filesystem::remove_all(workdir);
  return 0;
}
