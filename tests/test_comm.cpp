// Tests for the in-process message-passing substrate and the cartesian
// domain decomposition, including the fault domain: injected rank
// failures and the hang watchdog.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <numeric>

#include "comm/decomposition.h"
#include "comm/world.h"

namespace crkhacc::comm {
namespace {

TEST(World, SingleRankRuns) {
  World world(1);
  int visited = 0;
  world.run([&](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++visited;
  });
  EXPECT_EQ(visited, 1);
}

TEST(World, PointToPointDelivers) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<int> payload{1, 2, 3};
      comm.send(1, /*tag=*/7, payload);
    } else {
      const auto got = comm.recv<int>(0, 7);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_EQ(got[2], 3);
    }
  });
}

TEST(World, TagMatchingIsSelective) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, /*tag=*/1, 111);
      comm.send_value(1, /*tag=*/2, 222);
    } else {
      // Receive out of send order: tag 2 first.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 222);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 111);
    }
  });
}

TEST(World, FifoPerSourceAndTag) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send_value(1, 5, i);
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(comm.recv_value<int>(0, 5), i);
    }
  });
}

TEST(World, BarrierSynchronizes) {
  const int p = 4;
  World world(p);
  std::atomic<int> before{0}, after_min{100};
  world.run([&](Communicator& comm) {
    ++before;
    comm.barrier();
    // Everyone must have incremented before anyone proceeds.
    int seen = before.load();
    int expected = p;
    EXPECT_EQ(seen, expected);
    int current = after_min.load();
    while (seen < current && !after_min.compare_exchange_weak(current, seen)) {
    }
  });
}

TEST(World, ReusableAcrossRuns) {
  World world(3);
  for (int round = 0; round < 3; ++round) {
    world.run([round](Communicator& comm) {
      const auto total = comm.allreduce_scalar(
          static_cast<std::int64_t>(comm.rank() + round), ReduceOp::kSum);
      EXPECT_EQ(total, 3 + 3 * round);
    });
  }
}

class CollectivesTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesTest, AllreduceSumMinMax) {
  const int p = GetParam();
  World world(p);
  world.run([p](Communicator& comm) {
    const double mine = static_cast<double>(comm.rank() + 1);
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(mine, ReduceOp::kSum),
                     p * (p + 1) / 2.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(mine, ReduceOp::kMin), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(mine, ReduceOp::kMax),
                     static_cast<double>(p));
  });
}

TEST_P(CollectivesTest, AllreduceVectorElementwise) {
  const int p = GetParam();
  World world(p);
  world.run([p](Communicator& comm) {
    std::vector<std::int64_t> values{comm.rank(), 2 * comm.rank()};
    comm.allreduce(std::span<std::int64_t>(values), ReduceOp::kSum);
    const std::int64_t sum = static_cast<std::int64_t>(p) * (p - 1) / 2;
    EXPECT_EQ(values[0], sum);
    EXPECT_EQ(values[1], 2 * sum);
  });
}

TEST_P(CollectivesTest, BroadcastFromEveryRoot) {
  const int p = GetParam();
  World world(p);
  world.run([p](Communicator& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> data;
      if (comm.rank() == root) data = {root, root + 1, root + 2};
      comm.bcast(data, root);
      ASSERT_EQ(data.size(), 3u);
      EXPECT_EQ(data[0], root);
      EXPECT_EQ(data[2], root + 2);
    }
  });
}

TEST_P(CollectivesTest, AllgatherCollectsAllRanks) {
  const int p = GetParam();
  World world(p);
  world.run([p](Communicator& comm) {
    const auto all = comm.allgather_value(comm.rank() * 10);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 10);
  });
}

TEST_P(CollectivesTest, AlltoallvPersonalizedExchange) {
  const int p = GetParam();
  World world(p);
  world.run([p](Communicator& comm) {
    // Rank r sends to rank d a vector of r*100+d with length (d+1).
    std::vector<std::vector<int>> sends(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      sends[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(d + 1),
                                                comm.rank() * 100 + d);
    }
    const auto recvs = comm.alltoallv(sends);
    ASSERT_EQ(recvs.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      const auto& batch = recvs[static_cast<std::size_t>(s)];
      ASSERT_EQ(batch.size(), static_cast<std::size_t>(comm.rank() + 1));
      for (int v : batch) EXPECT_EQ(v, s * 100 + comm.rank());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 8));

// --- the op contract: one op_count() tick per operation, and the payload
// bytes handed to mailboxes (the rank's own included) in bytes_sent() -----

TEST(CommContract, EachOpTicksOnceAndCountsItsBytes) {
  const int p = 3;
  World world(p);
  world.run([p](Communicator& comm) {
    const int me = comm.rank();
    auto expect_one_op = [&](const char* what, std::size_t bytes,
                             const auto& op) {
      const std::uint64_t ops0 = comm.op_count();
      const std::uint64_t bytes0 = comm.bytes_sent();
      op();
      EXPECT_EQ(comm.op_count() - ops0, 1u) << what << " on rank " << me;
      EXPECT_EQ(comm.bytes_sent() - bytes0, bytes) << what << " on rank " << me;
    };
    if (me == 0) {
      expect_one_op("send", 5 * sizeof(double),
                    [&] { comm.send(1, /*tag=*/4, std::vector<double>(5)); });
    } else if (me == 1) {
      expect_one_op("recv", 0, [&] { comm.recv<double>(0, /*tag=*/4); });
    }
    expect_one_op("barrier", 0, [&] { comm.barrier(); });
    std::vector<double> three(3, 1.0);
    expect_one_op("allreduce", p * 3 * sizeof(double), [&] {
      comm.allreduce(std::span<double>(three), ReduceOp::kSum);
    });
    // Root 2 sends to every other rank; the leaves send nothing.
    std::vector<float> data(me == 2 ? 4 : 0);
    expect_one_op("bcast", me == 2 ? (p - 1) * 4 * sizeof(float) : 0,
                  [&] { comm.bcast(data, /*root=*/2); });
    EXPECT_EQ(data.size(), 4u);
    const std::vector<int> mine(static_cast<std::size_t>(me + 1));
    expect_one_op("allgather", p * (me + 1) * sizeof(int),
                  [&] { comm.allgather(mine); });
    std::vector<std::vector<std::uint16_t>> sends(static_cast<std::size_t>(p));
    std::size_t total = 0;
    for (auto& s : sends) {
      s.resize(static_cast<std::size_t>(2 + me));
      total += s.size() * sizeof(std::uint16_t);  // the self-send counts
    }
    expect_one_op("alltoallv", total,
                  [&] { comm.alltoallv(std::move(sends)); });
  });
}

TEST(CommContract, AllreduceIsBitwiseIdenticalOnEveryRank) {
  // A sum whose value depends on its association, and signed zeros,
  // whose min and max depend on the order of the operands.
  const int p = 4;
  const std::array<double, 4> addends{1e16, 1.0, -1e16, 1.0};
  const std::array<double, 4> zeros{0.0, -0.0, 0.0, -0.0};
  World world(p);
  std::vector<std::array<std::uint64_t, 4>> bits(static_cast<std::size_t>(p));
  world.run([&](Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    std::array<double, 2> mins{zeros[r], -zeros[r]};
    comm.allreduce(std::span<double>(mins), ReduceOp::kMin);
    bits[r] = {std::bit_cast<std::uint64_t>(
                   comm.allreduce_scalar(addends[r], ReduceOp::kSum)),
               std::bit_cast<std::uint64_t>(mins[0]),
               std::bit_cast<std::uint64_t>(mins[1]),
               std::bit_cast<std::uint64_t>(
                   comm.allreduce_scalar(zeros[r], ReduceOp::kMax))};
  });
  // Ranks 0..p-1 folded in order: ((1e16 + 1) - 1e16) + 1.
  EXPECT_EQ(bits[0][0], std::bit_cast<std::uint64_t>(1.0));
  for (std::size_t r = 1; r < bits.size(); ++r) {
    EXPECT_EQ(bits[r], bits[0]) << "rank " << r;
  }
}

TEST(CommContract, AlltoallvHandsReceiversTheSendersBuffers) {
  const int p = 3;
  World world(p);
  // Each sender records its buffers before the exchange; the receivers
  // read the records after it, ordered by the mailbox hand-off.
  std::vector<const int*> sent(static_cast<std::size_t>(p * p), nullptr);
  world.run([&](Communicator& comm) {
    const int me = comm.rank();
    std::vector<std::vector<int>> sends(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      auto& buf = sends[static_cast<std::size_t>(d)];
      buf.assign(8, 10 * me + d);
      sent[static_cast<std::size_t>(me * p + d)] = buf.data();
    }
    const auto recvs = comm.alltoallv(std::move(sends));
    for (int s = 0; s < p; ++s) {
      const auto& got = recvs[static_cast<std::size_t>(s)];
      EXPECT_EQ(got.data(), sent[static_cast<std::size_t>(s * p + me)]);
      EXPECT_EQ(got, std::vector<int>(8, 10 * s + me));
    }
  });
}

TEST(CommContractDeathTest, RecvOfAnotherElementTypeDies) {
  EXPECT_DEATH(
      {
        World world(2);
        world.run([](Communicator& comm) {
          if (comm.rank() == 0) {
            comm.send(1, /*tag=*/3, std::vector<int>{1, 2});
          } else {
            comm.recv<float>(0, /*tag=*/3);
          }
        });
      },
      "element type differs");
}

// --- fault domain: rank failures + hang watchdog ---------------------------

WatchdogConfig fast_watchdog() {
  WatchdogConfig config;
  config.poll_interval_s = 0.01;
  return config;
}

TEST(WorldFaults, WatchdogConvertsMismatchedRecvIntoDiagnostic) {
  // Guaranteed deadlock: both ranks block on recvs nobody will ever
  // send. Without the watchdog this test would hang ctest forever.
  World world(2, fast_watchdog());
  const auto start = std::chrono::steady_clock::now();
  try {
    world.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        comm.recv<std::uint8_t>(1, /*tag=*/7);
      } else {
        comm.recv<std::uint8_t>(0, /*tag=*/9);  // deliberately mismatched
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("recv(source=1, tag=7)"), std::string::npos) << what;
    EXPECT_NE(what.find("recv(source=0, tag=9)"), std::string::npos) << what;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Bounded detection: well under CI timeouts.
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 10.0);
}

TEST(WorldFaults, WatchdogReportsBarrierDeadlock) {
  // Rank 1 dies before the barrier; the survivor waits on a barrier that
  // can never complete. The diagnosis must lead with the dead rank and
  // its last comm op — not a generic all-ranks-blocked deadlock.
  World world(2, fast_watchdog());
  world.schedule_rank_failure(1, /*op=*/0);
  try {
    world.run([](Communicator& comm) { comm.barrier(); });
    FAIL() << "expected RankLossError";
  } catch (const RankLossError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1 died at comm op 0"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("communication deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("blocked in barrier"), std::string::npos) << what;
    EXPECT_NE(what.find("failed (rank lost at comm op 0)"), std::string::npos)
        << what;
    ASSERT_EQ(e.lost().size(), 1u);
    EXPECT_EQ(e.lost()[0].rank, 1);
    EXPECT_EQ(e.lost()[0].op, 0u);
  }
  ASSERT_EQ(world.failures().size(), 1u);
  EXPECT_EQ(world.failures()[0].rank, 1);
  EXPECT_GT(world.last_loss_latency_seconds(), 0.0);
  world.clear_failure_schedule();
}

TEST(WorldFaults, RankLossNamesDeadSourceInRecvDiagnosis) {
  // Rank 0 blocks receiving from rank 1, which dies instead of sending:
  // the survivor's blocked line must point at the dead source.
  World world(2, fast_watchdog());
  world.schedule_rank_failure(1, /*op=*/0);
  try {
    world.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        comm.recv_value<int>(1, /*tag=*/3);
      } else {
        comm.send_value(0, /*tag=*/3, 42);  // op 0: dies before sending
      }
    });
    FAIL() << "expected RankLossError";
  } catch (const RankLossError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1 died at comm op 0"), std::string::npos)
        << what;
    EXPECT_NE(what.find("recv(source=1, tag=3) — awaited source is dead"),
              std::string::npos)
        << what;
  }
  world.clear_failure_schedule();
}

TEST(WorldLossLatency, DeathIsProvenWithoutWaitingOutPollIntervals) {
  // A one-second poll interval: a watchdog that waited out its polls
  // would need at least two seconds to prove the survivor's wedge.
  WatchdogConfig slow_polls;
  slow_polls.poll_interval_s = 1.0;
  World world(2, slow_polls);
  world.schedule_rank_failure(1, /*op=*/0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(world.run([](Communicator& comm) {
                 if (comm.rank() == 0) {
                   comm.recv_value<int>(1, /*tag=*/3);
                 } else {
                   comm.send_value(0, /*tag=*/3, 42);  // op 0: dies
                 }
               }),
               RankLossError);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(elapsed, 0.5);
  EXPECT_LT(world.last_loss_latency_seconds(), 0.5);
  world.clear_failure_schedule();
}

TEST(WorldFaults, TrueDeadlockStillRaisesPlainDeadlockError) {
  // No failure schedule: a genuine deadlock must NOT be classified as a
  // rank loss.
  World world(2, fast_watchdog());
  try {
    world.run([](Communicator& comm) {
      comm.recv<std::uint8_t>(1 - comm.rank(), /*tag=*/1);  // nobody sends
    });
    FAIL() << "expected DeadlockError";
  } catch (const RankLossError&) {
    FAIL() << "a failure-free deadlock must not be a RankLossError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("communication deadlock"), std::string::npos) << what;
  }
  EXPECT_TRUE(world.failures().empty());
  EXPECT_DOUBLE_EQ(world.last_loss_latency_seconds(), 0.0);
}

TEST(WorldFaults, RankFailureUnwindsCleanlyWhenUnobserved) {
  // The failing rank aborts after the collective everyone depends on:
  // the other ranks finish normally and run() returns instead of
  // throwing.
  World world(3, fast_watchdog());
  world.schedule_rank_failure(2, /*op=*/1);
  std::atomic<int> completed{0};
  world.run([&](Communicator& comm) {
    const auto total = comm.allreduce_scalar(std::int64_t{1}, ReduceOp::kSum);
    EXPECT_EQ(total, 3);
    if (comm.rank() == 2) {
      comm.allreduce_scalar(std::int64_t{1}, ReduceOp::kSum);  // op 1: dies here
      FAIL() << "rank 2 should have failed";
    }
    ++completed;
  });
  EXPECT_EQ(completed.load(), 2);
  ASSERT_EQ(world.failures().size(), 1u);
  EXPECT_EQ(world.failures()[0].rank, 2);
  EXPECT_EQ(world.failures()[0].op, 1u);
  world.clear_failure_schedule();
}

TEST(WorldFaults, FailureScheduleIsDeterministic) {
  // The same schedule kills the same rank at the same op every run.
  for (int repeat = 0; repeat < 2; ++repeat) {
    World world(2, fast_watchdog());
    world.schedule_rank_failure(0, /*op=*/2);
    world.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        comm.send_value(1, 1, 10);  // op 0
        comm.send_value(1, 1, 20);  // op 1
        try {
          comm.send_value(1, 1, 30);  // op 2: dies before delivering
          FAIL() << "expected RankFailure";
        } catch (const RankFailure& f) {
          EXPECT_EQ(f.rank(), 0);
          EXPECT_EQ(f.op(), 2u);
          throw;
        }
      } else {
        EXPECT_EQ(comm.recv_value<int>(0, 1), 10);
        EXPECT_EQ(comm.recv_value<int>(0, 1), 20);
      }
    });
    ASSERT_EQ(world.failures().size(), 1u);
    EXPECT_EQ(world.failures()[0].op, 2u);
  }
}

TEST(WorldFaults, WorldIsReusableAfterDeadlock) {
  World world(2, fast_watchdog());
  world.schedule_rank_failure(1, /*op=*/0);
  EXPECT_THROW(world.run([](Communicator& comm) {
    comm.send_value(1 - comm.rank(), 1, comm.rank());
    comm.recv_value<int>(1 - comm.rank(), 1);
    comm.barrier();
  }),
               DeadlockError);
  // Undelivered messages and the half-formed barrier must not leak into
  // the next run.
  world.clear_failure_schedule();
  world.run([](Communicator& comm) {
    const auto total = comm.allreduce_scalar(std::int64_t{1}, ReduceOp::kSum);
    EXPECT_EQ(total, 2);
    comm.barrier();
  });
  EXPECT_TRUE(world.failures().empty());
}

TEST(WorldFaults, HealthyTrafficDoesNotTripWatchdog) {
  // Sustained send/recv/barrier traffic with an aggressive poll interval:
  // the watchdog must never fire on a live machine.
  World world(4, fast_watchdog());
  world.run([](Communicator& comm) {
    for (int round = 0; round < 50; ++round) {
      const int peer = comm.rank() ^ 1;
      if (comm.rank() < peer) {
        comm.send_value(peer, round, comm.rank());
        EXPECT_EQ(comm.recv_value<int>(peer, round), peer);
      } else {
        EXPECT_EQ(comm.recv_value<int>(peer, round), peer);
        comm.send_value(peer, round, comm.rank());
      }
      comm.barrier();
    }
  });
}

// --- decomposition ---------------------------------------------------------

TEST(Factorization, ProducesExactFactors) {
  for (int n : {1, 2, 3, 4, 6, 8, 12, 16, 27, 64, 100}) {
    const auto f = near_cubic_factorization(n);
    EXPECT_EQ(f[0] * f[1] * f[2], n) << "n=" << n;
    EXPECT_GE(f[0], f[1]);
    EXPECT_GE(f[1], f[2]);
  }
}

TEST(Factorization, PrefersCubicSplits) {
  EXPECT_EQ(near_cubic_factorization(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(near_cubic_factorization(27), (std::array<int, 3>{3, 3, 3}));
  EXPECT_EQ(near_cubic_factorization(12), (std::array<int, 3>{3, 2, 2}));
}

class DecompositionTest : public ::testing::TestWithParam<int> {};

TEST_P(DecompositionTest, RankCoordinateRoundTrip) {
  const CartDecomposition decomp(GetParam(), 100.0);
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    EXPECT_EQ(decomp.rank_of(decomp.coords_of(r)), r);
  }
}

TEST_P(DecompositionTest, LocalBoxesTileTheDomain) {
  const CartDecomposition decomp(GetParam(), 100.0);
  double volume = 0.0;
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    volume += decomp.local_box(r).volume();
  }
  EXPECT_NEAR(volume, 100.0 * 100.0 * 100.0, 1e-6);
}

TEST_P(DecompositionTest, OwnerOfMatchesLocalBox) {
  const CartDecomposition decomp(GetParam(), 100.0);
  for (int trial = 0; trial < 200; ++trial) {
    std::array<double, 3> p;
    for (int d = 0; d < 3; ++d) {
      p[d] = 100.0 * ((trial * 37 + d * 13) % 100) / 100.0 + 0.001;
    }
    const int owner = decomp.owner_of(p);
    EXPECT_TRUE(decomp.local_box(owner).contains(p));
  }
}

TEST_P(DecompositionTest, NeighborRelationIsSymmetric) {
  const CartDecomposition decomp(GetParam(), 100.0);
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    for (int nb : decomp.neighbors_of(r)) {
      const auto back = decomp.neighbors_of(nb);
      EXPECT_NE(std::find(back.begin(), back.end(), r), back.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DecompositionTest,
                         ::testing::Values(1, 2, 4, 8, 12, 27));

// Shrink remapping: after a rank loss the survivors rebuild the
// decomposition at N-1 and every particle must land in exactly one new
// domain. Exercised over the (N, N-1) pairs a shrink actually produces.
class ShrinkRemapTest : public ::testing::TestWithParam<int> {};

TEST_P(ShrinkRemapTest, OwnerOfIsTotalDisjointCoverAtBothRankCounts) {
  const double box = 100.0;
  for (const int n : {GetParam(), GetParam() - 1}) {
    const CartDecomposition decomp(n, box);
    ASSERT_EQ(decomp.num_ranks(), n);
    std::vector<std::uint64_t> owned(static_cast<std::size_t>(n), 0);
    // Dense lattice sample, offset off the domain faces where ownership
    // changes hands.
    const int samples = 16;
    for (int i = 0; i < samples; ++i) {
      for (int j = 0; j < samples; ++j) {
        for (int k = 0; k < samples; ++k) {
          const std::array<double, 3> p{(i + 0.37) * box / samples,
                                        (j + 0.37) * box / samples,
                                        (k + 0.37) * box / samples};
          const int owner = decomp.owner_of(p);
          ASSERT_GE(owner, 0);
          ASSERT_LT(owner, n);
          ++owned[static_cast<std::size_t>(owner)];
          // Disjoint: the owner's box contains the point and no other
          // rank's does (local boxes are half-open, so membership is
          // exclusive by construction — assert it anyway).
          EXPECT_TRUE(decomp.local_box(owner).contains(p));
          for (int r = 0; r < n; ++r) {
            if (r == owner) continue;
            EXPECT_FALSE(decomp.local_box(r).contains(p))
                << "n=" << n << " point owned by both " << owner << " and "
                << r;
          }
        }
      }
    }
    // Total: every rank owns a share of a uniform sample.
    for (int r = 0; r < n; ++r) {
      EXPECT_GT(owned[static_cast<std::size_t>(r)], 0u)
          << "n=" << n << " rank " << r << " owns nothing";
    }
  }
}

TEST_P(ShrinkRemapTest, NeighborsStaySymmetricAfterRefactorization) {
  // The N-1 grid is a different factorization, not a sub-grid of N; the
  // neighbor relation must come out symmetric from scratch.
  const CartDecomposition shrunk(GetParam() - 1, 100.0);
  for (int r = 0; r < shrunk.num_ranks(); ++r) {
    for (int nb : shrunk.neighbors_of(r)) {
      const auto back = shrunk.neighbors_of(nb);
      EXPECT_NE(std::find(back.begin(), back.end(), r), back.end())
          << "rank " << nb << " does not list " << r << " back";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShrinkPairs, ShrinkRemapTest,
                         ::testing::Values(2, 3, 4, 8, 12, 27));

TEST(Decomposition, WrapAndMinImage) {
  const CartDecomposition decomp(8, 10.0);
  EXPECT_DOUBLE_EQ(decomp.wrap(10.5), 0.5);
  EXPECT_DOUBLE_EQ(decomp.wrap(-0.5), 9.5);
  EXPECT_DOUBLE_EQ(decomp.wrap(0.0), 0.0);
  EXPECT_DOUBLE_EQ(decomp.min_image(9.0), -1.0);
  EXPECT_DOUBLE_EQ(decomp.min_image(-9.0), 1.0);
  EXPECT_DOUBLE_EQ(decomp.min_image(3.0), 3.0);
}

TEST(Decomposition, OverloadedBoxCapsAtOneBox) {
  // The pad is capped at one box length so the +-1 periodic image
  // offsets used by the ghost exchange always cover the overloaded box.
  const CartDecomposition decomp(1, 10.0);
  const auto box = decomp.overloaded_box(0, 100.0);
  EXPECT_NEAR(box.lo[0], -10.0, 1e-9);
  EXPECT_NEAR(box.hi[0], 20.0, 1e-9);
  // A single-rank box with a small overload keeps its ghost shell.
  const auto shell = decomp.overloaded_box(0, 1.5);
  EXPECT_NEAR(shell.lo[0], -1.5, 1e-12);
  EXPECT_NEAR(shell.hi[0], 11.5, 1e-12);
}

TEST(Decomposition, OverloadedBoxExpandsByRequestedPad) {
  const CartDecomposition decomp(8, 10.0);  // 2x2x2, subdomains 5 wide
  const auto box = decomp.overloaded_box(0, 1.0);
  EXPECT_NEAR(box.lo[0], -1.0, 1e-12);
  EXPECT_NEAR(box.hi[0], 6.0, 1e-12);
}

}  // namespace
}  // namespace crkhacc::comm
