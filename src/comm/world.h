// In-process message-passing substrate.
//
// CRK-HACC is an MPI code: one rank per GPU tile, 72,000 ranks on the full
// Frontier-E run. This module substitutes a faithful in-process model for
// MPI — N simulated ranks, each running the identical rank program on its
// own thread, communicating only through explicit messages and collectives
// with MPI semantics (matched tagged point-to-point, barrier, allreduce,
// bcast, alltoallv, allgather). Algorithms above this layer are written
// exactly as they would be against MPI, so rank-count scaling exercises the
// same decomposition, exchange, and reduction patterns as the real machine.
//
// A message owns a typed payload, a std::vector<T> whose element type is
// what an MPI datatype can carry (trivially copyable). A send moves the
// sender's vector into the receiver's mailbox, or copies it where one
// buffer goes to several ranks (bcast, allgather), so no buffer is ever
// reachable from two ranks: no shared mutable state leaks between ranks,
// preserving the distributed-memory discipline that makes the
// overload/ghost-zone design of the paper necessary in the first place.
// A receive whose element type differs from the sender's fails a CHECK
// instead of reinterpreting bytes.
//
// Fault domain: a deterministic rank-failure schedule can abort any rank
// mid-step (RankFailure unwinds that rank's program cleanly), and a hang
// watchdog converts the resulting — or any other — communication deadlock
// into a DeadlockError carrying every rank's blocked state (who it waits
// on, which tag, which barrier generation) instead of hanging forever.
// When the wedge is caused by recorded rank deaths, run() raises the
// RankLossError subclass instead — ULFM's "revoked communicator" moment —
// naming the dead ranks so a campaign layer can shrink and continue.
#pragma once

#include <algorithm>
#include <any>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assertions.h"

namespace crkhacc::comm {

/// Reduction operators for allreduce.
enum class ReduceOp { kSum, kMin, kMax };

class Communicator;

/// Thrown inside a rank's program when its injected failure point is
/// reached; World::run catches it, records the loss, and lets the other
/// ranks keep running (they deadlock — caught by the watchdog — if they
/// depend on the dead rank).
class RankFailure : public std::runtime_error {
 public:
  RankFailure(int rank, std::uint64_t op)
      : std::runtime_error("rank " + std::to_string(rank) +
                           " failed at comm op " + std::to_string(op)),
        rank_(rank), op_(op) {}
  int rank() const { return rank_; }
  std::uint64_t op() const { return op_; }

 private:
  int rank_;
  std::uint64_t op_;
};

/// Thrown by World::run when the watchdog proves no rank can make
/// progress; what() carries the per-rank blocked-state dump.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& diagnosis)
      : std::runtime_error(diagnosis) {}
};

/// An injected failure observed during a run.
struct FailureRecord {
  int rank = 0;
  std::uint64_t op = 0;
};

/// Raised instead of a plain DeadlockError when the proven wedge is
/// explained by recorded rank deaths: the survivors are blocked on a lost
/// peer, not genuinely deadlocked. Subclasses DeadlockError so existing
/// fatal-path handlers keep working; a shrink-aware caller catches this
/// type specifically and relaunches on the survivors.
class RankLossError : public DeadlockError {
 public:
  RankLossError(const std::string& diagnosis,
                std::vector<FailureRecord> lost)
      : DeadlockError(diagnosis), lost_(std::move(lost)) {}
  const std::vector<FailureRecord>& lost() const { return lost_; }

 private:
  std::vector<FailureRecord> lost_;
};

/// Watchdog tuning. The watchdog only fires on a *proven* deadlock (all
/// live ranks blocked, no deliverable message, no progress across two
/// consecutive polls), so it is safe to leave on by default. Once a rank
/// has died the watchdog polls every 0.5 ms (or poll_interval_s, if
/// shorter), so a rank loss is proven within milliseconds of the
/// survivors wedging.
struct WatchdogConfig {
  bool enabled = true;
  double poll_interval_s = 0.05;
};

/// A simulated machine: N ranks, each running `rank_main` on its own
/// thread. Construction is cheap; run() is synchronous and joins all
/// rank threads before returning.
class World {
 public:
  explicit World(int num_ranks, const WatchdogConfig& watchdog = {});
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return num_ranks_; }

  /// Execute `rank_main(comm)` on every rank concurrently; returns after
  /// all ranks finish. May be called repeatedly on the same World.
  /// After joining every rank thread: throws RankLossError if the
  /// watchdog proved a wedge and ranks were lost (the survivors were
  /// blocked on a dead peer), DeadlockError if the machine wedged with no
  /// recorded deaths. A RankFailure that never wedges the survivors does
  /// not throw — inspect failures().
  void run(const std::function<void(Communicator&)>& rank_main);

  /// Deterministic rank-failure schedule: rank `rank` throws RankFailure
  /// when it issues its `op`-th communication operation (0-based count
  /// of sends/recvs/collectives). Persists across run() calls until
  /// clear_failure_schedule().
  void schedule_rank_failure(int rank, std::uint64_t op);
  void clear_failure_schedule();

  /// Injected failures observed during the most recent run().
  using FailureRecord = comm::FailureRecord;
  std::vector<FailureRecord> failures() const { return failures_; }

  /// Wall seconds from the first rank death of the most recent run()
  /// until run() returned control (watchdog detection + survivor
  /// unwinding + thread joins). 0 when no rank was lost. This is the
  /// detection half of a shrink recovery's wall-time bill.
  double last_loss_latency_seconds() const { return loss_latency_s_; }

 private:
  friend class Communicator;

  struct Message {
    int source;
    int tag;
    std::any payload;  ///< the sender's std::vector<T>
  };

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> messages;
  };

  /// What a rank is doing right now, as seen by the watchdog.
  enum class Phase : std::uint8_t {
    kRunning = 0,
    kBlockedRecv,
    kBlockedBarrier,
    kFinished,
    kFailed,
  };
  struct RankState {
    Phase phase = Phase::kRunning;
    int source = -1;          ///< recv: awaited source rank
    int tag = 0;              ///< recv: awaited tag
    std::uint64_t barrier_gen = 0;  ///< barrier: awaited generation
  };

  void deliver(int dest, Message&& message);
  std::any wait_for(int self, int source, int tag);

  // Central generation-counted barrier shared by all collectives.
  void barrier_wait(int self);

  void set_phase(int rank, Phase phase, int source = -1, int tag = 0,
                 std::uint64_t barrier_gen = 0);
  void watchdog_loop();
  /// One watchdog sample; returns a diagnosis string if this sample
  /// proves a deadlock, empty otherwise.
  std::string watchdog_probe(std::uint64_t& last_progress, bool& armed);
  std::string dump_rank_states();
  void declare_deadlock(const std::string& diagnosis);
  [[noreturn]] void throw_deadlock();

  int num_ranks_;
  WatchdogConfig watchdog_config_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // --- fault domain -------------------------------------------------------
  std::vector<std::int64_t> fail_at_op_;  ///< per rank; -1 = never
  std::vector<FailureRecord> failures_;
  std::chrono::steady_clock::time_point first_failure_tp_{};
  double loss_latency_s_ = 0.0;
  mutable std::mutex state_mutex_;
  std::vector<RankState> rank_states_;
  std::atomic<std::uint64_t> progress_{0};  ///< bumped on any forward step
  std::atomic<int> unfinished_{0};          ///< live rank threads this run
  std::atomic<bool> deadlock_flag_{false};
  std::string deadlock_diagnosis_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool rank_lost_ = false;  ///< a rank died this run; guarded by watchdog_mutex_
  bool dirty_ = false;  ///< previous run left mailboxes/barrier corrupt
};

/// Per-rank communication handle. Valid only inside World::run.
///
/// All operations are blocking with MPI semantics. Point-to-point matching
/// is by (source, tag) in FIFO order per pair. Payloads are
/// std::vector<T> of a trivially copyable T; a receive must name the
/// sender's T. Every operation ticks op_count() once before it delivers
/// anything.
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return world_.num_ranks_; }

  // --- point-to-point ----------------------------------------------------
  /// Moves `data` into `dest`'s mailbox; pass an lvalue to send a copy.
  template <typename T>
  void send(int dest, int tag, std::vector<T> data) {
    CHECK(tag >= 0);
    tick();
    post(dest, tag, std::move(data));
  }

  /// Blocks until a matching message arrives; returns its payload.
  template <typename T>
  std::vector<T> recv(int source, int tag) {
    CHECK(tag >= 0);
    tick();
    return take<T>(source, tag);
  }

  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    send(dest, tag, std::vector<T>{value});
  }

  template <typename T>
  T recv_value(int source, int tag) {
    const std::vector<T> data = recv<T>(source, tag);
    CHECK(data.size() == 1);
    return data[0];
  }

  // --- collectives --------------------------------------------------------
  /// All ranks must call; returns when every rank has arrived.
  void barrier();

  /// Element-wise reduction of `values` across ranks; result on all ranks.
  /// Every rank folds ranks 0..size()-1 in order, so the result is
  /// bitwise identical everywhere (a sum's association, a zero's sign).
  template <typename T>
  void allreduce(std::span<T> values, ReduceOp op) {
    const auto all = allgather(std::vector<T>(values.begin(), values.end()));
    for (const std::vector<T>& v : all) CHECK(v.size() == values.size());
    std::copy(all[0].begin(), all[0].end(), values.begin());
    for (std::size_t s = 1; s < all.size(); ++s) {
      for (std::size_t i = 0; i < values.size(); ++i) {
        switch (op) {
          case ReduceOp::kSum: values[i] += all[s][i]; break;
          case ReduceOp::kMin: values[i] = std::min(values[i], all[s][i]); break;
          case ReduceOp::kMax: values[i] = std::max(values[i], all[s][i]); break;
        }
      }
    }
  }
  double allreduce_scalar(double value, ReduceOp op);
  std::int64_t allreduce_scalar(std::int64_t value, ReduceOp op);

  /// Collective logical-AND: true iff every rank passed true. Used for
  /// commit/rollback and recovery verdicts where all ranks must agree.
  bool all_agree(bool local_ok) {
    return allreduce_scalar(static_cast<std::int64_t>(local_ok ? 1 : 0),
                            ReduceOp::kMin) == 1;
  }

  /// Broadcast `data` from `root` to every rank (replaced on receivers).
  template <typename T>
  void bcast(std::vector<T>& data, int root) {
    tick();
    if (rank_ != root) {
      data = take<T>(root, kTagBcast);
      return;
    }
    for (int d = 0; d < size(); ++d) {
      if (d != root) post(d, kTagBcast, data);
    }
  }

  /// Gather a variable-size buffer from each rank onto all ranks,
  /// indexed by source rank.
  template <typename T>
  std::vector<std::vector<T>> allgather(const std::vector<T>& mine) {
    tick();
    for (int d = 0; d < size(); ++d) post(d, kTagAllgather, mine);
    return take_from_all<T>(kTagAllgather);
  }

  /// Gather one T from each rank onto all ranks.
  template <typename T>
  std::vector<T> allgather_value(const T& value) {
    std::vector<T> out;
    for (const std::vector<T>& one : allgather(std::vector<T>{value})) {
      CHECK(one.size() == 1);
      out.push_back(one[0]);
    }
    return out;
  }

  /// Personalized all-to-all: sends[d] is moved to rank d; returns the
  /// buffer received from each rank (empty buffers allowed).
  template <typename T>
  std::vector<std::vector<T>> alltoallv(std::vector<std::vector<T>> sends) {
    CHECK(static_cast<int>(sends.size()) == size());
    tick();
    for (int d = 0; d < size(); ++d) {
      post(d, kTagAlltoall, std::move(sends[static_cast<std::size_t>(d)]));
    }
    return take_from_all<T>(kTagAlltoall);
  }

  /// Payload bytes this rank has delivered to mailboxes, its own
  /// included (diagnostics).
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// Communication operations issued so far (the counter
  /// schedule_rank_failure indexes) — lets harnesses measure an op
  /// budget on a fault-free run and aim an injected failure inside it.
  std::uint64_t op_count() const { return op_count_; }

 private:
  friend class World;
  Communicator(World& world, int rank) : world_(world), rank_(rank) {}

  // Internal tags, negative so they never collide with user tags (which
  // must be non-negative). Back-to-back collectives stay matched by the
  // per-(source, tag) FIFO order.
  static constexpr int kTagAllgather = -1;
  static constexpr int kTagBcast = -2;
  static constexpr int kTagAlltoall = -3;

  /// Advance the comm-op counter; throws RankFailure at the scheduled op.
  void tick();

  /// Counts `data`'s bytes and moves it into `dest`'s mailbox.
  template <typename T>
  void post(int dest, int tag, std::vector<T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes_sent_ += data.size() * sizeof(T);
    world_.deliver(dest, World::Message{rank_, tag, std::move(data)});
  }

  /// Blocks for the next (source, tag) message and moves its payload out.
  template <typename T>
  std::vector<T> take(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::any payload = world_.wait_for(rank_, source, tag);
    auto* data = std::any_cast<std::vector<T>>(&payload);
    CHECK_MSG(data != nullptr, "received element type differs from the sent one");
    return std::move(*data);
  }

  /// One `tag` message from each rank, indexed by source.
  template <typename T>
  std::vector<std::vector<T>> take_from_all(int tag) {
    std::vector<std::vector<T>> out(static_cast<std::size_t>(size()));
    for (int s = 0; s < size(); ++s) {
      out[static_cast<std::size_t>(s)] = take<T>(s, tag);
    }
    return out;
  }

  World& world_;
  int rank_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t op_count_ = 0;
};

}  // namespace crkhacc::comm
