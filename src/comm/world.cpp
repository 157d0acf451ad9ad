#include "comm/world.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace crkhacc::comm {
namespace {

/// Watchdog sample spacing once a rank has died: the survivors are about
/// to wedge on the dead peer, and proving that should not wait out the
/// configured poll interval twice.
constexpr double kLossPollIntervalS = 0.0005;

}  // namespace

// --------------------------------------------------------------------------
// World

World::World(int num_ranks, const WatchdogConfig& watchdog)
    : num_ranks_(num_ranks), watchdog_config_(watchdog) {
  CHECK(num_ranks >= 1);
  mailboxes_.reserve(static_cast<std::size_t>(num_ranks));
  for (int i = 0; i < num_ranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  fail_at_op_.assign(static_cast<std::size_t>(num_ranks), -1);
  rank_states_.resize(static_cast<std::size_t>(num_ranks));
}

World::~World() = default;

void World::schedule_rank_failure(int rank, std::uint64_t op) {
  CHECK(rank >= 0 && rank < num_ranks_);
  fail_at_op_[static_cast<std::size_t>(rank)] = static_cast<std::int64_t>(op);
}

void World::clear_failure_schedule() {
  std::fill(fail_at_op_.begin(), fail_at_op_.end(), -1);
}

void World::run(const std::function<void(Communicator&)>& rank_main) {
  if (dirty_) {
    // A previous run lost ranks or deadlocked: drop undelivered messages
    // and half-formed barrier arrivals instead of poisoning this run.
    for (auto& box : mailboxes_) {
      std::lock_guard<std::mutex> lock(box->mutex);
      box->messages.clear();
    }
    {
      std::lock_guard<std::mutex> lock(barrier_mutex_);
      barrier_arrived_ = 0;
    }
    dirty_ = false;
  } else {
    // Any leftover state from a previous (buggy) run would corrupt this
    // one.
    for (auto& box : mailboxes_) {
      CHECK(box->messages.empty());
    }
  }
  failures_.clear();
  loss_latency_s_ = 0.0;
  deadlock_flag_.store(false);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    deadlock_diagnosis_.clear();
    std::fill(rank_states_.begin(), rank_states_.end(), RankState{});
  }
  progress_.store(0);
  unfinished_.store(num_ranks_);
  rank_lost_ = false;

  std::thread watchdog;
  if (watchdog_config_.enabled) {
    watchdog = std::thread([this] { watchdog_loop(); });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) {
    threads.emplace_back([this, r, &rank_main] {
      Communicator comm(*this, r);
      try {
        rank_main(comm);
        set_phase(r, Phase::kFinished);
      } catch (const RankFailure& failure) {
        {
          std::lock_guard<std::mutex> lock(state_mutex_);
          if (failures_.empty()) {
            first_failure_tp_ = std::chrono::steady_clock::now();
          }
          failures_.push_back(FailureRecord{failure.rank(), failure.op()});
        }
        set_phase(r, Phase::kFailed);
        {
          // Under the watchdog's mutex, so the wake-up cannot slip in
          // between its predicate check and its wait.
          std::lock_guard<std::mutex> lock(watchdog_mutex_);
          rank_lost_ = true;
        }
        watchdog_cv_.notify_all();
      } catch (const DeadlockError&) {
        set_phase(r, Phase::kFailed);
      }
      unfinished_.fetch_sub(1);
      watchdog_cv_.notify_all();
    });
  }
  for (auto& t : threads) t.join();
  watchdog_cv_.notify_all();
  if (watchdog.joinable()) watchdog.join();

  if (!failures_.empty() || deadlock_flag_.load()) dirty_ = true;
  if (!failures_.empty()) {
    loss_latency_s_ = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - first_failure_tp_)
                          .count();
  }
  if (deadlock_flag_.load()) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    // A wedge explained by recorded deaths is a rank loss, not a true
    // deadlock: survivors were blocked on a dead peer. Raise the
    // shrinkable subclass so a campaign layer can relaunch on N - lost.
    if (!failures_.empty()) {
      throw RankLossError(deadlock_diagnosis_, failures_);
    }
    throw DeadlockError(deadlock_diagnosis_);
  }
}

void World::set_phase(int rank, Phase phase, int source, int tag,
                      std::uint64_t barrier_gen) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    auto& state = rank_states_[static_cast<std::size_t>(rank)];
    state.phase = phase;
    state.source = source;
    state.tag = tag;
    state.barrier_gen = barrier_gen;
  }
  progress_.fetch_add(1, std::memory_order_relaxed);
}

void World::watchdog_loop() {
  std::uint64_t last_progress = progress_.load();
  bool armed = false;
  // A death switches the cadence from the configured poll interval to
  // kLossPollIntervalS; a deadlock with no death keeps the configured one.
  // The proof itself is unchanged.
  bool loss_cadence = false;
  while (unfinished_.load() > 0 && !deadlock_flag_.load()) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mutex_);
      const double interval =
          loss_cadence
              ? std::min(kLossPollIntervalS, watchdog_config_.poll_interval_s)
              : watchdog_config_.poll_interval_s;
      watchdog_cv_.wait_for(lock, std::chrono::duration<double>(interval),
                            [&] {
                              return unfinished_.load() == 0 ||
                                     (rank_lost_ && !loss_cadence);
                            });
      loss_cadence = rank_lost_;
    }
    if (unfinished_.load() == 0) return;
    const std::string diagnosis = watchdog_probe(last_progress, armed);
    if (!diagnosis.empty()) {
      declare_deadlock(diagnosis);
      return;
    }
  }
}

std::string World::watchdog_probe(std::uint64_t& last_progress, bool& armed) {
  // A deadlock is proven, not guessed: every live rank is blocked, no
  // blocked recv has a deliverable message, and nothing moved between
  // two consecutive polls. All three can only hold simultaneously for a
  // genuinely wedged machine, because only ranks deliver messages.
  const std::uint64_t progress_now = progress_.load();
  if (progress_now != last_progress) {
    last_progress = progress_now;
    armed = false;
    return {};
  }

  std::vector<RankState> snapshot;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    snapshot = rank_states_;
  }
  bool any_blocked = false;
  for (const auto& state : snapshot) {
    if (state.phase == Phase::kRunning) {
      armed = false;
      return {};
    }
    if (state.phase == Phase::kBlockedRecv ||
        state.phase == Phase::kBlockedBarrier) {
      any_blocked = true;
    }
  }
  if (!any_blocked) return {};

  for (std::size_t r = 0; r < snapshot.size(); ++r) {
    if (snapshot[r].phase != Phase::kBlockedRecv) continue;
    Mailbox& box = *mailboxes_[r];
    std::lock_guard<std::mutex> lock(box.mutex);
    for (const auto& m : box.messages) {
      if (m.source == snapshot[r].source && m.tag == snapshot[r].tag) {
        // Deliverable message: the rank just hasn't woken yet.
        armed = false;
        return {};
      }
    }
  }
  if (progress_.load() != last_progress) return {};
  if (!armed) {
    armed = true;  // require a second identical sample before firing
    return {};
  }
  return dump_rank_states();
}

std::string World::dump_rank_states() {
  std::vector<RankState> snapshot;
  std::vector<FailureRecord> lost;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    snapshot = rank_states_;
    lost = failures_;
  }
  // Lead with the root cause. A wedge with recorded deaths is not a
  // deadlock among live ranks — the survivors are waiting on a peer that
  // no longer exists, and the headline should say so instead of burying
  // the dead rank in the per-rank dump.
  std::string out;
  if (lost.empty()) {
    out = "communication deadlock: no live rank can make progress\n";
  } else {
    out = "rank loss: ";
    for (std::size_t i = 0; i < lost.size(); ++i) {
      if (i > 0) out += ", ";
      out += "rank " + std::to_string(lost[i].rank) + " died at comm op " +
             std::to_string(lost[i].op);
    }
    out += "; survivors are blocked on the lost rank";
    out += lost.size() > 1 ? "s\n" : "\n";
  }
  std::vector<std::int64_t> death_op(snapshot.size(), -1);
  for (const auto& f : lost) {
    if (f.rank >= 0 && f.rank < static_cast<int>(snapshot.size())) {
      death_op[static_cast<std::size_t>(f.rank)] =
          static_cast<std::int64_t>(f.op);
    }
  }
  for (std::size_t r = 0; r < snapshot.size(); ++r) {
    const auto& state = snapshot[r];
    out += "  rank " + std::to_string(r) + ": ";
    switch (state.phase) {
      case Phase::kRunning:
        out += "running";
        break;
      case Phase::kBlockedRecv:
        out += "blocked in recv(source=" + std::to_string(state.source) +
               ", tag=" + std::to_string(state.tag) + ")";
        if (state.source >= 0 &&
            state.source < static_cast<int>(death_op.size()) &&
            death_op[static_cast<std::size_t>(state.source)] >= 0) {
          out += " — awaited source is dead";
        }
        break;
      case Phase::kBlockedBarrier:
        out += "blocked in barrier(generation=" +
               std::to_string(state.barrier_gen) + ")";
        break;
      case Phase::kFinished:
        out += "finished";
        break;
      case Phase::kFailed:
        out += "failed (rank lost";
        if (death_op[r] >= 0) {
          out += " at comm op " + std::to_string(death_op[r]);
        }
        out += ")";
        break;
    }
    out += "\n";
  }
  return out;
}

void World::declare_deadlock(const std::string& diagnosis) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    deadlock_diagnosis_ = diagnosis;
  }
  deadlock_flag_.store(true);
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mutex);
    box->cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    barrier_cv_.notify_all();
  }
}

void World::throw_deadlock() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  throw DeadlockError(deadlock_diagnosis_);
}

void World::deliver(int dest, Message&& message) {
  CHECK(dest >= 0 && dest < num_ranks_);
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.messages.push_back(std::move(message));
  }
  progress_.fetch_add(1, std::memory_order_relaxed);
  box.cv.notify_all();
}

std::any World::wait_for(int self, int source, int tag) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(self)];
  std::unique_lock<std::mutex> lock(box.mutex);
  set_phase(self, Phase::kBlockedRecv, source, tag);
  while (true) {
    if (deadlock_flag_.load()) throw_deadlock();
    auto it = std::find_if(box.messages.begin(), box.messages.end(),
                           [&](const Message& m) {
                             return m.source == source && m.tag == tag;
                           });
    if (it != box.messages.end()) {
      auto payload = std::move(it->payload);
      box.messages.erase(it);
      set_phase(self, Phase::kRunning);
      return payload;
    }
    box.cv.wait(lock);
  }
}

void World::barrier_wait(int self) {
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  const std::uint64_t generation = barrier_generation_;
  if (++barrier_arrived_ == num_ranks_) {
    barrier_arrived_ = 0;
    ++barrier_generation_;
    progress_.fetch_add(1, std::memory_order_relaxed);
    barrier_cv_.notify_all();
    return;
  }
  set_phase(self, Phase::kBlockedBarrier, -1, 0, generation);
  while (barrier_generation_ == generation) {
    if (deadlock_flag_.load()) throw_deadlock();
    barrier_cv_.wait(lock);
  }
  set_phase(self, Phase::kRunning);
}

// --------------------------------------------------------------------------
// Communicator

void Communicator::tick() {
  const std::int64_t fail_at = world_.fail_at_op_[static_cast<std::size_t>(rank_)];
  const std::uint64_t op = op_count_++;
  if (fail_at >= 0 && static_cast<std::int64_t>(op) == fail_at) {
    throw RankFailure(rank_, op);
  }
}

void Communicator::barrier() {
  tick();
  world_.barrier_wait(rank_);
}

double Communicator::allreduce_scalar(double value, ReduceOp op) {
  allreduce(std::span<double>(&value, 1), op);
  return value;
}

std::int64_t Communicator::allreduce_scalar(std::int64_t value, ReduceOp op) {
  allreduce(std::span<std::int64_t>(&value, 1), op);
  return value;
}

}  // namespace crkhacc::comm
