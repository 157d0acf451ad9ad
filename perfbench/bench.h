// Shared pieces of the repository benchmark program (hacc_bench).
//
// hacc_bench measures the program from outside: it times its own calls
// into each module's public functions and reads the counters those
// functions return. Nothing here reaches into private state.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "comm/world.h"
#include "core/diagnostics.h"
#include "core/particles.h"

namespace crkhacc::core {
class Simulation;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;  ///< span dump written at exit (trace runs)
  std::string workdir;     ///< scratch root for checkpoint tiers
};

/// In-memory span log. Spans are kept in memory and written out once,
/// at exit. A span's parent is the innermost span open on the same
/// thread; a rank thread adopts its launcher's span through Adopt.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the log's origin
    double end = -1.0;   ///< < start while open
    std::int64_t parent = -1;
    int tid = 0;         ///< 0 = driver thread, r + 1 = rank r
    std::string run;     ///< run id shared by every span of one repetition
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Tracing is switched per repetition, between World runs.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  std::int64_t open(const std::string& name, int tid, const std::string& run);
  void close(std::int64_t id);
  /// Record an already finished interval under `parent`.
  std::int64_t add(const std::string& name, double start, double end,
                   std::int64_t parent, int tid, const std::string& run);

  std::vector<Span> spans() const;

  /// Write the spans as Chrome trace_event JSON (ids and parents in args).
  bool write_json(const std::string& path) const;

  /// RAII span; a disabled log makes it a no-op.
  class Scoped {
   public:
    Scoped(SpanLog& log, const std::string& name, int tid,
           const std::string& run)
        : log_(log), id_(log.enabled() ? log.open(name, tid, run) : -1) {}
    ~Scoped() { close(); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    void close() {
      if (id_ >= 0) log_.close(id_);
      id_ = -1;
    }
    std::int64_t id() const { return id_; }

   private:
    SpanLog& log_;
    std::int64_t id_;
  };

  /// Makes `parent` the enclosing span of everything opened on the
  /// calling thread while this object lives (rank threads of a World).
  class Adopt {
   public:
    explicit Adopt(std::int64_t parent);
    ~Adopt();
    Adopt(const Adopt&) = delete;
    Adopt& operator=(const Adopt&) = delete;
  };

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Seconds of `span` not covered by its children (union of intervals).
std::vector<double> self_times(const std::vector<SpanLog::Span>& spans);

/// Per-layer samples. A sample belongs to a probe point `seq` (the same
/// on every rank for one step boundary); values of one point are reduced
/// across ranks, then the metric is the median over points.
class LayerStats {
 public:
  enum class Reduce { kMax, kSum, kMean };
  void add(const std::string& name, std::int64_t seq, double value,
           Reduce how = Reduce::kMax);
  /// 0 when the metric was never sampled (the layer did not run).
  double median(const std::string& name) const;
  /// The per-point values (reduced across ranks), in point order.
  std::vector<double> values(const std::string& name) const;

 private:
  struct Series {
    Reduce how = Reduce::kMax;
    std::map<std::int64_t, std::vector<double>> points;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Series> series_;
};

double median(std::vector<double> values);

/// Value at the highest percentile that still has >= 10 samples beyond
/// it (the maximum when there are 10 samples or fewer), and that
/// percentile in percent.
std::pair<double, double> tail(std::vector<double> values);

/// Outcome of one workload repetition.
struct Rep {
  double setup_s = 0.0;
  double evolve_s = 0.0;
  double wall_s = 0.0;            ///< setup + evolve (farm: the drain)
  double first_result_s = 0.0;
  double scenarios = 0.0;         ///< completed scenarios
  double probe_s = 0.0;           ///< probe time inside evolve (traced)
  double peak_heap_mb = 0.0;      ///< peak operator-new bytes held during it
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;  ///< names of failed checks
};

/// Conservation tolerances of one workload.
struct StateCheck {
  double mass_tol = 0.0;      ///< |relative mass drift|
  double momentum_tol = 0.0;  ///< |sum m v change| / sum m |v|
};

/// Appends the name of every conservation gate the pair of snapshots
/// (taken with core::measure_conservation) fails: particle count, mass
/// drift, momentum drift.
void check_conservation(const std::string& what,
                        const crkhacc::core::ConservationSnapshot& before,
                        const crkhacc::core::ConservationSnapshot& after,
                        const StateCheck& tol,
                        std::vector<std::string>& failures);

/// Owned particle state of every rank, collected after a World run.
class StateGather {
 public:
  void add_owned(const crkhacc::Particles& particles);
  /// The gathered state sorted by particle id.
  crkhacc::Particles sorted() const;
  /// True when every gathered field is finite.
  bool finite() const;

 private:
  mutable std::mutex mutex_;
  crkhacc::Particles all_;
};

/// FNV-1a digest of a particle state sorted by id (id, position,
/// velocity, mass, internal energy, species).
std::uint64_t digest_sorted(const crkhacc::Particles& sorted,
                            std::uint64_t basis = 14695981039346656037ull);

/// The lower layers a workload's own program path runs; the probe
/// replays exactly those (exchange, tree, launch plan, PM/FFT, gravity
/// and the integrator always run).
struct ProbeLayers {
  bool hydro = false;     ///< gas tree + SPH forces
  bool subgrid = false;   ///< cooling / star formation / feedback
  bool ics = false;       ///< cosmology ICs, replayed from the config
  bool analysis = false;  ///< FOF, SO, galaxies, power spectrum
  bool io = false;        ///< checkpoint write, bleed and restore
};

struct ProbeContext {
  SpanLog& log;
  LayerStats& layers;
  std::string run;     ///< run id of the enclosing repetition
  std::string io_dir;  ///< root for the io probe's checkpoint tiers
};

/// Replays each lower layer's public entry point on a copy of the live
/// state of `sim` at a step boundary and records a span plus a sample
/// per layer under probe point `seq`. Collective: every rank of the
/// World calls it at the same boundary with the same `seq`. Returns this
/// rank's probe wall seconds.
double probe_layers(crkhacc::core::Simulation& sim,
                    crkhacc::comm::Communicator& comm,
                    const ProbeLayers& which, const ProbeContext& ctx,
                    std::int64_t seq, std::vector<std::string>& failures);

/// What a workload repetition runs with.
struct Env {
  const Options& opt;
  SpanLog& log;
  LayerStats& layers;
};

struct RepSpec {
  int index = 0;     ///< repetition ordinal; probe points derive from it
  bool traced = false;
  int threads = 0;   ///< pool width; 0 = the workload's own
};

/// One repetition of each workload (see workloads.cpp).
Rep hydro_box(const Env& env, const RepSpec& spec);
Rep clustered_lb(const Env& env, const RepSpec& spec);
Rep farm_sweep(const Env& env, const RepSpec& spec);

/// Peak bytes held through operator new, MB, since the last
/// reset_peak_heap() (heap.cpp).
double peak_heap_mb();
void reset_peak_heap();

/// SplitMix64 finalizer: derives independent seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
