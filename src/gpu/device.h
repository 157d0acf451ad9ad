// Device model: vendor specs, FLOP accounting, host peak calibration.
//
// The paper measures FP32 operations with vendor profilers (rocprof, ncu,
// GTPin) and reports device utilization = measured / theoretical peak
// (Table I, Fig. 6). Our substitute: kernels carry analytic FLOP counts
// (FMA = 2 ops, transcendental = 1, matching Section V-B), the launch
// drivers accumulate them into a FlopRegistry, and utilization is the
// achieved FLOP rate against a calibrated peak for this host — by default
// the measured FMA peak of one core, playing the role of the GPU's
// theoretical peak.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace crkhacc::gpu {

/// Table I of the paper plus the lane width each vendor's "warp" has.
struct DeviceSpec {
  std::string name;
  double peak_fp32_tflops;
  int warp_size;
};

/// The three devices of Table I (MI250X per GCD, PVC per tile, H100).
const std::vector<DeviceSpec>& known_devices();

/// The vector tile engine's backend, chosen at configure time (gpu/simd.h).
/// `available` is false (isa "none", width 0: scalar tiles only) when the
/// build disabled SIMD or the configure probe found no AVX2.
struct SimdSupport {
  bool available;
  const char* isa;  ///< "avx2" or "none"
  int width;        ///< vector lanes per op (8 for AVX2, else 0)
};

/// The host's compiled-in SIMD backend (static; never changes at run
/// time).
const SimdSupport& simd_support();

/// Measured FMA throughput of this host in GFLOP/s (cached after the
/// first call). Plays the role of the hardware peak in utilization
/// figures.
double host_peak_gflops();

/// Accumulates analytic FLOP counts per kernel name.
///
/// Like TimerRegistry, add() is unsynchronized: launches record their
/// totals on the calling thread after the parallel region completes, so
/// worker threads never mutate a registry.
class FlopRegistry {
 public:
  void add(const std::string& kernel, double flops, double seconds);

  double total_flops() const;
  double total_seconds() const;
  double flops_of(const std::string& kernel) const;

  /// Sustained rate over everything recorded [GFLOP/s].
  double sustained_gflops() const;

  /// Highest per-kernel rate recorded in a single launch [GFLOP/s] — the
  /// "peak" measurement of Section V-B (profiling the hottest kernel).
  double peak_gflops() const { return peak_gflops_; }
  const std::string& peak_kernel() const { return peak_kernel_; }

  /// (kernel, flops, seconds) sorted by descending flops.
  std::vector<std::tuple<std::string, double, double>> sorted() const;

  void merge(const FlopRegistry& other);
  void clear();

 private:
  struct Entry {
    double flops = 0.0;
    double seconds = 0.0;
  };
  std::map<std::string, Entry> entries_;
  double peak_gflops_ = 0.0;
  std::string peak_kernel_;
};

}  // namespace crkhacc::gpu
