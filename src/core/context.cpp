#include "core/context.h"

#include <bit>
#include <sstream>

#include "fft/fft.h"

namespace crkhacc::core {
namespace {

/// Bit-exact field serialization: two doubles that differ in the last
/// ULP must key different assets, and -0.0 must not alias +0.0 — decimal
/// formatting guarantees neither, so fields key by their raw bits.
void put(std::ostringstream& out, double v) {
  out << std::hex << std::bit_cast<std::uint64_t>(v) << ';';
}
void put(std::ostringstream& out, float v) {
  out << std::hex << std::bit_cast<std::uint32_t>(v) << ';';
}
void put(std::ostringstream& out, std::uint64_t v) { out << v << ';'; }
void put(std::ostringstream& out, int v) { out << v << ';'; }
void put(std::ostringstream& out, bool v) { out << (v ? 1 : 0) << ';'; }

std::string cooling_key(const subgrid::CoolingConfig& config) {
  std::ostringstream out;
  put(out, config.h);
  put(out, config.x_hydrogen);
  put(out, config.t_floor_K);
  put(out, config.z_reion);
  put(out, config.enabled);
  return out.str();
}

}  // namespace

SimContext::SimContext(int threads)
    : pool_(threads < 0 ? 1u : static_cast<unsigned>(threads)) {}

std::shared_ptr<const subgrid::CoolingTable> SimContext::cooling_table(
    const subgrid::CoolingConfig& config) {
  const std::string key = cooling_key(config);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cooling_tables_.find(key);
    if (it != cooling_tables_.end()) {
      ++cooling_hits_;
      return it->second;
    }
  }
  // Build outside the lock: table construction is the expensive part and
  // must not serialize unrelated lookups.
  auto table = std::make_shared<const subgrid::CoolingTable>(config);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = cooling_tables_.emplace(key, std::move(table));
  if (inserted) {
    ++cooling_misses_;
  } else {
    ++cooling_hits_;
  }
  return it->second;
}

std::shared_ptr<const CachedInitialState> SimContext::find_initial_state(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = initial_states_.find(key);
  if (it != initial_states_.end()) {
    ++initial_state_hits_;
    return it->second;
  }
  ++initial_state_misses_;
  return nullptr;
}

void SimContext::store_initial_state(const std::string& key,
                                     CachedInitialState state) {
  auto shared = std::make_shared<const CachedInitialState>(std::move(state));
  std::lock_guard<std::mutex> lock(mutex_);
  initial_states_.emplace(key, std::move(shared));
}

std::string SimContext::initial_state_key(const SimConfig& config, int rank,
                                          int size) {
  std::ostringstream out;
  // Domain: the z-slab decomposition and per-rank IC emission depend on
  // both the rank and the rank count.
  put(out, rank);
  put(out, size);
  // IC generation.
  put(out, static_cast<std::uint64_t>(config.np));
  put(out, config.box);
  put(out, config.z_init);
  put(out, config.seed);
  put(out, config.hydro);
  put(out, config.t_init_K);
  put(out, config.cosmology.omega_m);
  put(out, config.cosmology.omega_b);
  put(out, config.cosmology.omega_l);
  put(out, config.cosmology.h);
  put(out, config.cosmology.n_s);
  put(out, config.cosmology.sigma8);
  put(out, config.cosmology.w0);
  put(out, config.cosmology.t_cmb);
  // Force split: sets the chaining-mesh bin width, the overload width,
  // and the smoothing-length cap applied before the exchange.
  put(out, static_cast<std::uint64_t>(config.ng));
  put(out, config.rs_cells);
  put(out, config.split_threshold);
  // SPH priming (one force pass + smoothing-length update).
  put(out, static_cast<int>(config.sph.kernel));
  put(out, config.sph.eta);
  put(out, config.sph.cfl);
  put(out, config.sph.h_change_limit);
  put(out, config.sph.h_max);
  put(out, config.sph.viscosity.alpha);
  put(out, config.sph.viscosity.beta);
  put(out, config.sph.viscosity.eps);
  put(out, config.sph.use_crk);
  // Launch policy: kFused SIMD math is ULP-bounded, not bitwise, so the
  // policy is part of the state's identity.
  put(out, static_cast<std::uint64_t>(config.sph.launch.warp_size));
  put(out, static_cast<int>(config.sph.launch.mode));
  put(out, static_cast<int>(config.sph.launch.simd_math));
  return out.str();
}

SimContext::AssetStats SimContext::asset_stats() const {
  AssetStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.cooling_hits = cooling_hits_;
    stats.cooling_misses = cooling_misses_;
    stats.initial_state_hits = initial_state_hits_;
    stats.initial_state_misses = initial_state_misses_;
  }
  const fft::PlanCacheStats fft = fft::plan_cache_stats();
  stats.fft_plan_hits = fft.hits;
  stats.fft_plan_misses = fft.misses;
  return stats;
}

}  // namespace crkhacc::core
