#include "core/param_file.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>

#include "core/service.h"
#include "util/log.h"

namespace crkhacc::core {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool has_service_prefix(const std::string& key) {
  return key.rfind("service_", 0) == 0;
}

// Process-wide warn-once state for unknown keys: apply() runs on every
// rank (and, under ScenarioService, for every job overlay), so a typo'd
// knob is reported exactly once per process, not once per caller. File
// scope (not function-local) so unknown_keys_warned() can read it.
std::mutex g_warned_mutex;
std::set<std::string>& warned_keys() {
  static std::set<std::string> keys;
  return keys;
}

/// Warn (once per process) and record `key` as unknown.
void warn_unknown_key(const std::string& key) {
  std::lock_guard<std::mutex> lock(g_warned_mutex);
  if (warned_keys().insert(key).second) {
    HACC_LOG_WARN("param file: unknown key '%s' ignored (defaults used)",
                  key.c_str());
  }
}

}  // namespace

std::optional<ParamFile> ParamFile::parse(const std::string& text) {
  ParamFile file;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    const auto comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    const auto trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      HACC_LOG_ERROR("param file: line %d has no '=': %s", line_number,
                     trimmed.c_str());
      return std::nullopt;
    }
    const auto key = trim(trimmed.substr(0, eq));
    const auto value = trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      HACC_LOG_ERROR("param file: empty key on line %d", line_number);
      return std::nullopt;
    }
    file.values_[key] = value;
  }
  return file;
}

std::optional<ParamFile> ParamFile::load(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) return std::nullopt;
  std::stringstream buffer;
  buffer << stream.rdbuf();
  return parse(buffer.str());
}

bool ParamFile::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::optional<std::string> ParamFile::get_string(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> ParamFile::get_double(const std::string& key) const {
  const auto raw = get_string(key);
  if (!raw) return std::nullopt;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(*raw, &consumed);
    if (consumed != raw->size()) return std::nullopt;
    return value;
  } catch (...) {
    return std::nullopt;
  }
}

std::optional<long> ParamFile::get_int(const std::string& key) const {
  const auto raw = get_string(key);
  if (!raw) return std::nullopt;
  try {
    std::size_t consumed = 0;
    const long value = std::stol(*raw, &consumed);
    if (consumed != raw->size()) return std::nullopt;
    return value;
  } catch (...) {
    return std::nullopt;
  }
}

std::optional<bool> ParamFile::get_bool(const std::string& key) const {
  const auto raw = get_string(key);
  if (!raw) return std::nullopt;
  const auto v = lower(*raw);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return std::nullopt;
}

std::vector<std::string> ParamFile::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

std::vector<std::string> ParamFile::apply(SimConfig& config) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (has_service_prefix(key)) continue;  // ServiceConfig overload's business
    bool ok = true;
    // Recognized key whose value was rejected (specific error already
    // logged) — reported to the caller without the unknown-key warning.
    bool rejected = false;
    if (key == "np") {
      if (auto v = get_int(key)) config.np = static_cast<std::size_t>(*v);
    } else if (key == "box") {
      if (auto v = get_double(key)) config.box = *v;
    } else if (key == "ng") {
      if (auto v = get_int(key)) config.ng = static_cast<std::size_t>(*v);
    } else if (key == "z_init") {
      if (auto v = get_double(key)) config.z_init = *v;
    } else if (key == "z_final") {
      if (auto v = get_double(key)) config.z_final = *v;
    } else if (key == "num_pm_steps") {
      if (auto v = get_int(key)) config.num_pm_steps = static_cast<int>(*v);
    } else if (key == "rs_cells") {
      if (auto v = get_double(key)) config.rs_cells = *v;
    } else if (key == "split_threshold") {
      if (auto v = get_double(key)) config.split_threshold = *v;
    } else if (key == "hydro") {
      if (auto v = get_bool(key)) config.hydro = *v;
    } else if (key == "subgrid") {
      if (auto v = get_bool(key)) config.subgrid_on = *v;
    } else if (key == "flat_stepping") {
      if (auto v = get_bool(key)) config.flat_stepping = *v;
    } else if (key == "max_depth") {
      if (auto v = get_int(key)) config.bins.max_depth = static_cast<int>(*v);
    } else if (key == "analysis_every") {
      if (auto v = get_int(key)) config.analysis_every = static_cast<int>(*v);
    } else if (key == "seed") {
      if (auto v = get_int(key)) config.seed = static_cast<std::uint64_t>(*v);
    } else if (key == "softening") {
      if (auto v = get_double(key)) config.softening = *v;
    } else if (key == "omega_m") {
      if (auto v = get_double(key)) config.cosmology.omega_m = *v;
    } else if (key == "omega_b") {
      if (auto v = get_double(key)) config.cosmology.omega_b = *v;
    } else if (key == "omega_l") {
      if (auto v = get_double(key)) config.cosmology.omega_l = *v;
    } else if (key == "hubble") {
      if (auto v = get_double(key)) config.cosmology.h = *v;
    } else if (key == "sigma8") {
      if (auto v = get_double(key)) config.cosmology.sigma8 = *v;
    } else if (key == "n_s") {
      if (auto v = get_double(key)) config.cosmology.n_s = *v;
    } else if (key == "sph_eta") {
      if (auto v = get_double(key)) config.sph.eta = static_cast<float>(*v);
    } else if (key == "sph_cfl") {
      if (auto v = get_double(key)) config.sph.cfl = static_cast<float>(*v);
    } else if (key == "sph_kernel") {
      const auto v = lower(get_string(key).value_or(""));
      if (v == "wendland" || v == "wendland_c4") {
        config.sph.kernel = sph::KernelShape::kWendlandC4;
      } else if (v == "cubic" || v == "cubic_spline") {
        config.sph.kernel = sph::KernelShape::kCubicSpline;
      } else {
        ok = false;
      }
    } else if (key == "warp_size") {
      const auto v = get_int(key);
      if (v && *v >= 2) {
        config.sph.launch.warp_size = static_cast<std::uint32_t>(*v);
        config.gravity.launch.warp_size = static_cast<std::uint32_t>(*v);
      } else {
        // A half-warp of warp_size / 2 == 0 lanes would hang the
        // warp-split tile loop; refuse it here rather than at launch.
        HACC_LOG_ERROR(
            "param file: warp_size = '%s' rejected: warp_size must be an "
            "integer >= 2 (the warp-split half-warp is warp_size / 2)",
            get_string(key).value_or("").c_str());
        rejected = true;
      }
    } else if (key == "launch_mode") {
      const auto v = lower(get_string(key).value_or(""));
      if (v == "warp_split" || v == "warpsplit") {
        config.sph.launch.mode = gpu::LaunchMode::kWarpSplit;
        config.gravity.launch.mode = gpu::LaunchMode::kWarpSplit;
      } else if (v == "naive") {
        config.sph.launch.mode = gpu::LaunchMode::kNaive;
        config.gravity.launch.mode = gpu::LaunchMode::kNaive;
      } else {
        HACC_LOG_ERROR(
            "param file: launch_mode = '%s' rejected: expected "
            "'warp_split' or 'naive'",
            v.c_str());
        rejected = true;
      }
    } else if (key == "simd_math") {
      const auto v = lower(get_string(key).value_or(""));
      if (v == "exact" || v == "bitwise") {
        config.sph.launch.simd_math = gpu::SimdMath::kExact;
        config.gravity.launch.simd_math = gpu::SimdMath::kExact;
      } else if (v == "fused" || v == "fma") {
        config.sph.launch.simd_math = gpu::SimdMath::kFused;
        config.gravity.launch.simd_math = gpu::SimdMath::kFused;
      } else {
        HACC_LOG_ERROR(
            "param file: simd_math = '%s' rejected: expected 'exact' "
            "(bitwise scalar parity) or 'fused' (FMA, ULP-bounded)",
            v.c_str());
        rejected = true;
      }
    } else if (key == "rank_loss_policy") {
      const auto v = lower(get_string(key).value_or(""));
      if (v == "fatal") {
        config.rank_loss_policy = RankLossPolicy::kFatal;
      } else if (v == "shrink") {
        config.rank_loss_policy = RankLossPolicy::kShrink;
      } else {
        HACC_LOG_ERROR(
            "param file: rank_loss_policy = '%s' rejected: expected "
            "'fatal' (rank loss ends the campaign) or 'shrink' "
            "(relaunch on the survivors)",
            v.c_str());
        rejected = true;
      }
    } else if (key == "threads") {
      if (auto v = get_int(key)) config.threads = static_cast<int>(*v);
    } else if (key == "trace") {
      if (auto v = get_bool(key)) config.trace.enabled = *v;
    } else if (key == "trace_buffer_events") {
      const auto v = get_int(key);
      if (v && *v >= 1) {
        config.trace.buffer_events = static_cast<std::size_t>(*v);
      } else {
        HACC_LOG_ERROR(
            "param file: trace_buffer_events = '%s' rejected: must be an "
            "integer >= 1 (per-thread ring capacity in events)",
            get_string(key).value_or("").c_str());
        rejected = true;
      }
    } else if (key == "sdc") {
      if (auto v = get_bool(key)) config.sdc.enabled = *v;
    } else if (key == "sdc_page_bytes") {
      if (auto v = get_int(key)) {
        config.sdc.page_bytes = static_cast<std::size_t>(*v);
      }
    } else if (key == "sdc_max_replays") {
      if (auto v = get_int(key)) config.sdc.max_replays = static_cast<int>(*v);
    } else if (key == "sdc_mass_drift_tol") {
      if (auto v = get_double(key)) config.sdc.mass_drift_tol = *v;
    } else if (key == "sdc_energy_growth") {
      if (auto v = get_double(key)) config.sdc.energy_growth_factor = *v;
    } else if (key == "sdc_momentum_drift_tol") {
      if (auto v = get_double(key)) config.sdc.momentum_drift_tol = *v;
    } else if (key == "sdc_max_velocity") {
      if (auto v = get_double(key)) config.sdc.max_velocity = *v;
    } else if (key == "sdc_max_u") {
      if (auto v = get_double(key)) config.sdc.max_internal_energy = *v;
    } else if (key == "sdc_occupancy_factor") {
      if (auto v = get_double(key)) config.sdc.occupancy_factor = *v;
    } else if (key == "ckpt_diff") {
      if (auto v = get_bool(key)) config.ckpt.diff = *v;
    } else if (key == "ckpt_diff_max_chain") {
      const auto v = get_int(key);
      if (v && *v >= 0) {
        config.ckpt.diff_max_chain = static_cast<int>(*v);
      } else {
        HACC_LOG_ERROR(
            "param file: ckpt_diff_max_chain = '%s' rejected: must be an "
            "integer >= 0 (diffs allowed between forced fulls)",
            get_string(key).value_or("").c_str());
        rejected = true;
      }
    } else if (key == "ckpt_chunk_bytes") {
      const auto v = get_int(key);
      if (v && *v >= 1024) {
        config.ckpt.chunk_bytes = static_cast<std::size_t>(*v);
      } else {
        HACC_LOG_ERROR(
            "param file: ckpt_chunk_bytes = '%s' rejected: must be an "
            "integer >= 1024 (column chunk size in bytes)",
            get_string(key).value_or("").c_str());
        rejected = true;
      }
    } else if (key == "ckpt_redundant_local") {
      if (auto v = get_bool(key)) config.ckpt.redundant_local = *v;
    } else if (key == "ckpt_audit_on_restore") {
      if (auto v = get_bool(key)) config.ckpt.audit_on_restore = *v;
    } else if (key == "lb_threshold") {
      const auto v = get_double(key);
      if (v && (*v <= 0.0 || *v > 1.0)) {
        config.lb.threshold = *v;
      } else {
        HACC_LOG_ERROR(
            "param file: lb_threshold = '%s' rejected: must be <= 0 "
            "(balancer off) or > 1 (max/mean imbalance ratio that engages "
            "balancing)",
            get_string(key).value_or("").c_str());
        rejected = true;
      }
    } else if (key == "lb_hysteresis") {
      const auto v = get_double(key);
      if (v && *v >= 0.0 && *v <= 1.0) {
        config.lb.hysteresis = *v;
      } else {
        HACC_LOG_ERROR(
            "param file: lb_hysteresis = '%s' rejected: must be in [0, 1] "
            "(fraction of the threshold excess at which balancing re-arms)",
            get_string(key).value_or("").c_str());
        rejected = true;
      }
    } else if (key == "lb_max_fraction") {
      const auto v = get_double(key);
      if (v && *v > 0.0 && *v <= 1.0) {
        config.lb.max_fraction = *v;
      } else {
        HACC_LOG_ERROR(
            "param file: lb_max_fraction = '%s' rejected: must be in (0, 1] "
            "(cap on the donor cost fraction shipped per step)",
            get_string(key).value_or("").c_str());
        rejected = true;
      }
    } else {
      ok = false;
    }
    if (!ok) {
      // A typo'd knob silently running with its default is exactly the
      // failure mode the sdc_* gates exist to avoid — say so, loudly,
      // but only once per key per process (apply() runs on every rank).
      warn_unknown_key(key);
      unknown.push_back(key);
    } else if (rejected) {
      unknown.push_back(key);
    }
  }
  return unknown;
}

std::vector<std::string> ParamFile::apply(ServiceConfig& config) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!has_service_prefix(key)) continue;  // SimConfig overload's business
    bool ok = true;
    bool rejected = false;
    if (key == "service_threads") {
      const auto v = get_int(key);
      if (v && *v >= 0) {
        config.threads = static_cast<int>(*v);
      } else {
        HACC_LOG_ERROR(
            "param file: service_threads = '%s' rejected: must be an "
            "integer >= 0 (0 = hardware concurrency)",
            get_string(key).value_or("").c_str());
        rejected = true;
      }
    } else if (key == "service_slice_steps") {
      const auto v = get_int(key);
      if (v && *v >= 1) {
        config.slice_steps = static_cast<int>(*v);
      } else {
        HACC_LOG_ERROR(
            "param file: service_slice_steps = '%s' rejected: must be an "
            "integer >= 1 (PM steps per scheduling slice)",
            get_string(key).value_or("").c_str());
        rejected = true;
      }
    } else if (key == "service_policy") {
      const auto v = lower(get_string(key).value_or(""));
      if (v == "round_robin" || v == "roundrobin" || v == "rr") {
        config.policy = SchedulePolicy::kRoundRobin;
      } else if (v == "deficit" || v == "deficit_weighted" || v == "dwrr") {
        config.policy = SchedulePolicy::kDeficitWeighted;
      } else {
        HACC_LOG_ERROR(
            "param file: service_policy = '%s' rejected: expected "
            "'round_robin' (equal slices) or 'deficit' (priority-weighted "
            "slices)",
            v.c_str());
        rejected = true;
      }
    } else if (key == "service_checkpoint_window") {
      const auto v = get_int(key);
      if (v && *v >= 1) {
        config.checkpoint_window = static_cast<int>(*v);
      } else {
        HACC_LOG_ERROR(
            "param file: service_checkpoint_window = '%s' rejected: must "
            "be an integer >= 1 (checkpoints kept per job)",
            get_string(key).value_or("").c_str());
        rejected = true;
      }
    } else if (key == "service_workdir") {
      if (auto v = get_string(key)) config.workdir = *v;
    } else {
      ok = false;
    }
    if (!ok) {
      warn_unknown_key(key);
      unknown.push_back(key);
    } else if (rejected) {
      unknown.push_back(key);
    }
  }
  return unknown;
}

std::size_t ParamFile::unknown_keys_warned() {
  std::lock_guard<std::mutex> lock(g_warned_mutex);
  return warned_keys().size();
}

}  // namespace crkhacc::core
