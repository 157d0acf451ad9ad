// Parameter-file configuration (production-code style).
//
// Flagship runs are driven by parameter files, not recompiles. This is a
// minimal "key = value" reader (# comments, blank lines, whitespace
// tolerant) with typed accessors and a mapper onto SimConfig covering the
// knobs a campaign would tune. Unknown keys are reported so typos fail
// loudly instead of silently running the wrong universe.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"

namespace crkhacc::core {

struct ServiceConfig;

class ParamFile {
 public:
  /// Parse "key = value" text; returns nullopt on malformed lines
  /// (reported via log).
  static std::optional<ParamFile> parse(const std::string& text);

  /// Read and parse a file; nullopt if unreadable or malformed.
  static std::optional<ParamFile> load(const std::string& path);

  bool has(const std::string& key) const;
  std::optional<std::string> get_string(const std::string& key) const;
  std::optional<double> get_double(const std::string& key) const;
  std::optional<long> get_int(const std::string& key) const;
  std::optional<bool> get_bool(const std::string& key) const;  ///< true/false/1/0/yes/no

  /// All keys present in the file.
  std::vector<std::string> keys() const;

  /// Apply recognized keys onto `config`; returns the list of keys that
  /// were not recognized OR whose values were rejected (empty = clean).
  /// Rejected values (e.g. warp_size < 2, an unknown launch_mode) leave
  /// the config's previous value in place and log an error.
  /// Keys with the `service_` prefix belong to ScenarioService (see the
  /// ServiceConfig overload) and are skipped silently, so one param file
  /// can drive both the farm and the simulations it runs.
  std::vector<std::string> apply(SimConfig& config) const;

  /// Apply the `service_*` keys onto a farm config: service_threads,
  /// service_slice_steps, service_policy (round_robin | deficit),
  /// service_checkpoint_window, service_workdir. Non-service keys are
  /// skipped silently (they are the SimConfig overload's business);
  /// returns the service_* keys that were unrecognized or rejected.
  std::vector<std::string> apply(ServiceConfig& config) const;

  /// Distinct unknown keys the warn-once path has reported so far in this
  /// process, across every ParamFile instance. The warning itself fires
  /// exactly once per key per process no matter how many ranks call
  /// apply() concurrently; tests assert on this counter.
  static std::size_t unknown_keys_warned();

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace crkhacc::core
