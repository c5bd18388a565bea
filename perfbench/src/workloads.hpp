// The benchmark's workloads. Each one generates its inputs from a seed
// (timed as set-up) and then runs a fixed set of units; a unit is one
// closed-loop request into the library's public API, timed from outside
// the library. Workload parameters replicate registry scenarios (camp05,
// camp02, camp06, fig07); see perfbench/README.md for why each exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/checks.hpp"
#include "perfbench/src/spans.hpp"
#include "src/store/result_store.hpp"

namespace perfbench {

/// Where a unit's spans go: the log, the causing span and the unit id.
struct unit_context {
    span_log* log = nullptr;
    int parent = -1;
    int unit = -1;
};

/// What one unit produced.
struct unit_result {
    double busy_s = 0.0;  ///< host time of the unit's public calls
    std::uint64_t fingerprint = 0;
    std::vector<std::string> failures;  ///< broken checks; empty = passed
    mac_counts mac;
    std::uint64_t sojourn_samples = 0;
    std::uint64_t store_bytes = 0;
};

/// Input-derived sizes of the generated topologies.
struct topology_stats {
    std::uint64_t nodes = 0;
    std::uint64_t audible_links = 0;
};

class workload {
public:
    virtual ~workload() = default;

    /// Generates every input from `seed`; recording spans under `parent`.
    /// Calling it again with the same seed regenerates the same inputs.
    virtual void setup(std::uint64_t seed, span_log* log, int parent) = 0;

    virtual std::size_t units() const = 0;

    /// Runs unit `i`. `threads` > 1 is passed only to workloads whose
    /// parallelism sits inside a unit (threads_inside_unit()).
    virtual unit_result run_unit(std::size_t i, int threads,
                                 const unit_context& ctx) = 0;

    /// True when the 2-thread pass parallelizes inside each unit
    /// (mc_options::threads) instead of across units (run_replications).
    virtual bool threads_inside_unit() const { return false; }

    virtual topology_stats topology() const { return {}; }

    /// Counters of the workload's result store, when it has one.
    virtual std::optional<csense::store::store_stats> store_counters()
        const {
        return std::nullopt;
    }

    /// Fingerprint of the generated inputs.
    virtual std::uint64_t input_fingerprint() const = 0;
};

/// Names of every workload, in BENCHMARK.json order.
std::vector<std::string> workload_names();

/// The named workload, or nullptr for an unknown name. `store_dir` is
/// the directory a workload that persists records may create.
std::unique_ptr<workload> make_workload(std::string_view name,
                                        const std::string& store_dir);

}  // namespace perfbench
