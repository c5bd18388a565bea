// The benchmark's pass runner and metric derivation, shared by the
// benchmark program (main.cpp) and the self-tests.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/checks.hpp"
#include "perfbench/src/spans.hpp"
#include "perfbench/src/workloads.hpp"

namespace perfbench {

/// One pass over the unit set.
struct pass_record {
    std::string kind;  ///< "pass.1t", "pass.1t.untraced" or "pass.2t"
    double work_s = 0.0;
    std::vector<double> unit_s;
    mac_counts mac;
    std::uint64_t sojourn_samples = 0;
    std::uint64_t store_bytes = 0;
    csense::store::store_stats store;  ///< counter deltas over the pass
};

/// Runs passes over a workload's units and counts attempted and failed
/// units. A unit fails when a check breaks or when its fingerprint
/// differs from the one it gave in the first pass.
class runner {
public:
    runner(workload& w, span_log& log) : w_(w), log_(log) {}

    /// Runs every unit once at `threads`: serially (or with the threads
    /// inside each unit, for workloads that parallelize there), else
    /// through sim::run_replications.
    pass_record run_pass(const std::string& kind, int threads, bool traced);

    std::uint64_t attempted() const noexcept { return attempted_; }
    std::uint64_t failed() const noexcept { return failed_; }
    const std::set<std::string>& failures() const noexcept {
        return failures_;
    }

private:
    workload& w_;
    span_log& log_;
    std::vector<std::optional<std::uint64_t>> reference_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::set<std::string> failures_;
};

/// Named metrics with units, emitted as the result line's "metrics".
class metric_list {
public:
    void add(std::string name, double value, std::string unit);
    std::vector<std::string> names() const;
    std::string json() const;

private:
    struct item {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<item> items_;
};

/// Work times of every pass of `kind`.
std::vector<double> work_of(const std::vector<pass_record>& passes,
                            const std::string& kind);

/// Per-unit host times of every "pass.1t" pass, in milliseconds.
std::vector<double> unit_ms(const std::vector<pass_record>& passes);

/// End-to-end metrics of an untraced run.
void end_to_end_metrics(const std::vector<double>& setup_s,
                        const std::vector<pass_record>& passes,
                        double peak_rss_mb, metric_list& m);

/// Per-layer metrics of a traced run, from its spans and passes.
void layer_metrics(const workload& w, const std::vector<span>& spans,
                   const std::vector<pass_record>& passes, metric_list& m);

}  // namespace perfbench
