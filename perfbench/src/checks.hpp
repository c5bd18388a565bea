// Output checks for benchmark units, and the small statistics the
// benchmark reports. A unit whose outputs break any check counts as a
// failed operation against the units attempted.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/threshold.hpp"
#include "src/mac/multi_pair.hpp"

namespace perfbench {

/// Exact work counts of one or more packet-level runs. A change that
/// only makes the simulator faster must leave every field identical.
struct mac_counts {
    std::uint64_t runs = 0;
    std::uint64_t transmissions = 0;
    std::uint64_t slot_collisions = 0;
    std::uint64_t chain_collisions = 0;
    std::uint64_t busy_starts = 0;
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;  ///< frames decoded at designated receivers
    std::uint64_t completed = 0;  ///< sender-side completions (sojourn samples)
    std::uint64_t queue_drops = 0;
    std::uint64_t retry_drops = 0;
    double fanout = 0.0;  ///< transmissions x mean audible degree

    void add(const mac_counts& other);
};

/// The values of one packet-level run that the checks read.
struct run_summary {
    std::vector<double> per_pair_pps;
    double total_pps = 0.0;
    double jain = 0.0;
    double sojourn_p50_us = 0.0;
    double sojourn_p99_us = 0.0;
    mac_counts counts;
};

/// Summary of one run of `duration_us` simulated microseconds.
run_summary summarize(const csense::mac::multi_pair_result& run,
                      double duration_us);

/// Names of the invariants `run` breaks (empty when it passes):
///  - per-pair rates sum to total_pps, every rate >= 0, Jain in [0, 1];
///  - collisions and busy starts <= transmissions, delivered <= transmissions;
///  - completed + queue drops + retry drops <= offered;
///  - sojourn p50 <= p99;
///  - at least one transmission.
std::vector<std::string> check_mac_run(const run_summary& run);

/// Everything one analytic unit computed, plus the untimed reference
/// values its check needs.
struct analytic_outcome {
    double rmax = 0.0;
    double d_eval = 0.0;  ///< separation at which <C_cs> was evaluated
    csense::core::threshold_result threshold;
    double cs = 0.0;              ///< <C_cs>(rmax, d_eval, d_thresh)
    double mux = 0.0;             ///< <C_mux>(rmax)
    double conc_at_thresh = 0.0;  ///< <C_conc>(rmax, d_thresh)
    double conc_at_eval = 0.0;    ///< <C_conc>(rmax, d_eval)
};

/// Relative crossing residual |<C_conc> - <C_mux>| / <C_mux> the
/// analytic check accepts at the returned threshold.
inline constexpr double crossing_tolerance = 1e-6;

/// Names of the invariants an analytic unit breaks: when a threshold is
/// found, <C_conc> must meet <C_mux> at it; <C_cs> is a mixture of
/// <C_mux> and <C_conc>, so it must lie between them.
std::vector<std::string> check_analytic(const analytic_outcome& outcome);

/// Names of the invariants a store round trip breaks: the loaded
/// payload must equal the one put.
std::vector<std::string> check_roundtrip(
    std::string_view put, const std::optional<std::string>& loaded);

/// FNV-1a over the raw bytes of a sequence of values; the fingerprint
/// that must match between passes and thread counts.
class fingerprint {
public:
    void add(double x) noexcept;
    void add(std::uint64_t x) noexcept;
    void add(const mac_counts& counts) noexcept;
    void add(const csense::mac::multi_pair_result& run) noexcept;
    std::uint64_t value() const noexcept { return hash_; }

private:
    void bytes(const void* data, std::size_t size) noexcept;
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Nearest-rank quantile q in (0, 1) of `values`, reported only when at
/// least `min_beyond` samples lie strictly above it.
std::optional<double> tail_quantile(std::vector<double> values, double q,
                                    std::size_t min_beyond = 10);

}  // namespace perfbench
