#include "perfbench/src/checks.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

void mac_counts::add(const mac_counts& other) {
    runs += other.runs;
    transmissions += other.transmissions;
    slot_collisions += other.slot_collisions;
    chain_collisions += other.chain_collisions;
    busy_starts += other.busy_starts;
    offered += other.offered;
    delivered += other.delivered;
    completed += other.completed;
    queue_drops += other.queue_drops;
    retry_drops += other.retry_drops;
    fanout += other.fanout;
}

run_summary summarize(const csense::mac::multi_pair_result& run,
                      double duration_us) {
    run_summary out;
    out.per_pair_pps = run.per_pair_pps;
    out.total_pps = run.total_pps;
    out.jain = run.jain_index();
    out.sojourn_p50_us = run.sojourn_us.quantile(0.5);
    out.sojourn_p99_us = run.sojourn_us.quantile(0.99);
    mac_counts& c = out.counts;
    c.runs = 1;
    c.transmissions = run.counters.transmissions;
    c.slot_collisions = run.counters.slot_collisions;
    c.chain_collisions = run.counters.chain_collisions;
    c.busy_starts = run.counters.busy_starts;
    c.offered = run.offered_packets;
    // per_pair_pps is a decoded-frame count divided by the run length.
    const double seconds = duration_us / 1e6;
    for (const double pps : run.per_pair_pps) {
        c.delivered += static_cast<std::uint64_t>(std::llround(pps * seconds));
    }
    c.completed = run.sojourn_us.count();
    c.queue_drops = run.queue_drops;
    c.retry_drops = run.retry_drops;
    return out;
}

std::vector<std::string> check_mac_run(const run_summary& run) {
    std::vector<std::string> failed;
    const auto fail_if = [&failed](bool broken, const char* name) {
        if (broken) failed.emplace_back(name);
    };
    double sum = 0.0;
    bool negative = false;
    for (const double pps : run.per_pair_pps) {
        sum += pps;
        negative = negative || !(pps >= 0.0);
    }
    fail_if(!(std::fabs(sum - run.total_pps) <=
              1e-9 * std::max(1.0, std::fabs(run.total_pps))),
            "pps_sum");
    fail_if(negative || !(run.total_pps >= 0.0), "pps_negative");
    fail_if(!(run.jain >= 0.0 && run.jain <= 1.0), "jain_range");

    const mac_counts& c = run.counts;
    fail_if(c.transmissions == 0, "no_transmissions");
    fail_if(c.slot_collisions > c.transmissions, "slot_collisions_le_tx");
    fail_if(c.chain_collisions > c.transmissions, "chain_collisions_le_tx");
    fail_if(c.busy_starts > c.transmissions, "busy_starts_le_tx");
    fail_if(c.delivered > c.transmissions, "delivered_le_tx");
    if (c.offered > 0) {  // unsaturated sources: every arrival is accounted
        fail_if(c.completed + c.queue_drops + c.retry_drops > c.offered,
                "conservation");
    }
    fail_if(!(run.sojourn_p50_us <= run.sojourn_p99_us), "sojourn_order");
    return failed;
}

std::vector<std::string> check_analytic(const analytic_outcome& o) {
    std::vector<std::string> failed;
    if (o.threshold.found) {
        if (!(o.threshold.d_thresh > 0.0) ||
            !(std::fabs(o.conc_at_thresh - o.mux) <=
              crossing_tolerance * std::fabs(o.mux))) {
            failed.emplace_back("crossing_residual");
        }
    } else if (o.threshold.d_thresh != 0.0) {
        failed.emplace_back("not_found_nonzero");
    }
    const double lo = std::min(o.mux, o.conc_at_eval);
    const double hi = std::max(o.mux, o.conc_at_eval);
    const double slack = 1e-12 * std::max(1.0, hi);
    if (!(o.cs >= lo - slack && o.cs <= hi + slack)) {
        failed.emplace_back("cs_mixture");
    }
    return failed;
}

std::vector<std::string> check_roundtrip(
    std::string_view put, const std::optional<std::string>& loaded) {
    if (!loaded) return {"store_miss"};
    if (*loaded != put) return {"store_mismatch"};
    return {};
}

void fingerprint::bytes(const void* data, std::size_t size) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash_ ^= p[i];
        hash_ *= 0x100000001b3ULL;
    }
}

void fingerprint::add(double x) noexcept { bytes(&x, sizeof x); }

void fingerprint::add(std::uint64_t x) noexcept { bytes(&x, sizeof x); }

void fingerprint::add(const mac_counts& c) noexcept {
    for (const std::uint64_t x :
         {c.runs, c.transmissions, c.slot_collisions, c.chain_collisions,
          c.busy_starts, c.offered, c.delivered, c.completed, c.queue_drops,
          c.retry_drops}) {
        add(x);
    }
    add(c.fanout);
}

void fingerprint::add(const csense::mac::multi_pair_result& run) noexcept {
    for (const double pps : run.per_pair_pps) add(pps);
    add(run.total_pps);
    add(run.sojourn_us.quantile(0.5));
    add(run.sojourn_us.quantile(0.99));
    add(run.sojourn_us.mean());
    add(run.drop_rate);
    for (const double thr : run.final_cs_threshold_dbm) add(thr);
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1) return upper;
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return 0.5 * (lower + upper);
}

std::optional<double> tail_quantile(std::vector<double> values, double q,
                                    std::size_t min_beyond) {
    if (values.empty()) return std::nullopt;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const double value = values[std::max<std::size_t>(rank, 1) - 1];
    const auto beyond = static_cast<std::size_t>(
        values.end() - std::upper_bound(values.begin(), values.end(), value));
    if (beyond < min_beyond) return std::nullopt;
    return value;
}

}  // namespace perfbench
