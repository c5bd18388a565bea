// Campaign C5: production-scale dense networks under cumulative
// interference - the neighbor-culled medium's flagship workload.
//
// The paper's claim (a well-tuned carrier-sense threshold stays near
// optimal) is most at risk exactly where pairwise models drift: dense
// CSMA networks where the *aggregate* of many individually-weak
// interferers breaks receivers (Fu, Liew & Huang; Chau et al.). This
// campaign sweeps density in a fixed 600 m arena - N = 100 / 500 /
// 1000 / 2000 sender-receiver pairs - and compares, per random
// topology under common random numbers:
//
//  - a static threshold tuned offline by the §3 expectation engine
//    (the same concurrency-vs-multiplexing crossing tab02 computes);
//  - the online iterative_fixed_point adaptive policy starting from a
//    12 dB-deaf -70 dBm misconfig (so any parity is *recovered*).
//
// Packet-level runs at this scale only work on the neighbor-culled
// medium (radio_config::audibility_floor_dbm = noise - 20 dB): event
// fan-out is O(audible neighbors), not O(N), and per-node external
// power is tracked incrementally in mW. Replications shard over the
// deterministic campaign layer: JSON is byte-identical at any
// --threads, which the CI heavy-tier smoke pins at N = 500.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <cmath>

#include "bench/common.hpp"
#include "src/core/threshold.hpp"
#include "src/mac/multi_pair.hpp"
#include "src/propagation/units.hpp"
#include "src/report/table.hpp"
#include "src/sim/campaign.hpp"

using namespace csense;

namespace {

constexpr double arena_m = 600.0;
constexpr double rmax_m = 10.0;
constexpr double deaf_dbm = -70.0;

/// Sweep cap from CSENSE_CAMP05_NMAX (e.g. CI caps at 500); 0 = no cap.
int sweep_cap() {
    const char* env = std::getenv("CSENSE_CAMP05_NMAX");
    if (env == nullptr) return 0;
    const int cap = std::atoi(env);
    return cap > 0 ? cap : 0;
}

struct replication_outcome {
    double tuned_pps = 0.0;
    double tuned_jain = 0.0;
    double tuned_busy_rate = 0.0;
    double adaptive_pps = 0.0;
    double adaptive_jain = 0.0;
    double adaptive_busy_rate = 0.0;
    double adaptive_final_thr_dbm = 0.0;  ///< across-sender mean
    double culled_worstcase_dbm = 0.0;    ///< see culled_residual_dbm
    double tuned_duty = 0.0;              ///< mean per-sender airtime share
};

/// Honesty metric for the culling approximation: mean over nodes of the
/// aggregate power of all *culled* (sub-floor) sender links, in dBm,
/// assuming every sender transmits at once. The per-link floor drops
/// negligible power, but thousands of sub-floor links sum; this is the
/// worst-case bias the culled medium hides, to be compared against the
/// noise floor after scaling by the measured duty cycle. O(N^2) but a
/// few hundred ms even at N = 2000 - it runs once per replication.
double culled_residual_dbm(const mac::multi_pair_topology& topology,
                           const mac::multi_pair_config& config) {
    const double floor_dbm = config.radio.audibility_floor_dbm -
                             3.0 * config.radio.fading_sigma_db;
    const std::size_t n = topology.pairs();
    double sum_mw = 0.0;
    std::size_t nodes = 0;
    const auto accumulate = [&](double x, double y) {
        double culled_mw = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            const double d = std::hypot(topology.senders[j].x - x,
                                        topology.senders[j].y - y);
            if (d == 0.0) continue;  // the sender itself
            const double rx_dbm =
                config.radio.tx_power_dbm + config.gain_db(d);
            if (rx_dbm < floor_dbm) {
                culled_mw += propagation::dbm_to_mw(rx_dbm);
            }
        }
        sum_mw += culled_mw;
        ++nodes;
    };
    for (std::size_t i = 0; i < n; ++i) {
        accumulate(topology.senders[i].x, topology.senders[i].y);
        accumulate(topology.receivers[i].x, topology.receivers[i].y);
    }
    return propagation::mw_to_dbm(
        std::max(sum_mw / static_cast<double>(nodes), 1e-300));
}

double busy_rate(const mac::medium_counters& counters) {
    return counters.transmissions > 0
               ? static_cast<double>(counters.busy_starts) /
                     static_cast<double>(counters.transmissions)
               : 0.0;
}

}  // namespace

CSENSE_SCENARIO_EX(camp05_dense_network,
                   "Campaign C5: dense-network density sweep (N = 100-2000 "
                   "pairs) on the neighbor-culled medium, tuned static vs "
                   "adaptive fixed-point thresholds",
                   bench::runtime_tier::heavy,
                   "CSENSE_FAST caps the sweep at N=1000, replications at 1 "
                   "and run length at 0.2 s (metrics only, no gate); "
                   "CSENSE_CAMP05_NMAX=<n> caps the sweep (CI uses 500); "
                   "--threads shards whole packet-level replications") {
    bench::print_header(
        "Campaign C5 - dense networks, N = 100/500/1000/2000 pairs",
        "fixed 600 m arena, cumulative interference; neighbor-culled "
        "medium (floor = noise - 20 dB); tuned static vs adaptive "
        "iterative_fixed_point from a deaf misconfig");
    const std::size_t replications = bench::fast_mode() ? 1 : 2;
    const double duration_us = bench::fast_mode() ? 2e5 : 6e5;

    mac::multi_pair_config base;
    base.rate = &capacity::rate_by_mbps(6.0);
    base.alpha = 4.0;  // urban falloff: finite audible range in the arena
    base.radio.audibility_floor_dbm = base.radio.noise_floor_dbm - 20.0;

    // Offline model-tuned threshold for this environment (camp03/camp04's
    // unit mapping: engine distances -> the simulator's dBm thresholds).
    core::model_params params;
    params.alpha = base.alpha;
    params.sigma_db = 0.0;
    params.noise_db = base.radio.noise_floor_dbm -
                      (base.radio.tx_power_dbm - base.reference_loss_db);
    core::quadrature_options quad;
    quad.radial_nodes = 32;
    quad.angular_nodes = 48;
    quad.shadow_nodes = 8;
    core::mc_options mc;
    mc.seed = ctx.seed;
    mc.threads = ctx.threads;
    const core::expectation_engine engine(params, quad, mc);
    const double tuned_dbm = base.threshold_dbm_for_distance(
        core::optimal_threshold(engine, rmax_m).d_thresh);
    ctx.metric("tuned_thr_dbm", tuned_dbm);

    std::vector<int> sweep = {100, 500, 1000, 2000};
    if (bench::fast_mode()) sweep.pop_back();
    if (const int cap = sweep_cap(); cap > 0) {
        std::erase_if(sweep, [cap](int pairs) { return pairs > cap; });
        if (sweep.empty()) sweep.push_back(cap);
    }

    report::text_table table({"N", "tuned pps", "adapt pps", "recovery",
                              "tuned Jain", "adapt Jain", "adapt thr"});
    double min_recovery = 1e9, max_busy_gap = -1e9;
    for (const int pairs : sweep) {
        sim::campaign_options campaign;
        campaign.replications = replications;
        campaign.shard_size = 1;
        campaign.threads = ctx.threads;
        campaign.seed = ctx.seed ^ (0xca4905ULL + 1000ULL * pairs);
        // Each replication is a whole packet-level run (seconds to
        // minutes at N = 2000), so completed replications checkpoint
        // individually under --checkpoint: a killed sweep resumes at the
        // first unfinished replication. encode/decode round-trip the
        // outcome's doubles exactly (store::encode_doubles), keeping the
        // resumed JSON byte-identical to an uninterrupted run.
        const auto encode = [](const replication_outcome& o) {
            const double fields[] = {
                o.tuned_pps,          o.tuned_jain,
                o.tuned_busy_rate,    o.adaptive_pps,
                o.adaptive_jain,      o.adaptive_busy_rate,
                o.adaptive_final_thr_dbm, o.culled_worstcase_dbm,
                o.tuned_duty};
            return store::encode_doubles(fields, 9);
        };
        const auto decode = [](std::string_view payload,
                               replication_outcome& o) {
            double fields[9];
            if (!store::decode_doubles(payload, fields, 9)) return false;
            o.tuned_pps = fields[0];
            o.tuned_jain = fields[1];
            o.tuned_busy_rate = fields[2];
            o.adaptive_pps = fields[3];
            o.adaptive_jain = fields[4];
            o.adaptive_busy_rate = fields[5];
            o.adaptive_final_thr_dbm = fields[6];
            o.culled_worstcase_dbm = fields[7];
            o.tuned_duty = fields[8];
            return true;
        };
        const auto outcomes =
            sim::run_replications_checkpointed<replication_outcome>(
                campaign, ctx.checkpoint,
                ctx.checkpoint_prefix + "/n" + std::to_string(pairs),
                [&](std::size_t, stats::rng& gen) {
                const auto topology = mac::sample_multi_pair_topology(
                    pairs, arena_m, rmax_m, gen);
                const std::uint64_t sim_seed = gen.next();
                replication_outcome outcome;
                outcome.culled_worstcase_dbm =
                    culled_residual_dbm(topology, base);

                auto tuned = base;
                tuned.seed = sim_seed;
                tuned.duration_us = duration_us;
                tuned.radio.cs_threshold_dbm = tuned_dbm;
                const auto tuned_run = mac::run_multi_pair(topology, tuned);
                outcome.tuned_pps = tuned_run.total_pps;
                outcome.tuned_jain = tuned_run.jain_index();
                outcome.tuned_busy_rate = busy_rate(tuned_run.counters);
                outcome.tuned_duty =
                    static_cast<double>(tuned_run.counters.transmissions) *
                    capacity::frame_airtime_us(*base.rate,
                                               base.payload_bytes) /
                    (duration_us * static_cast<double>(pairs));

                auto adaptive = base;
                adaptive.seed = sim_seed;
                adaptive.duration_us = duration_us;
                adaptive.radio.cs_threshold_dbm = deaf_dbm;
                adaptive.adapt.policy =
                    mac::cs_adapt_policy::iterative_fixed_point;
                adaptive.adapt.epoch_us = 20'000.0;
                const auto adaptive_run =
                    mac::run_multi_pair(topology, adaptive);
                outcome.adaptive_pps = adaptive_run.total_pps;
                outcome.adaptive_jain = adaptive_run.jain_index();
                outcome.adaptive_busy_rate = busy_rate(adaptive_run.counters);
                double mean_thr = 0.0;
                for (const double thr : adaptive_run.final_cs_threshold_dbm) {
                    mean_thr += thr;
                }
                outcome.adaptive_final_thr_dbm =
                    mean_thr /
                    static_cast<double>(
                        adaptive_run.final_cs_threshold_dbm.size());
                return outcome;
                },
                encode, decode);

        const double n = static_cast<double>(outcomes.size());
        replication_outcome mean;
        for (const auto& o : outcomes) {
            mean.tuned_pps += o.tuned_pps / n;
            mean.tuned_jain += o.tuned_jain / n;
            mean.tuned_busy_rate += o.tuned_busy_rate / n;
            mean.adaptive_pps += o.adaptive_pps / n;
            mean.adaptive_jain += o.adaptive_jain / n;
            mean.adaptive_busy_rate += o.adaptive_busy_rate / n;
            mean.adaptive_final_thr_dbm += o.adaptive_final_thr_dbm / n;
            mean.culled_worstcase_dbm += o.culled_worstcase_dbm / n;
            mean.tuned_duty += o.tuned_duty / n;
        }
        // The approximation bill: the culled medium models this much
        // aggregate sub-floor power as silence. Worst case assumes all
        // senders on the air at once; the expected figure scales it by
        // the measured per-sender duty cycle. Both printed against the
        // noise floor so every density states its own bias.
        const double expected_residual_dbm =
            mean.culled_worstcase_dbm +
            10.0 * std::log10(std::max(mean.tuned_duty, 1e-12));
        const double recovery =
            mean.tuned_pps > 0.0 ? mean.adaptive_pps / mean.tuned_pps : 0.0;
        min_recovery = std::min(min_recovery, recovery);
        max_busy_gap = std::max(
            max_busy_gap, mean.adaptive_busy_rate - mean.tuned_busy_rate);

        std::string prefix = "n";
        prefix += std::to_string(pairs);
        ctx.metric(prefix + "_tuned_pps", mean.tuned_pps);
        ctx.metric(prefix + "_tuned_jain", mean.tuned_jain);
        ctx.metric(prefix + "_tuned_busy_rate", mean.tuned_busy_rate);
        ctx.metric(prefix + "_adaptive_pps", mean.adaptive_pps);
        ctx.metric(prefix + "_adaptive_jain", mean.adaptive_jain);
        ctx.metric(prefix + "_adaptive_busy_rate", mean.adaptive_busy_rate);
        ctx.metric(prefix + "_adaptive_final_thr_dbm",
                   mean.adaptive_final_thr_dbm);
        ctx.metric(prefix + "_recovery_vs_tuned", recovery);
        ctx.metric(prefix + "_culled_residual_worstcase_dbm",
                   mean.culled_worstcase_dbm);
        ctx.metric(prefix + "_culled_residual_expected_dbm",
                   expected_residual_dbm);
        std::printf(
            "N=%d culling bias: worst-case aggregate sub-floor power "
            "%.1f dBm, expected at the measured %.1f%% duty cycle "
            "%.1f dBm (noise floor %.1f dBm)\n",
            pairs, mean.culled_worstcase_dbm, 100.0 * mean.tuned_duty,
            expected_residual_dbm, base.radio.noise_floor_dbm);
        table.add_row({report::fmt(pairs, 0), report::fmt(mean.tuned_pps, 0),
                       report::fmt(mean.adaptive_pps, 0),
                       report::fmt_percent(recovery),
                       report::fmt(mean.tuned_jain, 2),
                       report::fmt(mean.adaptive_jain, 2),
                       report::fmt(mean.adaptive_final_thr_dbm, 1)});
    }
    std::printf("%s", table.render().c_str());
    ctx.metric("min_recovery_vs_tuned", min_recovery);
    ctx.metric("max_busy_rate_gap", max_busy_gap);
    std::printf(
        "\n'recovery' is adaptive/tuned aggregate throughput per density "
        "(common random numbers). The adaptive rows start 12 dB deaf; "
        "the fixed-point controller must walk back to the tuned "
        "operating point even when thousands of senders share the "
        "arena, the regime where cumulative interference makes pairwise "
        "carrier-sense models optimistic.\n");
    // The gate needs the full replication budget and run length; fast
    // and capped sweeps record metrics only.
    if (bench::fast_mode() || sweep_cap() > 0) return 0;
    return (min_recovery >= 0.60) ? 0 : 1;
}
