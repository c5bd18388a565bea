// Campaign C6: unsaturated offered load x carrier-sense threshold.
//
// Every other campaign runs saturated senders, but the paper's
// carrier-sense tradeoffs look different when the network is not
// load-saturated (Kai & Liew's critique of saturation-calibrated
// models; Chau et al.'s adaptive sensing under non-uniform load). This
// campaign drives N = 10 / 50 / 200 sender-receiver pairs with Poisson
// unicast traffic through finite per-node FIFOs, with ARF rate
// adaptation live on the ACK feedback path, and sweeps per-sender
// offered load x energy-detect threshold per random topology under
// common random numbers. The first-class outputs are the metrics a
// production WLAN reports: queueing-delay p50/p99, jitter, and drop
// rate - and the latency/throughput knee they trace as the sensing
// threshold moves: a deaf threshold collapses the exposed-terminal tax
// at light load but melts down first as offered load climbs.
//
// Replications shard over the deterministic campaign layer (split-RNG
// per index; streaming-quantile merges in pair-index order), so JSON is
// byte-identical at any --threads and under --checkpoint kill-resume.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "src/mac/multi_pair.hpp"
#include "src/report/table.hpp"
#include "src/sim/campaign.hpp"

using namespace csense;

namespace {

constexpr double arena_m = 300.0;
constexpr double rmax_m = 10.0;

constexpr double loads_pps[] = {100.0, 400.0, 1600.0};
constexpr double thresholds_dbm[] = {-95.0, -82.0, -70.0};
constexpr std::size_t n_loads = std::size(loads_pps);
constexpr std::size_t n_thresholds = std::size(thresholds_dbm);
constexpr std::size_t n_combos = n_loads * n_thresholds;

/// Sweep cap from CSENSE_CAMP06_NMAX (CI smokes cap at 50); 0 = no cap.
int sweep_cap() {
    const char* env = std::getenv("CSENSE_CAMP06_NMAX");
    if (env == nullptr) return 0;
    const int cap = std::atoi(env);
    return cap > 0 ? cap : 0;
}

/// One load x threshold cell of a replication.
struct cell_outcome {
    double delay_p50_us = 0.0;
    double delay_p99_us = 0.0;
    double jitter_us = 0.0;
    double drop_rate = 0.0;
    double delivered_pps = 0.0;  ///< aggregate across pairs
};

/// All cells of one replication, load-major (combo = load * n_thresholds
/// + threshold), flattened to 5 doubles per cell for the checkpoint
/// store's exact round-trip encoding.
struct replication_outcome {
    cell_outcome cells[n_combos];
};

constexpr std::size_t n_fields = 5 * n_combos;

}  // namespace

CSENSE_SCENARIO_EX(camp06_unsaturated_load,
                   "Campaign C6: Poisson unicast offered load x CS threshold "
                   "at N = 10/50/200 pairs - queueing-delay p50/p99, jitter "
                   "and drop rate through per-node FIFOs with ARF live",
                   bench::runtime_tier::slow,
                   "CSENSE_FAST caps the sweep at N=50, replications at 1 and "
                   "run length at 0.2 s; CSENSE_CAMP06_NMAX=<n> caps the "
                   "sweep (CI smokes use 50); --threads shards whole "
                   "packet-level replications") {
    bench::print_header(
        "Campaign C6 - unsaturated load, N = 10/50/200 pairs",
        "Poisson unicast through finite FIFOs, ARF rate adaptation; "
        "per-sender offered load x energy-detect threshold under common "
        "random numbers; latency percentiles as first-class outputs");
    const std::size_t replications = bench::fast_mode() ? 1 : 2;
    const double duration_us = bench::fast_mode() ? 2e5 : 6e5;

    mac::multi_pair_config base;
    base.rate = &capacity::rate_by_mbps(24.0);
    base.alpha = 4.0;
    base.radio.audibility_floor_dbm = base.radio.noise_floor_dbm - 20.0;
    base.unicast = true;
    base.rate_adapt = mac::rate_adapt_mode::arf;
    base.traffic.model = mac::traffic_model::poisson;
    base.traffic.queue_capacity = 32;

    std::vector<int> sweep = {10, 50, 200};
    if (bench::fast_mode()) sweep.pop_back();
    if (const int cap = sweep_cap(); cap > 0) {
        std::erase_if(sweep, [cap](int pairs) { return pairs > cap; });
        if (sweep.empty()) sweep.push_back(cap);
    }

    const auto encode = [](const replication_outcome& o) {
        double fields[n_fields];
        for (std::size_t c = 0; c < n_combos; ++c) {
            fields[5 * c + 0] = o.cells[c].delay_p50_us;
            fields[5 * c + 1] = o.cells[c].delay_p99_us;
            fields[5 * c + 2] = o.cells[c].jitter_us;
            fields[5 * c + 3] = o.cells[c].drop_rate;
            fields[5 * c + 4] = o.cells[c].delivered_pps;
        }
        return store::encode_doubles(fields, n_fields);
    };
    const auto decode = [](std::string_view payload, replication_outcome& o) {
        double fields[n_fields];
        if (!store::decode_doubles(payload, fields, n_fields)) return false;
        for (std::size_t c = 0; c < n_combos; ++c) {
            o.cells[c].delay_p50_us = fields[5 * c + 0];
            o.cells[c].delay_p99_us = fields[5 * c + 1];
            o.cells[c].jitter_us = fields[5 * c + 2];
            o.cells[c].drop_rate = fields[5 * c + 3];
            o.cells[c].delivered_pps = fields[5 * c + 4];
        }
        return true;
    };

    bool structurally_sound = true;
    for (const int pairs : sweep) {
        sim::campaign_options campaign;
        campaign.replications = replications;
        campaign.shard_size = 1;
        campaign.threads = ctx.threads;
        campaign.seed = ctx.seed ^ (0xca4906ULL + 1000ULL * pairs);
        const auto outcomes =
            sim::run_replications_checkpointed<replication_outcome>(
                campaign, ctx.checkpoint,
                ctx.checkpoint_prefix + "/n" + std::to_string(pairs),
                [&](std::size_t, stats::rng& gen) {
                    // One topology per replication; every load x threshold
                    // cell replays it (common random numbers), so cell
                    // deltas isolate the knobs, not the map.
                    const auto topology = mac::sample_multi_pair_topology(
                        pairs, arena_m, rmax_m, gen);
                    const std::uint64_t sim_seed = gen.next();
                    replication_outcome outcome;
                    for (std::size_t li = 0; li < n_loads; ++li) {
                        for (std::size_t ti = 0; ti < n_thresholds; ++ti) {
                            auto config = base;
                            config.seed = sim_seed;
                            config.duration_us = duration_us;
                            config.traffic.offered_load_pps = loads_pps[li];
                            config.radio.cs_threshold_dbm =
                                thresholds_dbm[ti];
                            const auto run =
                                mac::run_multi_pair(topology, config);
                            auto& cell =
                                outcome.cells[li * n_thresholds + ti];
                            cell.delay_p50_us = run.sojourn_us.quantile(0.5);
                            cell.delay_p99_us = run.sojourn_us.quantile(0.99);
                            cell.jitter_us = run.sojourn_us.jitter();
                            cell.drop_rate = run.drop_rate;
                            cell.delivered_pps = run.total_pps;
                        }
                    }
                    return outcome;
                },
                encode, decode);

        const double n = static_cast<double>(outcomes.size());
        replication_outcome mean;
        for (const auto& o : outcomes) {
            for (std::size_t c = 0; c < n_combos; ++c) {
                mean.cells[c].delay_p50_us += o.cells[c].delay_p50_us / n;
                mean.cells[c].delay_p99_us += o.cells[c].delay_p99_us / n;
                mean.cells[c].jitter_us += o.cells[c].jitter_us / n;
                mean.cells[c].drop_rate += o.cells[c].drop_rate / n;
                mean.cells[c].delivered_pps += o.cells[c].delivered_pps / n;
            }
        }

        report::text_table table({"load pps", "thr dBm", "p50 us", "p99 us",
                                  "jitter us", "drop", "delivered pps"});
        for (std::size_t li = 0; li < n_loads; ++li) {
            for (std::size_t ti = 0; ti < n_thresholds; ++ti) {
                const auto& cell = mean.cells[li * n_thresholds + ti];
                std::string prefix = "n";
                prefix += std::to_string(pairs);
                prefix += "_load";
                prefix += std::to_string(static_cast<int>(loads_pps[li]));
                prefix += "_thr";
                prefix += std::to_string(static_cast<int>(thresholds_dbm[ti]));
                ctx.metric(prefix + "_delay_p50_us", cell.delay_p50_us);
                ctx.metric(prefix + "_delay_p99_us", cell.delay_p99_us);
                ctx.metric(prefix + "_jitter_us", cell.jitter_us);
                ctx.metric(prefix + "_drop_rate", cell.drop_rate);
                ctx.metric(prefix + "_delivered_pps", cell.delivered_pps);
                structurally_sound =
                    structurally_sound && cell.delay_p50_us > 0.0 &&
                    cell.delay_p99_us >= cell.delay_p50_us &&
                    cell.drop_rate >= 0.0 && cell.drop_rate <= 1.0;
                table.add_row({report::fmt(loads_pps[li], 0),
                               report::fmt(thresholds_dbm[ti], 0),
                               report::fmt(cell.delay_p50_us, 0),
                               report::fmt(cell.delay_p99_us, 0),
                               report::fmt(cell.jitter_us, 0),
                               report::fmt(cell.drop_rate, 3),
                               report::fmt(cell.delivered_pps, 0)});
            }
        }
        std::printf("N = %d pairs\n%s", pairs, table.render().c_str());

        // The knee, made explicit: per threshold, the offered load (per
        // sender) at which mean p99 delay first exceeds 10 ms - higher
        // is better. Emitted as a metric so sweeps can track the knee
        // moving with the sensing threshold.
        for (std::size_t ti = 0; ti < n_thresholds; ++ti) {
            double knee_pps = loads_pps[n_loads - 1];  // never exceeded
            for (std::size_t li = 0; li < n_loads; ++li) {
                if (mean.cells[li * n_thresholds + ti].delay_p99_us >
                    10'000.0) {
                    knee_pps = loads_pps[li];
                    break;
                }
            }
            std::string knee_name = "n";
            knee_name += std::to_string(pairs);
            knee_name += "_thr";
            knee_name += std::to_string(static_cast<int>(thresholds_dbm[ti]));
            knee_name += "_knee_load_pps";
            ctx.metric(knee_name, knee_pps);
        }
    }
    std::printf(
        "\nEach cell: Poisson unicast at the given per-sender offered "
        "load, energy-detect threshold fixed at the given dBm, finite "
        "32-deep FIFOs, ARF adapting the bitrate on ACK feedback. The "
        "knee metric is the lowest offered load whose p99 sojourn "
        "crosses 10 ms at that threshold.\n");
    // Structural gate (all tiers, including fast): latency percentiles
    // must be present and ordered, drop rates must be probabilities.
    return structurally_sound ? 0 : 1;
}
