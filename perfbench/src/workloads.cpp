#include "perfbench/src/workloads.hpp"

#include <cmath>
#include <cstring>
#include <optional>
#include <utility>

#include "src/capacity/rate_table.hpp"
#include "src/core/expected.hpp"
#include "src/core/regimes.hpp"
#include "src/core/threshold.hpp"
#include "src/mac/multi_pair.hpp"
#include "src/stats/quantile.hpp"
#include "src/stats/rng.hpp"

namespace perfbench {
namespace {

namespace mac = csense::mac;
namespace core = csense::core;

/// Runs `body(unit_span_id)` inside the unit's span and returns its host
/// time in seconds.
template <class Body>
double timed_unit(const unit_context& ctx, Body&& body) {
    const double start = now_s();
    {
        const scoped_span unit(ctx.log, "unit", ctx.parent, ctx.unit);
        body(unit.id());
    }
    return now_s() - start;
}

/// One configuration a mac unit replays its topology under.
struct variant {
    const char* span;  ///< "mac.run.<variant>"
    mac::multi_pair_config config;
};

/// Shared shape of the packet-level workloads: `units` random topologies
/// drawn like the campaign layer draws replications (split stream i of
/// the campaign seed), each replayed under every variant with common
/// random numbers.
class mac_workload : public workload {
public:
    mac_workload(int pairs, double arena_m, double rmax_m, std::size_t units,
                 std::uint64_t seed_tag, mac::multi_pair_config base)
        : pairs_(pairs),
          arena_m_(arena_m),
          rmax_m_(rmax_m),
          units_(units),
          seed_tag_(seed_tag),
          base_(std::move(base)) {}

    void setup(std::uint64_t seed, span_log* log, int parent) override {
        topologies_.clear();
        sim_seeds_.clear();
        degrees_.clear();
        stats_ = {};
        const csense::stats::rng campaign(seed ^ seed_tag_);
        for (std::size_t t = 0; t < units_; ++t) {
            csense::stats::rng gen = campaign.split(t);
            {
                const scoped_span s(log, "mac.topology", parent, -1);
                topologies_.push_back(mac::sample_multi_pair_topology(
                    pairs_, arena_m_, rmax_m_, gen));
            }
            sim_seeds_.push_back(gen.next());
            std::size_t links = 0;
            {
                const scoped_span s(log, "mac.audible_links", parent, -1);
                links = mac::audible_link_pairs(topologies_.back(), base_)
                            .size();
            }
            const auto nodes = 2 * static_cast<std::uint64_t>(pairs_);
            stats_.nodes += nodes;
            stats_.audible_links += links;
            degrees_.push_back(2.0 * static_cast<double>(links) /
                               static_cast<double>(nodes));
        }
        variants_ = make_variants(seed, log, parent);
    }

    std::size_t units() const override { return units_; }

    unit_result run_unit(std::size_t i, int, const unit_context& ctx) override {
        unit_result result;
        std::vector<mac::multi_pair_result> runs(variants_.size());
        result.busy_s = timed_unit(ctx, [&](int unit_span) {
            for (std::size_t v = 0; v < variants_.size(); ++v) {
                auto config = variants_[v].config;
                config.seed = sim_seeds_[i];
                const scoped_span s(ctx.log, variants_[v].span, unit_span,
                                    ctx.unit);
                runs[v] = mac::run_multi_pair(topologies_[i], config);
            }
            finish_unit(i, runs, ctx.log, unit_span, ctx.unit, result);
        });
        fingerprint fp;
        fp.add(result.fingerprint);
        for (std::size_t v = 0; v < runs.size(); ++v) {
            const double duration_us = variants_[v].config.duration_us;
            run_summary summary = summarize(runs[v], duration_us);
            for (const auto& name : check_mac_run(summary)) {
                result.failures.push_back(std::string(variants_[v].span) +
                                          ":" + name);
            }
            mac_counts& counts = summary.counts;
            counts.fanout =
                static_cast<double>(counts.transmissions) * degrees_[i];
            result.mac.add(counts);
            fp.add(counts);
            fp.add(runs[v]);
        }
        result.fingerprint = fp.value();
        return result;
    }

    topology_stats topology() const override { return stats_; }

    std::uint64_t input_fingerprint() const override {
        fingerprint fp;
        for (std::size_t t = 0; t < topologies_.size(); ++t) {
            for (const auto& p : topologies_[t].senders) {
                fp.add(p.x);
                fp.add(p.y);
            }
            for (const auto& p : topologies_[t].receivers) {
                fp.add(p.x);
                fp.add(p.y);
            }
            fp.add(sim_seeds_[t]);
        }
        for (const auto& v : variants_) fp.add(v.config.radio.cs_threshold_dbm);
        return fp.value();
    }

protected:
    /// The configurations every topology is replayed under.
    virtual std::vector<variant> make_variants(std::uint64_t seed,
                                               span_log* log, int parent) = 0;

    /// Extra timed work after the runs of unit `i` (default: none).
    virtual void finish_unit(std::size_t, std::vector<mac::multi_pair_result>&,
                             span_log*, int, int, unit_result&) {}

    const mac::multi_pair_config& base() const noexcept { return base_; }

private:
    int pairs_;
    double arena_m_;
    double rmax_m_;
    std::size_t units_;
    std::uint64_t seed_tag_;
    mac::multi_pair_config base_;
    std::vector<mac::multi_pair_topology> topologies_;
    std::vector<std::uint64_t> sim_seeds_;
    std::vector<double> degrees_;
    std::vector<variant> variants_;
    topology_stats stats_;
};

/// camp05's N = 1000 replication: saturated broadcast on the
/// neighbour-culled medium, the section-3-tuned static threshold against
/// adaptive iterative_fixed_point from a deaf -70 dBm start.
class dense_culled : public mac_workload {
public:
    static constexpr int pairs = 1000;

    dense_culled()
        : mac_workload(pairs, 600.0, 10.0, 2, 0xca4905ULL + 1000ULL * pairs,
                       config()) {}

private:
    static mac::multi_pair_config config() {
        mac::multi_pair_config c;
        c.rate = &csense::capacity::rate_by_mbps(6.0);
        c.alpha = 4.0;
        c.radio.audibility_floor_dbm = c.radio.noise_floor_dbm - 20.0;
        c.duration_us = 1e5;
        return c;
    }

    std::vector<variant> make_variants(std::uint64_t seed, span_log* log,
                                       int parent) override {
        // camp05's offline tuning: engine distances -> simulator dBm.
        core::model_params params;
        params.alpha = base().alpha;
        params.sigma_db = 0.0;
        params.noise_db =
            base().radio.noise_floor_dbm -
            (base().radio.tx_power_dbm - base().reference_loss_db);
        std::optional<core::expectation_engine> engine;
        {
            const scoped_span s(log, "core.engine", parent, -1);
            engine.emplace(params, core::quadrature_options{32, 48, 8},
                           core::mc_options{100'000, seed, 1});
        }
        double d_thresh = 0.0;
        {
            const scoped_span s(log, "core.threshold", parent, -1);
            d_thresh = core::optimal_threshold(*engine, 10.0).d_thresh;
        }
        variant tuned{"mac.run.static", base()};
        tuned.config.radio.cs_threshold_dbm =
            base().threshold_dbm_for_distance(d_thresh);
        variant adaptive{"mac.run.adaptive", base()};
        adaptive.config.radio.cs_threshold_dbm = -70.0;
        adaptive.config.adapt.policy =
            mac::cs_adapt_policy::iterative_fixed_point;
        adaptive.config.adapt.epoch_us = 20'000.0;
        return {tuned, adaptive};
    }
};

/// camp02's replication: 10 pairs in a 100 m arena on the dense
/// (unculled) medium, replayed under all four carrier-sense modes.
class small_unculled : public mac_workload {
public:
    static constexpr int pairs = 10;

    small_unculled()
        : mac_workload(pairs, 100.0, 25.0, 100, 0xca4902ULL, config()) {}

private:
    static mac::multi_pair_config config() {
        mac::multi_pair_config c;
        c.rate = &csense::capacity::rate_by_mbps(6.0);
        c.duration_us = 1e5;
        return c;
    }

    std::vector<variant> make_variants(std::uint64_t, span_log*, int) override {
        std::vector<variant> out;
        const std::pair<const char*, mac::cs_mode> modes[] = {
            {"mac.run.none", mac::cs_mode::disabled},
            {"mac.run.energy", mac::cs_mode::energy},
            {"mac.run.preamble", mac::cs_mode::preamble},
            {"mac.run.both", mac::cs_mode::energy_and_preamble}};
        for (const auto& [span, mode] : modes) {
            variant v{span, base()};
            v.config.sense = mode;
            out.push_back(v);
        }
        return out;
    }
};

/// camp06's N = 50 cell at 100 pps per sender and -82 dBm: Poisson
/// unicast with ARF through 32-deep FIFOs on the culled medium. Each
/// unit also reduces its sojourn quantiles and persists its record
/// through the result store, then reads it back.
class unicast_light : public mac_workload {
public:
    static constexpr int pairs = 50;

    explicit unicast_light(const std::string& store_dir)
        : mac_workload(pairs, 300.0, 10.0, 200, 0xca4906ULL + 1000ULL * pairs,
                       config()),
          store_(store_dir, "perfbench-unicast/1") {}

    std::optional<csense::store::store_stats> store_counters() const override {
        return store_.stats();
    }

private:
    static mac::multi_pair_config config() {
        mac::multi_pair_config c;
        c.rate = &csense::capacity::rate_by_mbps(24.0);
        c.alpha = 4.0;
        c.radio.audibility_floor_dbm = c.radio.noise_floor_dbm - 20.0;
        c.radio.cs_threshold_dbm = -82.0;
        c.unicast = true;
        c.rate_adapt = mac::rate_adapt_mode::arf;
        c.traffic.model = mac::traffic_model::poisson;
        c.traffic.offered_load_pps = 100.0;
        c.traffic.queue_capacity = 32;
        c.duration_us = 2e5;
        return c;
    }

    std::vector<variant> make_variants(std::uint64_t, span_log*, int) override {
        return {{"mac.run.static", base()}};
    }

    void finish_unit(std::size_t i, std::vector<mac::multi_pair_result>& runs,
                     span_log* log, int unit_span, int unit,
                     unit_result& result) override {
        const auto& run = runs.front();
        csense::stats::streaming_quantiles cell;
        double p50 = 0.0, p99 = 0.0, jitter = 0.0;
        {
            const scoped_span s(log, "stats.quantile_merge", unit_span, unit);
            cell.merge(run.sojourn_us);
            p50 = cell.quantile(0.5);
            p99 = cell.quantile(0.99);
            jitter = cell.jitter();
        }
        result.sojourn_samples = cell.count();
        const double fields[] = {run.total_pps,
                                 run.jain_index(),
                                 p50,
                                 p99,
                                 jitter,
                                 run.drop_rate,
                                 static_cast<double>(run.offered_packets),
                                 static_cast<double>(cell.count())};
        constexpr std::size_t n_fields = std::size(fields);
        const std::string payload =
            csense::store::encode_doubles(fields, n_fields);
        const std::string key = "unit" + std::to_string(i);
        bool stored = false;
        {
            const scoped_span s(log, "store.put", unit_span, unit);
            stored = store_.put(key, payload);
        }
        std::optional<std::string> loaded;
        {
            const scoped_span s(log, "store.load", unit_span, unit);
            loaded = store_.load(key);
        }
        result.store_bytes = payload.size();
        if (!stored) result.failures.emplace_back("store_put");
        for (auto& name : check_roundtrip(payload, loaded)) {
            result.failures.push_back(std::move(name));
        }
        double decoded[n_fields];
        if (!loaded ||
            !csense::store::decode_doubles(*loaded, decoded, n_fields) ||
            std::memcmp(decoded, fields, sizeof fields) != 0) {
            result.failures.emplace_back("store_decode");
        }
        fingerprint fp;
        for (const double x : fields) fp.add(x);
        result.fingerprint = fp.value();
    }

    csense::store::result_store store_;
};

/// fig07's sweep: alpha in {2, 3, 4} x 15 network radii spaced by 1.25
/// from 5 m (alpha = 3 equivalent edge SNR), sigma = 8 dB, quadrature
/// 32/40/10. Each unit builds a fresh engine, finds the optimal
/// threshold and evaluates carrier sense once.
class analytic_threshold : public workload {
public:
    void setup(std::uint64_t seed, span_log*, int) override {
        seed_ = seed;
        units_.clear();
        // The seed shifts the whole radius grid by a fraction of one
        // step and draws the separation each unit evaluates <C_cs> at.
        csense::stats::rng gen(seed ^ 0xf16007ULL);
        const double offset = gen.uniform();
        for (const double alpha : {2.0, 3.0, 4.0}) {
            core::model_params params;
            params.alpha = alpha;
            params.sigma_db = 8.0;
            for (int k = 0; k < 15; ++k) {
                const double r3 = 5.0 * std::pow(1.25, k + offset);
                const double rmax = core::rmax_for_edge_snr(
                    params, core::edge_snr_db(core::model_params{}, r3));
                units_.push_back({params, rmax, rmax * gen.uniform(0.5, 2.0)});
            }
        }
    }

    std::size_t units() const override { return units_.size(); }

    bool threads_inside_unit() const override { return true; }

    unit_result run_unit(std::size_t i, int threads,
                         const unit_context& ctx) override {
        const auto& in = units_[i];
        unit_result result;
        std::optional<core::expectation_engine> engine;
        analytic_outcome out;
        out.rmax = in.rmax;
        out.d_eval = in.d_eval;
        result.busy_s = timed_unit(ctx, [&](int unit_span) {
            {
                const scoped_span s(ctx.log, "core.engine", unit_span,
                                    ctx.unit);
                engine.emplace(in.params, core::quadrature_options{32, 40, 10},
                               core::mc_options{20'000, seed_, threads});
            }
            {
                const scoped_span s(ctx.log, "core.threshold", unit_span,
                                    ctx.unit);
                out.threshold = core::optimal_threshold(*engine, in.rmax);
            }
            const scoped_span s(ctx.log, "core.cs_eval", unit_span, ctx.unit);
            // No finite optimum: evaluate at the search's lower bracket.
            const double d_thresh = out.threshold.found
                                        ? out.threshold.d_thresh
                                        : 1e-3 * in.rmax;
            out.cs = engine->expected_carrier_sense(in.rmax, in.d_eval,
                                                    d_thresh);
        });
        // Reference values for the check (memoized in the engine).
        out.mux = engine->expected_multiplexing(in.rmax);
        out.conc_at_eval = engine->expected_concurrent(in.rmax, in.d_eval);
        if (out.threshold.found) {
            out.conc_at_thresh =
                engine->expected_concurrent(in.rmax, out.threshold.d_thresh);
        }
        result.failures = check_analytic(out);
        fingerprint fp;
        fp.add(out.threshold.d_thresh);
        fp.add(out.threshold.crossing_value);
        fp.add(out.cs);
        result.fingerprint = fp.value();
        return result;
    }

    std::uint64_t input_fingerprint() const override {
        fingerprint fp;
        for (const auto& u : units_) {
            fp.add(u.params.alpha);
            fp.add(u.rmax);
            fp.add(u.d_eval);
        }
        return fp.value();
    }

private:
    struct input {
        core::model_params params;
        double rmax = 0.0;
        double d_eval = 0.0;
    };
    std::uint64_t seed_ = 0;
    std::vector<input> units_;
};

}  // namespace

std::vector<std::string> workload_names() {
    return {"dense_culled_n1000", "small_unculled_n10", "unicast_light_n50",
            "analytic_threshold"};
}

std::unique_ptr<workload> make_workload(std::string_view name,
                                        const std::string& store_dir) {
    if (name == "dense_culled_n1000") return std::make_unique<dense_culled>();
    if (name == "small_unculled_n10") return std::make_unique<small_unculled>();
    if (name == "unicast_light_n50") {
        return std::make_unique<unicast_light>(store_dir);
    }
    if (name == "analytic_threshold") {
        return std::make_unique<analytic_threshold>();
    }
    return nullptr;
}

}  // namespace perfbench
