#include "perfbench/src/bench.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "src/sim/campaign.hpp"

namespace perfbench {

namespace {

/// Runs one unit; an exception fails the unit instead of the run.
unit_result run_guarded(workload& w, std::size_t i, int threads,
                        const unit_context& ctx) {
    try {
        return w.run_unit(i, threads, ctx);
    } catch (const std::exception& e) {
        unit_result failed;
        failed.failures.push_back(std::string("threw: ") + e.what());
        return failed;
    }
}

}  // namespace

pass_record runner::run_pass(const std::string& kind, int threads,
                             bool traced) {
    log_.set_enabled(traced);
    const auto store_before = w_.store_counters();
    pass_record rec;
    rec.kind = kind;
    const int root = log_.open(kind, -1, -1);
    std::vector<unit_result> results;
    if (threads == 1 || w_.threads_inside_unit()) {
        for (std::size_t i = 0; i < w_.units(); ++i) {
            results.push_back(run_guarded(
                w_, i, threads, {&log_, root, static_cast<int>(i)}));
            rec.work_s += results.back().busy_s;
        }
    } else {
        csense::sim::campaign_options campaign;
        campaign.replications = w_.units();
        campaign.shard_size = 1;
        campaign.threads = threads;
        const scoped_span span(&log_, "sim.run_replications", root, -1);
        const double start = now_s();
        results = csense::sim::run_replications<unit_result>(
            campaign, [&](std::size_t i, csense::stats::rng&) {
                return run_guarded(w_, i, 1,
                                   {&log_, span.id(), static_cast<int>(i)});
            });
        rec.work_s = now_s() - start;
    }
    log_.close(root);
    if (const auto after = w_.store_counters(); after && store_before) {
        rec.store = {after->hits - store_before->hits,
                     after->misses - store_before->misses,
                     after->writes - store_before->writes,
                     after->write_failures - store_before->write_failures,
                     after->quarantined - store_before->quarantined};
    }
    reference_.resize(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const unit_result& r = results[i];
        rec.unit_s.push_back(r.busy_s);
        rec.mac.add(r.mac);
        rec.sojourn_samples += r.sojourn_samples;
        rec.store_bytes += r.store_bytes;
        ++attempted_;
        std::vector<std::string> failures = r.failures;
        if (!reference_[i]) {
            reference_[i] = r.fingerprint;
        } else if (*reference_[i] != r.fingerprint) {
            failures.emplace_back("result differs from the first pass");
        }
        if (!failures.empty()) {
            ++failed_;
            for (const auto& f : failures) {
                failures_.insert(kind + " unit " + std::to_string(i) + ": " +
                                 f);
            }
        }
    }
    return rec;
}

void metric_list::add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
}

std::vector<std::string> metric_list::names() const {
    std::vector<std::string> out;
    for (const auto& item : items_) out.push_back(item.name);
    return out;
}

std::string metric_list::json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < items_.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
        out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " +
               buf + ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
}

std::vector<double> work_of(const std::vector<pass_record>& passes,
                            const std::string& kind) {
    std::vector<double> out;
    for (const auto& p : passes) {
        if (p.kind == kind) out.push_back(p.work_s);
    }
    return out;
}

std::vector<double> unit_ms(const std::vector<pass_record>& passes) {
    std::vector<double> out;
    for (const auto& p : passes) {
        if (p.kind != "pass.1t") continue;
        for (const double s : p.unit_s) out.push_back(1e3 * s);
    }
    return out;
}

void end_to_end_metrics(const std::vector<double>& setup_s,
                        const std::vector<pass_record>& passes,
                        double peak_rss_mb, metric_list& m) {
    m.add("setup_s", median(setup_s), "s");
    m.add("work_s", median(work_of(passes, "pass.1t")), "s");
    m.add("work_s_2t", median(work_of(passes, "pass.2t")), "s");
    m.add("unit_ms_p50", median(unit_ms(passes)), "ms");
    m.add("peak_rss_mb", peak_rss_mb, "MB");
}

void layer_metrics(const workload& w, const std::vector<span>& spans,
                   const std::vector<pass_record>& passes, metric_list& m) {
    const auto self = self_times(spans);
    const auto root = root_of(spans);
    // Self time by span name under each root, and the roots of each kind.
    std::map<int, std::map<std::string, double>> by_root;
    std::map<std::string, std::vector<int>> roots;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        by_root[root[i]][spans[i].name] += self[i];
        if (spans[i].parent < 0) roots[spans[i].name].push_back(int(i));
    }
    // Median over roots of `kind` of the summed self time of `names`.
    const auto layer = [&](const std::string& kind,
                           std::initializer_list<const char*> names) {
        std::vector<double> per_root;
        for (const int r : roots[kind]) {
            double sum = 0.0;
            for (const char* n : names) sum += by_root[r][n];
            per_root.push_back(sum);
        }
        return median(per_root);
    };
    const auto both = [&](const char* name) {
        return layer("setup", {name}) + layer("pass.1t", {name});
    };

    const pass_record* traced = nullptr;
    for (const auto& p : passes) {
        if (p.kind == "pass.1t") traced = &p;
    }
    const mac_counts c = traced ? traced->mac : mac_counts{};
    const auto topo = w.topology();

    const double run_s = layer(
        "pass.1t", {"mac.run.static", "mac.run.adaptive", "mac.run.none",
                    "mac.run.energy", "mac.run.preamble", "mac.run.both"});
    m.add("mac.run_s", run_s, "s");
    for (const char* v :
         {"static", "adaptive", "none", "energy", "preamble", "both"}) {
        m.add(std::string("mac.run_s.") + v,
              layer("pass.1t", {(std::string("mac.run.") + v).c_str()}), "s");
    }
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const auto tx = static_cast<double>(c.transmissions);
    m.add("mac.host_us_per_tx", ratio(run_s * 1e6, tx), "us");
    m.add("mac.topology_s",
          layer("setup", {"mac.topology", "mac.audible_links"}), "s");
    m.add("mac.audible_links", double(topo.audible_links), "count");
    m.add("mac.mean_degree",
          ratio(2.0 * static_cast<double>(topo.audible_links),
                static_cast<double>(topo.nodes)),
          "links/node");
    m.add("mac.fanout_est", c.fanout, "count");
    m.add("mac.transmissions", tx, "count");
    m.add("mac.slot_collisions", double(c.slot_collisions), "count");
    m.add("mac.chain_collisions", double(c.chain_collisions), "count");
    m.add("mac.busy_starts", double(c.busy_starts), "count");
    m.add("mac.offered", double(c.offered), "count");
    m.add("mac.delivered", double(c.delivered), "count");
    m.add("mac.queue_drops", double(c.queue_drops), "count");
    m.add("mac.retry_drops", double(c.retry_drops), "count");
    m.add("mac.delivery_ratio", ratio(double(c.completed), double(c.offered)),
          "ratio");
    m.add("mac.delivered_per_tx", ratio(double(c.delivered), tx), "ratio");

    // The 2-thread campaign: wall time, and how much of 2 x wall the
    // units did not fill (waiting on the slowest replication).
    std::vector<double> campaign_s, wait_s, efficiency;
    for (const int r : roots["pass.2t"]) {
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].parent != r ||
                spans[i].name != "sim.run_replications") {
                continue;
            }
            double busy = 0.0;
            for (const auto& s : spans) {
                if (s.parent == int(i) && s.name == "unit") {
                    busy += s.duration_s();
                }
            }
            const double wall = spans[i].duration_s();
            campaign_s.push_back(wall);
            wait_s.push_back(2.0 * wall - busy);
            efficiency.push_back(ratio(busy, 2.0 * wall));
        }
    }
    m.add("sim.campaign_s_2t", median(campaign_s), "s");
    m.add("sim.campaign_wait_s", median(wait_s), "s");
    m.add("sim.par_efficiency", median(efficiency), "ratio");

    m.add("core.engine_s", both("core.engine"), "s");
    m.add("core.threshold_s", both("core.threshold"), "s");
    m.add("core.cs_eval_s", both("core.cs_eval"), "s");
    const double serial = median(work_of(passes, "pass.1t"));
    m.add("core.par_efficiency",
          w.threads_inside_unit()
              ? ratio(serial, 2.0 * median(work_of(passes, "pass.2t")))
              : 0.0,
          "ratio");

    m.add("stats.quantile_merge_s", layer("pass.1t", {"stats.quantile_merge"}),
          "s");
    m.add("stats.sojourn_samples",
          traced ? double(traced->sojourn_samples) : 0.0, "count");

    const csense::store::store_stats st =
        traced ? traced->store : csense::store::store_stats{};
    m.add("store.put_s", layer("pass.1t", {"store.put"}), "s");
    m.add("store.load_s", layer("pass.1t", {"store.load"}), "s");
    m.add("store.bytes", traced ? double(traced->store_bytes) : 0.0, "bytes");
    m.add("store.writes", double(st.writes), "count");
    m.add("store.hits", double(st.hits), "count");
    m.add("store.misses", double(st.misses), "count");
    m.add("store.write_failures", double(st.write_failures), "count");
    m.add("store.quarantined", double(st.quarantined), "count");

    const double untraced = median(work_of(passes, "pass.1t.untraced"));
    m.add("trace.overhead_pct", 100.0 * ratio(serial - untraced, untraced),
          "%");
}

}  // namespace perfbench
