// Self-tests of the benchmark itself: the p90 emission rule, span
// self-time arithmetic, that every output check catches a fabricated
// result breaking it, and that the seed changes the inputs but not the
// metric names (which must match BENCHMARK.json).
//
//   perfbench_selftest [BENCHMARK.json] [store dir]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/src/bench.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
    if (!ok) {
        ++failures;
        std::printf("FAIL %s\n", what.c_str());
    }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

bool contains(const std::vector<std::string>& names, const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
}

void test_tail_quantile() {
    std::vector<double> v;
    for (int i = 1; i <= 99; ++i) v.push_back(i);
    expect(!tail_quantile(v, 0.9), "p90 withheld with 9 samples beyond");
    v.push_back(100);
    const auto p90 = tail_quantile(v, 0.9);
    expect(p90 && *p90 == 90.0, "p90 of 1..100 is 90 with 10 beyond");
    // Ties at the p90 value leave fewer than 10 samples beyond it.
    std::fill(v.end() - 15, v.end(), 100.0);
    expect(!tail_quantile(v, 0.9), "p90 withheld when ties fill the tail");
    expect(!tail_quantile(std::vector<double>(45, 1.0), 0.9),
           "p90 withheld for 45 units");
    expect(!tail_quantile({}, 0.9), "p90 withheld when empty");
    expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5 &&
               median({}) == 0,
           "median");
}

void test_self_times() {
    // Parent [0, 10]; two overlapping children (as in the 2-thread pass)
    // cover [1, 5]; a third sticks out of the parent and covers [8, 10].
    // A grandchild inside the first child is not the parent's business.
    std::vector<span> spans = {{"root", 0, 10, -1, -1},
                               {"a", 1, 3, 0, 0},
                               {"b", 2, 5, 0, 1},
                               {"c", 8, 12, 0, 2},
                               {"a1", 1.5, 2.5, 1, 0},
                               {"other", 20, 21, -1, -1}};
    const auto self = self_times(spans);
    expect(near(self[0], 10 - 4 - 2), "root self time excludes the union");
    expect(near(self[1], 2 - 1), "child self time excludes grandchild");
    expect(near(self[2], 3) && near(self[3], 4) && near(self[4], 1) &&
               near(self[5], 1),
           "leaf self time is its duration");
    const auto root = root_of(spans);
    expect(root == std::vector<int>({0, 0, 0, 0, 0, 5}), "root_of");

    span_log off(false);
    expect(off.open("x", -1, -1) == -1 && off.spans().empty(),
           "disabled log records nothing");
    span_log on(true);
    {
        const scoped_span outer(&on, "outer", -1, -1);
        const scoped_span inner(&on, "inner", outer.id(), 3);
    }
    const auto rec = on.spans();
    expect(rec.size() == 2 && rec[1].parent == 0 && rec[1].unit == 3 &&
               rec[0].start_s <= rec[1].start_s && rec[1].end_s <= rec[0].end_s,
           "scoped spans nest");
}

void test_mac_checks() {
    run_summary good;
    good.per_pair_pps = {10.0, 20.0};
    good.total_pps = 30.0;
    good.jain = 0.9;
    good.sojourn_p50_us = 100.0;
    good.sojourn_p99_us = 900.0;
    good.counts.transmissions = 100;
    good.counts.slot_collisions = 5;
    good.counts.chain_collisions = 3;
    good.counts.busy_starts = 20;
    good.counts.delivered = 60;
    good.counts.offered = 80;
    good.counts.completed = 70;
    good.counts.queue_drops = 6;
    good.counts.retry_drops = 4;
    expect(check_mac_run(good).empty(), "a valid run passes");

    const std::vector<std::pair<const char*, std::function<void(run_summary&)>>>
        breaks = {
            {"pps_sum", [](run_summary& r) { r.total_pps = 31.0; }},
            {"pps_negative",
             [](run_summary& r) { r.per_pair_pps = {-10.0, 40.0}; }},
            {"jain_range", [](run_summary& r) { r.jain = 1.5; }},
            {"no_transmissions",
             [](run_summary& r) { r.counts = mac_counts{}; }},
            {"slot_collisions_le_tx",
             [](run_summary& r) { r.counts.slot_collisions = 101; }},
            {"chain_collisions_le_tx",
             [](run_summary& r) { r.counts.chain_collisions = 101; }},
            {"busy_starts_le_tx",
             [](run_summary& r) { r.counts.busy_starts = 101; }},
            {"delivered_le_tx",
             [](run_summary& r) { r.counts.delivered = 101; }},
            {"conservation", [](run_summary& r) { r.counts.offered = 79; }},
            {"sojourn_order",
             [](run_summary& r) { r.sojourn_p99_us = 99.0; }},
        };
    for (const auto& [name, mutate] : breaks) {
        run_summary bad = good;
        mutate(bad);
        expect(contains(check_mac_run(bad), name),
               std::string("mac check catches ") + name);
    }
}

void test_analytic_and_store_checks() {
    analytic_outcome good;
    good.rmax = 20;
    good.d_eval = 30;
    good.threshold = {25.0, 1.0, true};
    good.mux = 1.0;
    good.conc_at_thresh = 1.0 + 1e-9;
    good.conc_at_eval = 1.2;
    good.cs = 1.1;
    expect(check_analytic(good).empty(), "a valid analytic unit passes");
    auto bad = good;
    bad.conc_at_thresh = 1.01;
    expect(contains(check_analytic(bad), "crossing_residual"),
           "analytic check catches crossing_residual");
    bad = good;
    bad.cs = 1.3;
    expect(contains(check_analytic(bad), "cs_mixture"),
           "analytic check catches cs_mixture");
    bad = good;
    bad.threshold = {5.0, 1.0, false};
    expect(contains(check_analytic(bad), "not_found_nonzero"),
           "analytic check catches not_found_nonzero");

    expect(check_roundtrip("abc", std::string("abc")).empty(),
           "an equal round trip passes");
    expect(contains(check_roundtrip("abc", std::nullopt), "store_miss"),
           "store check catches a miss");
    expect(contains(check_roundtrip("abc", std::string("abd")),
                    "store_mismatch"),
           "store check catches a mismatch");
}

/// Every "name" inside the JSON array under `key` (flat arrays only).
std::vector<std::string> names_in(const std::string& json,
                                  const std::string& key) {
    std::vector<std::string> out;
    const auto start = json.find("\"" + key + "\"");
    if (start == std::string::npos) return out;
    const auto end = json.find(']', start);
    for (auto pos = json.find("\"name\"", start);
         pos != std::string::npos && pos < end;
         pos = json.find("\"name\"", pos + 1)) {
        const auto open = json.find('"', json.find(':', pos) + 1);
        const auto close = json.find('"', open + 1);
        out.push_back(json.substr(open + 1, close - open - 1));
    }
    return out;
}

std::vector<std::string> sorted(std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    return v;
}

void test_seeds_and_names(const std::string& bench_json,
                          const std::string& store_dir) {
    std::ifstream in(bench_json);
    std::stringstream buf;
    buf << in.rdbuf();
    const auto e2e_names = names_in(buf.str(), "end_to_end");
    const auto layer_names = names_in(buf.str(), "per_layer");
    expect(!e2e_names.empty() && !layer_names.empty(),
           "BENCHMARK.json lists metrics (" + bench_json + ")");
    expect(names_in(buf.str(), "workloads") == workload_names(),
           "BENCHMARK.json lists the program's workloads");

    for (const auto& name : workload_names()) {
        std::vector<std::uint64_t> inputs;
        for (const std::uint64_t seed : {7, 8, 7}) {
            auto w = make_workload(name, store_dir);
            w->setup(seed, nullptr, -1);
            inputs.push_back(w->input_fingerprint());
            metric_list layer, e2e;
            layer_metrics(*w, {}, {}, layer);
            end_to_end_metrics({1.0}, {}, 1.0, e2e);
            expect(sorted(layer.names()) == sorted(layer_names),
                   name + ": per-layer names match BENCHMARK.json");
            expect(sorted(e2e.names()) == sorted(e2e_names),
                   name + ": end-to-end names match BENCHMARK.json");
        }
        expect(inputs[0] != inputs[1], name + ": another seed, other inputs");
        expect(inputs[0] == inputs[2], name + ": same seed, same inputs");
    }

    // One real traced pass of the cheapest workload at two seeds: the
    // values differ, the names do not.
    std::vector<std::vector<std::string>> names;
    std::vector<std::string> json;
    for (const std::uint64_t seed : {7, 8}) {
        auto w = make_workload("small_unculled_n10", store_dir);
        span_log log(true);
        w->setup(seed, &log, -1);
        runner run(*w, log);
        const std::vector<pass_record> passes = {
            run.run_pass("pass.1t", 1, true), run.run_pass("pass.2t", 2, true)};
        metric_list m;
        layer_metrics(*w, log.spans(), passes, m);
        expect(run.failed() == 0 && run.attempted() == 2 * w->units(),
               "small_unculled_n10 passes its checks at both thread counts");
        names.push_back(m.names());
        json.push_back(m.json());
    }
    expect(names[0] == names[1], "metric names do not depend on the seed");
    expect(json[0] != json[1], "metric values depend on the seed");
}

}  // namespace

int main(int argc, char** argv) {
    const std::string bench_json = argc > 1 ? argv[1] : "BENCHMARK.json";
    const std::string store_dir =
        argc > 2 ? argv[2] : "perfbench-selftest-store";
    test_tail_quantile();
    test_self_times();
    test_mac_checks();
    test_analytic_and_store_checks();
    test_seeds_and_names(bench_json, store_dir);
    std::filesystem::remove_all(store_dir);
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? 1 : 0;
}
