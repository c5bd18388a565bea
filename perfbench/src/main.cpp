// perfbench: the repository benchmark. One process runs one workload:
// it generates the workload's inputs from --seed, then runs the fixed
// unit set back to back on 1 thread and again at 2 threads, alternating,
// until --seconds have been spent. Every unit's outputs are checked, and
// every unit must give a bit-identical result in every pass at both
// thread counts. The last line of standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) record spans around every public library call and report
// the per-layer metrics derived from them. See perfbench/README.md.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/bench.hpp"
#include "src/core/parallel.hpp"

namespace {

using namespace perfbench;

struct options {
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 25.0;
    bool trace = false;
    std::string spans_path;  ///< traced runs write their spans here
    std::string store_dir = "perfbench-store";
};

/// Peak resident set of this process image, from /proc/self/status.
/// getrusage's ru_maxrss would not do: Linux carries the parent's peak
/// across fork and exec, so a small workload would report the size of
/// whatever launched it.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
        }
    }
    return 0.0;
}

int usage(const char* msg) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "[--seed N] [--seconds S] [--trace 0|1] [--spans FILE] "
                 "[--store DIR]\nworkloads:",
                 msg);
    for (const auto& n : workload_names()) {
        std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
}

std::optional<options> parse(int argc, char** argv) {
    if (argc % 2 == 0) return std::nullopt;
    options o;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string key = argv[i];
            const std::string value = argv[i + 1];
            if (key == "--workload") o.workload = value;
            else if (key == "--seed") o.seed = std::stoull(value);
            else if (key == "--seconds") o.seconds = std::stod(value);
            else if (key == "--trace" && (value == "0" || value == "1")) {
                o.trace = value == "1";
            } else if (key == "--spans") o.spans_path = value;
            else if (key == "--store") o.store_dir = value;
            else return std::nullopt;
        }
    } catch (const std::exception&) {  // a number that does not parse
        return std::nullopt;
    }
    if (o.workload.empty() || !(o.seconds > 0.0)) return std::nullopt;
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    const auto opt = parse(argc, argv);
    if (!opt) return usage("bad arguments");
    const bool own_store = !std::filesystem::exists(opt->store_dir);
    auto w = make_workload(opt->workload, opt->store_dir);
    if (!w) return usage("unknown workload");
    span_log log(opt->trace);

    // Set-up, repeated: at least 5 times and for at least 1 s (at most
    // 101 times); the reported figure is the median. The first repetition
    // also spins up the 2-thread pool.
    std::vector<double> setup_s;
    double setup_total = 0.0;
    while (setup_s.size() < 5 || (setup_total < 1.0 && setup_s.size() < 101)) {
        const scoped_span root(&log, "setup", -1, -1);
        const double start = now_s();
        if (setup_s.empty()) {
            csense::core::thread_pool::instance().run(2, 2, [](std::size_t) {});
        }
        w->setup(opt->seed, &log, root.id());
        setup_s.push_back(now_s() - start);
        setup_total += setup_s.back();
    }

    // Passes alternate until the next one would overrun --seconds; one
    // full cycle always runs. Traced runs add an untraced serial pass to
    // each cycle so the tracing overhead can be measured.
    std::vector<std::pair<std::string, int>> cycle = {{"pass.1t", 1},
                                                      {"pass.2t", 2}};
    if (opt->trace) cycle.insert(cycle.begin(), {"pass.1t.untraced", 1});
    runner run(*w, log);
    std::vector<pass_record> passes;
    std::map<std::string, double> last_cost;
    const double deadline = now_s() + opt->seconds;
    for (std::size_t step = 0;; ++step) {
        const auto& [kind, threads] = cycle[step % cycle.size()];
        if (step >= cycle.size() && now_s() + last_cost[kind] > deadline) break;
        const double start = now_s();
        const bool traced = opt->trace && kind != "pass.1t.untraced";
        passes.push_back(run.run_pass(kind, threads, traced));
        last_cost[kind] = now_s() - start;
    }
    log.set_enabled(false);

    const std::vector<double> samples = unit_ms(passes);
    const auto p90 = tail_quantile(samples, 0.9);
    std::printf("# workload %s seed %llu: %zu units, %zu setup repetitions, "
                "%zu passes at 1 thread, %zu at 2 threads\n",
                opt->workload.c_str(),
                static_cast<unsigned long long>(opt->seed), w->units(),
                setup_s.size(), work_of(passes, "pass.1t").size(),
                work_of(passes, "pass.2t").size());
    std::printf("# unit_ms_p50 over %zu samples; unit_ms_p90 %s\n",
                samples.size(),
                p90 ? std::to_string(*p90).c_str()
                    : "not reported (fewer than 10 samples beyond it)");
    std::printf("# work_s per pass at 1 thread:");
    for (const double x : work_of(passes, "pass.1t")) std::printf(" %.4f", x);
    std::printf("; at 2 threads:");
    for (const double x : work_of(passes, "pass.2t")) std::printf(" %.4f", x);
    std::printf("\n");
    for (const auto& f : run.failures()) {
        std::printf("# FAILED %s\n", f.c_str());
    }

    metric_list m;
    if (opt->trace) {
        const auto spans = log.spans();
        layer_metrics(*w, spans, passes, m);
        if (!opt->spans_path.empty() && !log.write_jsonl(opt->spans_path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt->spans_path.c_str());
        }
    } else {
        end_to_end_metrics(setup_s, passes, peak_rss_mb(), m);
    }
    w.reset();
    if (own_store) std::filesystem::remove_all(opt->store_dir);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                run.failed() == 0 && run.attempted() > 0 ? "true" : "false",
                static_cast<unsigned long long>(run.attempted()),
                static_cast<unsigned long long>(run.failed()),
                m.json().c_str());
    return 0;
}
