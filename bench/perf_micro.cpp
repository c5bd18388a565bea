// Performance microbenchmarks (google-benchmark) for the numerical and
// simulation hot paths: point capacities, disc quadrature, the shadowed
// concurrency expectation, the U-statistic optimal-MAC estimator, the
// event queue, and a saturated DCF second.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/common.hpp"
#include "src/capacity/rate_table.hpp"
#include "src/core/expected.hpp"
#include "src/core/policies.hpp"
#include "src/mac/multi_pair.hpp"
#include "src/mac/network.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/quadrature.hpp"
#include "src/stats/rng.hpp"

namespace {

using namespace csense;

// In fast mode, shrink every benchmark's measuring time. Applied via the
// double-typed MinTime() API, which is stable across google-benchmark
// 1.7/1.8 (unlike the --benchmark_min_time flag, whose format changed).
void tune(benchmark::internal::Benchmark* b) {
    if (csense::bench::fast_mode()) b->MinTime(0.05);
}

void bm_capacity_concurrent_point(benchmark::State& state) {
    core::model_params params;
    params.sigma_db = 0.0;
    double r = 5.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::capacity_concurrent(params, r, 1.0, 55.0));
        r = (r < 100.0) ? r + 0.1 : 5.0;
    }
}
BENCHMARK(bm_capacity_concurrent_point)->Apply(tune);

void bm_disc_average(benchmark::State& state) {
    const auto n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::disc_average(
            [](double r, double theta) { return r * std::cos(theta) + r; },
            55.0, n, n));
    }
}
BENCHMARK(bm_disc_average)->Arg(16)->Arg(32)->Arg(64)->Apply(tune);

// The engine memoizes <C_conc> by (rmax, d), so concurrency benchmarks
// move d every iteration to measure the integral, not the map lookup.
// Monotone (never cycling back to a seen value): the quadrature cost is
// independent of d, so the drift is free and the memo never hits.
double next_d(double d) { return d + 0.25; }

void bm_expected_concurrent_shadowed(benchmark::State& state) {
    core::model_params params;
    params.sigma_db = 8.0;
    core::quadrature_options quad;
    quad.radial_nodes = 24;
    quad.angular_nodes = 32;
    quad.shadow_nodes = static_cast<int>(state.range(0));
    // threads pinned to 1: this is a serial baseline comparable across
    // machines and against the pre-parallel perf trajectory.
    core::expectation_engine engine(params, quad, {1000, 1, 1});
    double d = 55.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.expected_concurrent(55.0, d));
        d = next_d(d);
    }
}
BENCHMARK(bm_expected_concurrent_shadowed)->Arg(8)->Arg(16)->Apply(tune);

void bm_expected_concurrent(benchmark::State& state) {
    // The serial reference point for the thread-scaling runs below:
    // default bench accuracy, one worker.
    core::model_params params;
    params.sigma_db = 8.0;
    core::quadrature_options quad;
    quad.radial_nodes = 40;
    quad.angular_nodes = 48;
    quad.shadow_nodes = 12;
    core::mc_options mc{1000, 1, 1};
    core::expectation_engine engine(params, quad, mc);
    double d = 55.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.expected_concurrent(55.0, d));
        d = next_d(d);
    }
}
BENCHMARK(bm_expected_concurrent)->Apply(tune);

void bm_expected_concurrent_threads(benchmark::State& state) {
    // Deterministic parallel scaling of the disc quadrature: identical
    // work at 1/2/4 workers (results are bit-identical; only the wall
    // clock moves, hence UseRealTime).
    core::model_params params;
    params.sigma_db = 8.0;
    core::quadrature_options quad;
    quad.radial_nodes = 40;
    quad.angular_nodes = 48;
    quad.shadow_nodes = 12;
    core::mc_options mc{1000, 1, static_cast<int>(state.range(0))};
    core::expectation_engine engine(params, quad, mc);
    double d = 55.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.expected_concurrent(55.0, d));
        d = next_d(d);
    }
}
BENCHMARK(bm_expected_concurrent_threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Apply(tune);

void bm_expected_optimal(benchmark::State& state) {
    core::model_params params;
    params.sigma_db = 8.0;
    core::quadrature_options quad;
    quad.radial_nodes = 24;
    quad.angular_nodes = 32;
    quad.shadow_nodes = 8;
    core::mc_options mc;
    mc.samples = static_cast<std::size_t>(state.range(0));
    mc.threads = 1;  // serial baseline; scaling measured below
    core::expectation_engine engine(params, quad, mc);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.expected_optimal(55.0, 55.0));
    }
}
BENCHMARK(bm_expected_optimal)->Arg(10000)->Arg(100000)->Apply(tune);

void bm_expected_optimal_threads(benchmark::State& state) {
    // Scaling of the Monte Carlo delta sampling behind <C_max>.
    core::model_params params;
    params.sigma_db = 8.0;
    core::quadrature_options quad;
    quad.radial_nodes = 24;
    quad.angular_nodes = 32;
    quad.shadow_nodes = 8;
    core::mc_options mc{100000, 1, static_cast<int>(state.range(0))};
    core::expectation_engine engine(params, quad, mc);
    double d = 55.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.expected_optimal(55.0, d));
        d = next_d(d);
    }
}
BENCHMARK(bm_expected_optimal_threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Apply(tune);

void bm_rectified_pair_mean(benchmark::State& state) {
    stats::rng gen(7);
    std::vector<double> samples;
    for (std::int64_t i = 0; i < state.range(0); ++i) {
        samples.push_back(gen.normal());
    }
    for (auto _ : state) {
        auto copy = samples;
        benchmark::DoNotOptimize(core::rectified_pair_mean(std::move(copy)));
    }
}
BENCHMARK(bm_rectified_pair_mean)->Arg(10000)->Arg(100000)->Apply(tune);

void bm_event_queue(benchmark::State& state) {
    for (auto _ : state) {
        sim::simulator simulator;
        int counter = 0;
        for (int i = 0; i < 1000; ++i) {
            simulator.schedule_in(i * 3.0, [&counter] { ++counter; });
        }
        simulator.run_all();
        benchmark::DoNotOptimize(counter);
    }
}
BENCHMARK(bm_event_queue)->Apply(tune);

void bm_event_schedule_cancel(benchmark::State& state) {
    // The MAC's dominant scheduler pattern at dense-network scale: every
    // node keeps a backoff/DIFS timer armed, and a channel busy/idle
    // flip cancels and re-arms a whole cohort of them at once, so a
    // camp05/camp06-sized run holds thousands of pending timers while
    // near-term events churn. bm_event_queue only drains; this maintains
    // one outstanding timer per "node" (2000, the camp05 dense sweep's
    // top N), re-arms a cohort per simulated slot, and measures the
    // schedule -> cancel -> reschedule cycle against that standing
    // population. The timer closure carries the same 32-byte payload as
    // the DCF's timer dispatch (this + generation + member-function
    // handler), so the cost of type-erasing the callable is the cost the
    // MAC actually pays per arm.
    constexpr int kNodes = 2000;
    constexpr int kCohort = 40;
    constexpr int kRounds = 1000;
    std::vector<sim::event_id> timers(kNodes);
    for (auto _ : state) {
        sim::simulator simulator;
        std::uint64_t fired = 0;
        std::uint64_t generation = 0;
        const auto arm = [&](int n) {
            const double deadline = 500.0 + 9.0 * (n % 64);
            const auto node = static_cast<std::uint64_t>(n);
            return simulator.schedule_in(
                deadline, [&fired, generation, node, deadline] {
                    fired += generation + node + static_cast<std::uint64_t>(deadline);
                });
        };
        for (int n = 0; n < kNodes; ++n) timers[n] = arm(n);
        for (int i = 0; i < kRounds; ++i) {
            for (int j = 0; j < kCohort; ++j) {
                const int n = (i * kCohort + j) % kNodes;
                ++generation;
                simulator.cancel(timers[n]);
                timers[n] = arm(n);
            }
            simulator.schedule_in(9.0, [&fired] { ++fired; });
            simulator.run_until(simulator.now() + 9.0);
        }
        for (const auto id : timers) simulator.cancel(id);
        simulator.run_all();
        benchmark::DoNotOptimize(fired);
    }
}
BENCHMARK(bm_event_schedule_cancel)
    ->Unit(benchmark::kMillisecond)
    ->Apply(tune);

void bm_dcf_packet_path(benchmark::State& state) {
    // End-to-end per-packet cost of the DCF hot path with no contention:
    // arrival -> backoff timers -> preamble/energy updates -> tx end,
    // 100 ms of a saturated single pair. Isolates scheduler + node state
    // cost from medium fan-out (bm_medium_dense covers that axis).
    const auto& rate = capacity::rate_by_mbps(24.0);
    std::uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mac::run_single_pair(
            mac::radio_config{}, -60.0, rate, 1e5, 1400, seed++));
    }
}
BENCHMARK(bm_dcf_packet_path)
    ->Unit(benchmark::kMillisecond)
    ->Apply(tune);

void bm_medium_dense(benchmark::State& state) {
    // Dense-network medium scaling: a 20 ms slice of a saturated
    // N-pair arena (fixed 600 m, alpha 4), network construction
    // included - the camp05 workload in miniature. culled = 1 sets the
    // audibility floor at noise - 20 dB (O(neighbors) per event);
    // culled = 0 leaves it off, so every row holds all 2N - 1 other
    // nodes (O(N) per event). The per-N ratio is the headline:
    // sub-quadratic growth with the floor, and >= 5x over floor-off at
    // N = 1000.
    const auto pairs = static_cast<int>(state.range(0));
    const bool culled = state.range(1) != 0;
    stats::rng gen(1234 + static_cast<std::uint64_t>(pairs));
    const auto topology =
        mac::sample_multi_pair_topology(pairs, 600.0, 10.0, gen);
    mac::multi_pair_config config;
    config.rate = &capacity::rate_by_mbps(6.0);
    config.alpha = 4.0;
    config.duration_us = 2e4;
    if (culled) {
        config.radio.audibility_floor_dbm =
            config.radio.noise_floor_dbm - 20.0;
    }
    std::uint64_t seed = 1;
    for (auto _ : state) {
        config.seed = seed++;
        const auto result = mac::run_multi_pair(topology, config);
        benchmark::DoNotOptimize(result.total_pps);
    }
}
void medium_dense_args(benchmark::internal::Benchmark* b) {
    b->ArgNames({"pairs", "culled"});
    b->Args({50, 0})->Args({50, 1});
    b->Args({200, 0})->Args({200, 1});
    // Measured on a shared 4-core 2.1 GHz VM, one thread: at N = 1000
    // floor-off takes ~1.35 s per iteration (peak RSS ~140 MB) and
    // floor-on ~0.2 s, ~6.6x.
    b->Args({1000, 0})->Args({1000, 1});
    b->Unit(benchmark::kMillisecond);
    tune(b);
}
BENCHMARK(bm_medium_dense)->Apply(medium_dense_args);

void bm_dcf_simulated_second(benchmark::State& state) {
    const auto& rate = capacity::rate_by_mbps(24.0);
    std::uint64_t seed = 1;
    for (auto _ : state) {
        mac::two_pair_gains gains;
        gains.s1_r1 = gains.s2_r2 = -60.0;
        gains.s1_s2 = gains.s1_r2 = gains.s2_r1 = gains.r1_r2 = -70.0;
        const auto result = mac::run_two_pair_competition(
            mac::radio_config{}, gains, rate, rate,
            mac::cs_mode::energy_and_preamble, 1e6, 1400, seed++);
        benchmark::DoNotOptimize(result.total_pps());
    }
}
BENCHMARK(bm_dcf_simulated_second)
    ->Unit(benchmark::kMillisecond)
    ->Apply(tune);

// Console reporter that also lands every benchmark's per-iteration
// real time in the scenario metrics, so the --json document (the
// BENCH_ci artifact and the committed BENCH_pr5.json baseline) carries
// the actual numbers, not just a benchmark count. Only fields stable
// across google-benchmark 1.6-1.8 are touched.
class recording_reporter final : public benchmark::ConsoleReporter {
public:
    explicit recording_reporter(csense::bench::scenario_context& ctx)
        : ctx_(&ctx) {}

    void ReportRuns(const std::vector<Run>& runs) override {
        for (const auto& run : runs) {
            if (run.iterations <= 0) continue;
            std::string name = run.benchmark_name();
            for (char& c : name) {
                if (c == '/' || c == ':') c = '_';
            }
            ctx_->metric(name + "_ms",
                         run.real_accumulated_time /
                             static_cast<double>(run.iterations) * 1e3);
        }
        ConsoleReporter::ReportRuns(runs);
    }

private:
    csense::bench::scenario_context* ctx_;
};

}  // namespace

CSENSE_SCENARIO_EX_ONCE(perf_micro,
                "Microbenchmarks for the numerical and simulation hot paths "
                "(google-benchmark)",
                   bench::runtime_tier::slow,
                   "drives google-benchmark in-process; JSON doubles as the CI "
                   "perf artifact (BENCH_ci); runs once regardless of "
                   "--repeat (google-benchmark is single-shot per process)") {
    csense::bench::print_header(
        "perf_micro - hot path microbenchmarks",
        "point capacities, disc quadrature, shadowed expectations, the "
        "U-statistic estimator, the event queue, a saturated DCF second");
    std::string program = "csense_bench";
    std::vector<char*> argv = {program.data()};
    int argc = static_cast<int>(argv.size());
    benchmark::Initialize(&argc, argv.data());
    recording_reporter reporter(ctx);
    const std::size_t run = benchmark::RunSpecifiedBenchmarks(&reporter);
    ctx.metric("benchmarks_run", static_cast<std::int64_t>(run));
    return run > 0 ? 0 : 1;
}
