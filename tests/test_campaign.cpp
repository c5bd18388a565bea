// The deterministic campaign layer: sharded replications must place
// results by index and reproduce the serial loop bit-for-bit at any
// thread count (the --threads-is-only-a-wall-clock-knob contract).
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/sim/campaign.hpp"

namespace {

using namespace csense::sim;

campaign_options options_with(std::size_t replications, std::size_t shard,
                              int threads, std::uint64_t seed = 99) {
    campaign_options opt;
    opt.replications = replications;
    opt.shard_size = shard;
    opt.threads = threads;
    opt.seed = seed;
    return opt;
}

TEST(Campaign, MapMatchesSerialLoopBitwise) {
    // run_replications at any thread count == the hand-written serial
    // loop with the same split-RNG discipline, bit for bit.
    const std::size_t n = 1000;
    std::vector<double> serial(n);
    const csense::stats::rng base(99);
    for (std::size_t i = 0; i < n; ++i) {
        csense::stats::rng gen = base.split(i);
        serial[i] = gen.normal() + gen.uniform();
    }
    for (int threads : {1, 2, 4, 7}) {
        const auto mapped = run_replications<double>(
            options_with(n, 16, threads),
            [](std::size_t, csense::stats::rng& gen) {
                return gen.normal() + gen.uniform();
            });
        ASSERT_EQ(mapped.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(mapped[i], serial[i]) << "index " << i << ", threads "
                                            << threads;
        }
    }
}

TEST(Campaign, MapIsInvariantToShardSize) {
    // Shard size groups work but never changes per-index placement.
    const std::size_t n = 257;  // deliberately not a multiple of any shard
    auto run = [&](std::size_t shard) {
        return run_replications<double>(
            options_with(n, shard, 4),
            [](std::size_t i, csense::stats::rng& gen) {
                return gen.uniform() + static_cast<double>(i);
            });
    };
    const auto a = run(1);
    const auto b = run(16);
    const auto c = run(1000);  // one shard holding everything
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
}

TEST(Campaign, ReplicationStreamsAreDecorrelated) {
    // Adjacent replications must not share RNG state: the mean of many
    // split streams' first uniforms behaves like independent draws.
    const std::size_t n = 4000;
    const auto draws = run_replications<double>(
        options_with(n, 64, 2),
        [](std::size_t, csense::stats::rng& gen) { return gen.uniform(); });
    const double mean =
        std::accumulate(draws.begin(), draws.end(), 0.0) / double(n);
    EXPECT_NEAR(mean, 0.5, 0.03);
    std::size_t equal_neighbours = 0;
    for (std::size_t i = 1; i < n; ++i) {
        if (draws[i] == draws[i - 1]) ++equal_neighbours;
    }
    EXPECT_EQ(equal_neighbours, 0u);
}

TEST(Campaign, EmptyCampaignIsANoOp) {
    const auto results = run_replications<int>(
        options_with(0, 8, 4),
        [](std::size_t, csense::stats::rng&) { return 1; });
    EXPECT_TRUE(results.empty());
    bool called = false;
    for_each_shard(options_with(0, 8, 4),
                   [&called](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(Campaign, RejectsBadOptions) {
    EXPECT_THROW(run_replications<int>(
                     options_with(10, 0, 1),
                     [](std::size_t, csense::stats::rng&) { return 1; }),
                 std::invalid_argument);
    EXPECT_THROW(for_each_shard(options_with(10, 0, 1),
                                [](std::size_t, std::size_t) {}),
                 std::invalid_argument);
    EXPECT_THROW(for_each_shard(options_with(10, 4, -1),
                                [](std::size_t, std::size_t) {}),
                 std::invalid_argument);
}

TEST(Campaign, ExceptionsPropagateToCaller) {
    EXPECT_THROW(
        run_replications<int>(options_with(100, 4, 2),
                              [](std::size_t i, csense::stats::rng&) -> int {
                                  if (i == 57) {
                                      throw std::runtime_error("boom");
                                  }
                                  return 0;
                              }),
        std::runtime_error);
}

}  // namespace
