// Golden-JSON regressions for the packet-level MAC: committed documents
// pin the event sequence bit-for-bit. Each was generated in a fresh
// working directory with the command its test runs, e.g.
//
//   CSENSE_FAST=1 csense_bench --filter 'camp01*,camp02*,tab05*'
//       --seed 7 --no-timings --json golden.json
//
// - saturated_fast_seed7.json: the saturated default on the medium
//   without an audibility floor (multi-pair campaigns + the two-pair
//   exposed-terminal table);
// - adaptive_culled_fast_seed7.json: adaptive carrier sense (camp03/04),
//   the neighbour-culled medium (camp05, capped at N = 200) and
//   unsaturated unicast traffic (camp06, capped at N = 50).
//
// No filter selects a wall-clock metric (perf_micro's ms/iter numbers
// are machine noise by design). If a test fails, the MAC changed the
// event sequence - a regression, not a baseline to re-record casually.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Runs csense_bench with `env` and `filter` at seed 7 in a fresh
/// directory and expects its JSON to equal the golden document `name`.
void expect_matches_golden(const std::string& env, const std::string& filter,
                           const std::string& name) {
    const std::filesystem::path work =
        std::filesystem::path(::testing::TempDir()) / ("csense_golden_" + name);
    std::filesystem::remove_all(work);
    std::filesystem::create_directories(work);
    const std::filesystem::path out = work / "current.json";
    const std::string command =
        "cd \"" + work.string() + "\" && " + env + " \"" +
        CSENSE_BENCH_BINARY + "\" --filter '" + filter +
        "' --seed 7 --no-timings --json \"" + out.string() + "\" > /dev/null";
    ASSERT_EQ(std::system(command.c_str()), 0);

    const std::filesystem::path golden_path =
        std::filesystem::path(CSENSE_GOLDEN_DIR) / name;
    const std::string golden = read_file(golden_path);
    ASSERT_FALSE(golden.empty())
        << "missing golden document: " << golden_path.string();
    const std::string current = read_file(out);
    ASSERT_FALSE(current.empty());
    EXPECT_EQ(current, golden)
        << "output must stay byte-identical to " << golden_path.string();
}

TEST(GoldenSaturated, ByteIdenticalToPreRefactorBinary) {
    expect_matches_golden("CSENSE_FAST=1", "camp01*,camp02*,tab05*",
                          "saturated_fast_seed7.json");
}

TEST(GoldenAdaptiveCulled, ByteIdenticalToPinnedDocument) {
    expect_matches_golden(
        "CSENSE_FAST=1 CSENSE_CAMP05_NMAX=200 CSENSE_CAMP06_NMAX=50",
        "camp03*,camp04*,camp05*,camp06*", "adaptive_culled_fast_seed7.json");
}

}  // namespace
