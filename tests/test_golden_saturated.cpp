// Golden-JSON regression for the saturated default: every saturated
// config must keep reproducing the committed event sequence
// bit-for-bit. The golden document was generated with
//
//   CSENSE_FAST=1 csense_bench --filter 'camp01*,camp02*,tab05*'
//       --seed 7 --no-timings --json golden.json
//
// in a fresh working directory. The filter picks the deterministic
// packet-level scenarios that exercise the MAC end to end (multi-pair
// campaigns + the two-pair exposed-terminal table) without any
// wall-clock metrics (perf_micro's ms/iter numbers are machine noise by
// design). If this test fails, the MAC changed the saturated event
// sequence - a regression, not a baseline to re-record casually.
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

TEST(GoldenSaturated, ByteIdenticalToPreRefactorBinary) {
    const std::filesystem::path work =
        std::filesystem::path(::testing::TempDir()) / "csense_golden_sat";
    std::filesystem::remove_all(work);
    std::filesystem::create_directories(work);
    const std::filesystem::path out = work / "current.json";
    const std::string command =
        "cd \"" + work.string() + "\" && CSENSE_FAST=1 \"" +
        CSENSE_BENCH_BINARY +
        "\" --filter 'camp01*,camp02*,tab05*' --seed 7 --no-timings "
        "--json \"" +
        out.string() + "\" > /dev/null";
    ASSERT_EQ(std::system(command.c_str()), 0);

    const std::string golden = read_file(CSENSE_GOLDEN_JSON);
    ASSERT_FALSE(golden.empty())
        << "missing golden document: " << CSENSE_GOLDEN_JSON;
    const std::string current = read_file(out);
    ASSERT_FALSE(current.empty());
    EXPECT_EQ(current, golden)
        << "saturated configs must stay byte-identical to the golden "
           "document";
}

}  // namespace
