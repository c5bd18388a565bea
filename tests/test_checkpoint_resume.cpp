// Crash-safety regression for `csense_bench --checkpoint <dir>`: a run
// killed with SIGKILL mid-sweep and rerun over the same checkpoint
// store must produce JSON byte-identical to an uninterrupted run (with
// --no-timings), loading completed units instead of recomputing them.
// This is the in-tree twin of the CI kill-and-resume smoke job.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#if __has_include(<sys/wait.h>)
#include <sys/wait.h>
#include <unistd.h>
#define CSENSE_HAVE_FORK 1
#else
#define CSENSE_HAVE_FORK 0
#endif

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

int run_bench(const fs::path& workdir, const std::string& args,
              const std::string& env, const fs::path& log) {
    const std::string command = "cd \"" + workdir.string() +
                                "\" && CSENSE_FAST=1 " + env + " \"" +
                                CSENSE_BENCH_BINARY + "\" " + args + " > \"" +
                                log.string() + "\" 2>&1";
    const int code = std::system(command.c_str());
#ifdef WEXITSTATUS
    return WIFEXITED(code) ? WEXITSTATUS(code) : -1;
#else
    return code;
#endif
}

TEST(CheckpointResume, ResumedRunIsByteIdenticalToUninterrupted) {
    // No kill needed for byte-identity itself: complete half the sweep,
    // then the full sweep over the same store. The camp01+x01 pairing
    // covers both a campaign scenario and a plain one.
    const fs::path base =
        fs::path(::testing::TempDir()) / "csense_ckpt_resume";
    fs::remove_all(base);
    fs::create_directories(base / "full");
    fs::create_directories(base / "part");
    const std::string filter = "'fn12_slope_bound,x01_shadowing_example'";
    ASSERT_EQ(run_bench(base / "full",
                        "--filter " + filter +
                            " --no-timings --json full.json",
                        "", base / "full.log"),
              0);
    ASSERT_EQ(run_bench(base / "part",
                        "--filter fn12_slope_bound --no-timings "
                        "--checkpoint ck --json half.json",
                        "", base / "part_a.log"),
              0);
    ASSERT_EQ(run_bench(base / "part",
                        "--filter " + filter +
                            " --no-timings --checkpoint ck --json "
                            "resumed.json",
                        "", base / "part_b.log"),
              0);
    const std::string full = read_file(base / "full" / "full.json");
    ASSERT_FALSE(full.empty());
    EXPECT_EQ(full, read_file(base / "part" / "resumed.json"))
        << "resume over a checkpoint store must be byte-identical to an "
           "uninterrupted run";
    EXPECT_NE(read_file(base / "part_b.log").find("loaded from checkpoint"),
              std::string::npos)
        << "the resumed run recomputed a completed scenario";
}

TEST(CheckpointResume, CampaignReplicationsReplayByteIdentical) {
    // camp05/camp06 checkpoint every campaign replication on its own.
    // Dropping the scenario records forces the rerun to rebuild both
    // scenarios from the replication records alone, which must replay
    // the storeless run byte-for-byte without simulating anything.
    const fs::path base =
        fs::path(::testing::TempDir()) / "csense_ckpt_replay";
    fs::remove_all(base);
    fs::create_directories(base / "plain");
    fs::create_directories(base / "ckpt");
    const std::string args = "--filter 'camp05*,camp06*' --no-timings ";
    const std::string env = "CSENSE_CAMP05_NMAX=200 CSENSE_CAMP06_NMAX=10";
    ASSERT_EQ(run_bench(base / "plain", args + "--json plain.json", env,
                        base / "plain.log"),
              0);
    ASSERT_EQ(run_bench(base / "ckpt",
                        args + "--checkpoint ck --json first.json", env,
                        base / "first.log"),
              0);
    int dropped = 0;
    for (const auto& entry : fs::directory_iterator(base / "ckpt" / "ck")) {
        if (entry.path().filename().string().rfind("scenario_", 0) == 0) {
            fs::remove(entry.path());
            ++dropped;
        }
    }
    ASSERT_EQ(dropped, 2) << "one scenario record per campaign expected";
    ASSERT_EQ(run_bench(base / "ckpt",
                        args + "--checkpoint ck --json replay.json", env,
                        base / "replay.log"),
              0);
    const std::string plain = read_file(base / "plain" / "plain.json");
    ASSERT_FALSE(plain.empty());
    EXPECT_EQ(plain, read_file(base / "ckpt" / "replay.json"))
        << "replaying campaign replications from the store must be "
           "byte-identical to a storeless run";
    const std::string replay_log = read_file(base / "replay.log");
    EXPECT_NE(replay_log.find("checkpoint: 2 loaded, 2 stored"),
              std::string::npos)
        << replay_log;
}

TEST(CheckpointResume, KilledMidSweepResumesByteIdentical) {
#if !CSENSE_HAVE_FORK
    GTEST_SKIP() << "needs fork/kill";
#else
    // The real crash drill: SIGKILL the runner while the drill scenario
    // sleeps (after fn12 completed and checkpointed), then rerun the
    // same command. The merged JSON must match an uninterrupted run
    // byte-for-byte.
    const fs::path base = fs::path(::testing::TempDir()) / "csense_ckpt_kill";
    fs::remove_all(base);
    fs::create_directories(base / "full");
    fs::create_directories(base / "kill");
    const std::string filter = "'fn12_slope_bound,x00_fault_drill'";
    // The same drill knobs everywhere: CSENSE_* env vars are part of
    // every checkpoint key, so the resumed run must match the killed
    // one. 4 s of cancellation-checked sleep is the kill window.
    const std::string env =
        "CSENSE_DRILL_MODE=sleep CSENSE_DRILL_MS=4000";
    ASSERT_EQ(run_bench(base / "full",
                        "--filter " + filter +
                            " --no-timings --json out.json",
                        env, base / "full.log"),
              0);

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Re-exec the bench in its own process group so the SIGKILL hits
        // the runner itself, exactly like an OOM kill or operator ^C -9.
        const std::string command =
            "cd \"" + (base / "kill").string() + "\" && exec env " + env +
            " CSENSE_FAST=1 \"" + CSENSE_BENCH_BINARY + "\" --filter " +
            filter + " --no-timings --checkpoint ck --json out.json " +
            "> run.log 2>&1";
        execl("/bin/sh", "sh", "-c", command.c_str(),
              static_cast<char*>(nullptr));
        _exit(127);
    }
    // Wait until fn12's scenario record lands in the store (the drill is
    // sleeping by then), then SIGKILL the whole tree mid-run.
    const fs::path store = base / "kill" / "ck";
    bool checkpointed = false;
    for (int i = 0; i < 2000; ++i) {
        if (fs::exists(store)) {
            for (const auto& entry : fs::directory_iterator(store)) {
                const std::string name = entry.path().filename().string();
                if (name.rfind("scenario_fn12", 0) == 0) {
                    checkpointed = true;
                    break;
                }
            }
        }
        if (checkpointed) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(child, SIGKILL);
    int status = 0;
    waitpid(child, &status, 0);
    ASSERT_TRUE(checkpointed)
        << "fn12 never checkpointed; log:\n"
        << read_file(base / "kill" / "run.log");
    ASSERT_FALSE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "the run was supposed to die mid-sweep";
    ASSERT_FALSE(fs::exists(base / "kill" / "out.json"))
        << "the killed run must not have produced a merged document";

    // Resume the identical command: fn12 loads from the store, the
    // drill (killed mid-sleep, so never checkpointed) recomputes.
    ASSERT_EQ(run_bench(base / "kill",
                        "--filter " + filter +
                            " --no-timings --checkpoint ck --json out.json",
                        env, base / "resume.log"),
              0);
    const std::string resumed_log = read_file(base / "resume.log");
    EXPECT_NE(resumed_log.find("loaded from checkpoint"), std::string::npos)
        << resumed_log;

    const std::string full = read_file(base / "full" / "out.json");
    ASSERT_FALSE(full.empty());
    EXPECT_EQ(full, read_file(base / "kill" / "out.json"))
        << "kill -9 + resume must reproduce the uninterrupted document "
           "byte-for-byte";
#endif
}

}  // namespace
