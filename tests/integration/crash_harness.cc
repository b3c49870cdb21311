// Process-level kill-resume fault injection for the durable checkpoint
// subsystem (src/io/checkpoint.h).
//
// Each scenario spawns the real CLI as a child process and SIGKILLs it at a
// PRNG-scheduled instant -- no cooperation from the victim, exactly the
// failure a crash, OOM kill or preemption delivers.  Every killed attempt
// restarts with `--checkpoint=P --resume-from=P`; after a bounded number of
// kills the final attempt runs uninterrupted (mine resume is root-granular,
// so a kill cadence shorter than the longest root would otherwise livelock).
// The contract under test: the surviving run's --deterministic-output JSON
// and cluster archive are byte-identical to an uninterrupted reference run,
// regardless of where the kills landed, at 1 and 4 threads, on both the
// resident text path and the mapped binary-matrix (out-of-core) path.
//
// The suite schedules >= 100 kill points in total (25 per mine scenario x 4
// scenarios, plus the sweep scenario's kills).
//
// The CLI binary comes from the REGCLUSTER_CLI environment variable (set by
// tests/CMakeLists.txt); the suite skips when it is absent so the bare test
// binary stays runnable.

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/durable_file.h"
#include "util/prng.h"

namespace regcluster {
namespace {

const char* CliPath() { return std::getenv("REGCLUSTER_CLI"); }

std::string WorkDir() {
  // Per-process: ctest runs each discovered test as its own filtered
  // process, and concurrent instances (ctest -j) must not race on the
  // shared dataset + reference files SetUpTestSuite writes here.
  static const std::string dir = [] {
    std::string d = ::testing::TempDir() + "/crash_harness_" +
                    std::to_string(static_cast<long>(::getpid()));
    ::mkdir(d.c_str(), 0755);
    return d;
  }();
  return dir;
}

struct RunResult {
  bool exited = false;   // child left via exit(), not a signal
  int exit_code = -1;    // valid when exited
  bool killed = false;   // we delivered SIGKILL before it finished
};

/// Spawns the CLI with `args`, output to /dev/null.  When `kill_after_us`
/// >= 0, sleeps that long and SIGKILLs the child; the child racing to
/// completion first is fine (killed=false, exited=true).
RunResult RunCli(const std::vector<std::string>& args, int64_t kill_after_us) {
  std::vector<std::string> full;
  full.push_back(CliPath());
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(full.size() + 1);
  for (std::string& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
      ::close(devnull);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }

  RunResult result;
  if (pid < 0) return result;
  if (kill_after_us >= 0) {
    ::usleep(static_cast<useconds_t>(kill_after_us));
    if (::kill(pid, SIGKILL) == 0) result.killed = true;
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) {
    result.exited = true;
    result.exit_code = WEXITSTATUS(status);
    // Delivered after exit but before the reap: not an interrupted run.
    result.killed = result.killed && false;
  }
  if (WIFSIGNALED(status)) result.killed = true;
  return result;
}

void ExpectFilesIdentical(const std::string& got_path,
                          const std::string& want_path, const char* what) {
  auto got = util::ReadFileToString(got_path);
  auto want = util::ReadFileToString(want_path);
  ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
  ASSERT_TRUE(want.ok()) << what << ": " << want.status().ToString();
  EXPECT_EQ(*got, *want) << what << " differs from the uninterrupted reference";
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// One-time dataset + reference setup shared by every scenario.
class CrashHarness : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (CliPath() == nullptr) return;
    const std::string dir = WorkDir();
    matrix_tsv_ = dir + "/m.tsv";
    matrix_bin_ = dir + "/m.rgx";
    auto gen = RunCli({"generate", "--out-matrix=" + matrix_tsv_,
                       "--genes=800", "--conditions=24", "--clusters=6",
                       "--gene-fraction=0.04", "--seed=17"},
                      -1);
    ASSERT_TRUE(gen.exited && gen.exit_code == 0) << "generate failed";
    auto conv = RunCli({"convert", "--in=" + matrix_tsv_,
                        "--out=" + matrix_bin_, "--out-format=bin"},
                       -1);
    ASSERT_TRUE(conv.exited && conv.exit_code == 0) << "convert failed";

    // Uninterrupted reference (threads/store-path invariant by the PR-2/6
    // determinism contract; asserted again per scenario via byte compare).
    ref_json_ = dir + "/ref.json";
    ref_out_ = dir + "/ref.out";
    std::vector<std::string> ref_args = {"mine", "--matrix=" + matrix_tsv_};
    AppendMineFlags(&ref_args);
    ref_args.push_back("--out=" + ref_out_);
    ref_args.push_back("--json=" + ref_json_);
    ref_args.push_back("--deterministic-output");
    auto ref = RunCli(ref_args, -1);
    ASSERT_TRUE(ref.exited && ref.exit_code == 0) << "reference mine failed";
  }

  // Calibrated so one uninterrupted mine takes roughly 100-200 ms: long
  // enough that most scheduled kills land mid-run, short enough that a
  // scenario's kill loop stays in seconds.
  static void AppendMineFlags(std::vector<std::string>* args) {
    args->push_back("--ming=5");
    args->push_back("--minc=4");
    args->push_back("--gamma=0.15");
    args->push_back("--epsilon=0.1");
  }

  void SetUp() override {
    if (CliPath() == nullptr) {
      GTEST_SKIP() << "REGCLUSTER_CLI not set; run via ctest";
    }
  }

  static std::string matrix_tsv_;
  static std::string matrix_bin_;
  static std::string ref_json_;
  static std::string ref_out_;
};

std::string CrashHarness::matrix_tsv_;
std::string CrashHarness::matrix_bin_;
std::string CrashHarness::ref_json_;
std::string CrashHarness::ref_out_;

struct MineScenario {
  const char* name;
  int threads;
  bool out_of_core;
};

// Without this, gtest prints the struct's raw bytes -- a pointer among
// them -- into the test's listed name, which then changes from build to
// build.
void PrintTo(const MineScenario& sc, std::ostream* os) { *os << sc.name; }

class MineKillResume : public CrashHarness,
                       public ::testing::WithParamInterface<MineScenario> {};

TEST_P(MineKillResume, FinalOutputByteIdenticalToUninterruptedRun) {
  const MineScenario& sc = GetParam();
  const std::string dir = WorkDir();
  const std::string tag = std::string("mine_") + sc.name;
  const std::string ckpt = dir + "/" + tag + ".ckpt";
  const std::string json = dir + "/" + tag + ".json";
  const std::string out = dir + "/" + tag + ".out";

  std::vector<std::string> args = {"mine"};
  if (sc.out_of_core) {
    args.push_back("--matrix=" + matrix_bin_);
    args.push_back("--matrix-format=bin");
  } else {
    args.push_back("--matrix=" + matrix_tsv_);
  }
  AppendMineFlags(&args);
  args.push_back("--threads=" + std::to_string(sc.threads));
  args.push_back("--out=" + out);
  args.push_back("--json=" + json);
  args.push_back("--deterministic-output");
  args.push_back("--checkpoint=" + ckpt);
  args.push_back("--checkpoint-every-ms=20");
  args.push_back("--resume-from=" + ckpt);

  // 25 PRNG kill points per scenario (seeded per scenario so the schedules
  // differ but reproduce).  Kills are bounded: if the run survives them
  // all, the last attempt runs uninterrupted -- mine resume is
  // root-granular, so an unbounded kill cadence shorter than the longest
  // root would livelock by design.
  util::Prng prng(4242 + sc.threads * 100 + (sc.out_of_core ? 1 : 0));
  constexpr int kKills = 25;
  int kills_delivered = 0;
  bool saw_checkpoint = false;
  bool completed = false;
  for (int attempt = 0; attempt < kKills && !completed; ++attempt) {
    const int64_t delay_us = prng.UniformInt(10'000, 160'000);
    RunResult r = RunCli(args, delay_us);
    if (r.killed) ++kills_delivered;
    saw_checkpoint =
        saw_checkpoint || FileExists(ckpt + ".a") || FileExists(ckpt + ".b");
    if (r.exited) {
      ASSERT_EQ(r.exit_code, 0) << tag << " attempt " << attempt;
      completed = true;
    }
  }
  if (!completed) {
    RunResult last = RunCli(args, -1);
    ASSERT_TRUE(last.exited) << tag << " final attempt did not exit";
    ASSERT_EQ(last.exit_code, 0) << tag << " final attempt failed";
  }

  EXPECT_GT(kills_delivered, 0) << "no kill landed; scenario is vacuous";
  EXPECT_TRUE(saw_checkpoint) << "no snapshot was ever written";
  ExpectFilesIdentical(json, ref_json_, "mine json");
  ExpectFilesIdentical(out, ref_out_, "cluster archive");
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, MineKillResume,
    ::testing::Values(MineScenario{"t1_resident", 1, false},
                      MineScenario{"t4_resident", 4, false},
                      MineScenario{"t1_outofcore", 1, true},
                      MineScenario{"t4_outofcore", 4, true}),
    [](const ::testing::TestParamInfo<MineScenario>& info) {
      return info.param.name;
    });

TEST_F(CrashHarness, SweepKillResumeByteIdentical) {
  const std::string dir = WorkDir();
  const std::string spec = "gamma=0.1;0.12;0.15;0.18;0.2,eps=0.1";

  // Uninterrupted sweep reference, timed: the kill window below is scaled
  // to the measured duration so the scenario stays non-vacuous on hosts
  // where the sweep runs in tens of milliseconds.
  const std::string ref_json = dir + "/sweep_ref.json";
  const std::string ref_csv = dir + "/sweep_ref.csv";
  const auto ref_start = std::chrono::steady_clock::now();
  auto ref = RunCli({"mine", "--matrix=" + matrix_tsv_, "--ming=5",
                     "--minc=4", "--sweep=" + spec,
                     "--sweep-out=" + ref_json, "--sweep-csv=" + ref_csv,
                     "--deterministic-output"},
                    -1);
  const int64_t ref_us = std::max<int64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - ref_start)
          .count(),
      20'000);
  ASSERT_TRUE(ref.exited && ref.exit_code == 0) << "reference sweep failed";

  const std::string ckpt = dir + "/sweep.ckpt";
  const std::string json = dir + "/sweep.json";
  const std::string csv = dir + "/sweep.csv";
  const std::vector<std::string> args = {
      "mine", "--matrix=" + matrix_tsv_, "--ming=5", "--minc=4",
      "--sweep=" + spec, "--sweep-out=" + json, "--sweep-csv=" + csv,
      "--deterministic-output", "--checkpoint=" + ckpt,
      "--checkpoint-every-ms=20", "--resume-from=" + ckpt};

  // Sweep snapshots land at gamma-group boundaries, so the kill delays
  // span the measured sweep duration; kills are bounded like the mine's.
  // A run that completes before its kill lands is re-armed with a halved
  // window (and cleared snapshot buffers, so the retry is a real re-run,
  // not a fast replay of the completed snapshot) until a kill connects.
  util::Prng prng(777);
  constexpr int kKills = 10;
  int64_t window_us = ref_us;
  int kills_delivered = 0;
  bool completed = false;
  for (int attempt = 0; attempt < kKills && !completed; ++attempt) {
    const int64_t delay_us =
        prng.UniformInt(window_us / 10 + 1, window_us * 9 / 10 + 2);
    RunResult r = RunCli(args, delay_us);
    if (r.killed) ++kills_delivered;
    if (r.exited) {
      ASSERT_EQ(r.exit_code, 0) << "sweep attempt " << attempt;
      if (kills_delivered > 0) {
        completed = true;
      } else {
        std::remove((ckpt + ".a").c_str());
        std::remove((ckpt + ".b").c_str());
        window_us = std::max<int64_t>(window_us / 2, 10'000);
      }
    }
  }
  if (!completed) {
    RunResult last = RunCli(args, -1);
    ASSERT_TRUE(last.exited && last.exit_code == 0)
        << "final sweep attempt failed";
  }

  EXPECT_GT(kills_delivered, 0) << "no kill landed; scenario is vacuous";
  ExpectFilesIdentical(json, ref_json, "sweep json");
  ExpectFilesIdentical(csv, ref_csv, "sweep csv");
}

TEST_F(CrashHarness, TornSnapshotFilesFallBackOrFailLoud) {
  // Simulate the worst crash artifact: both buffers present, the newer one
  // torn mid-write.  The resume must use the older buffer (exit 0 and
  // byte-identical output), never the torn one.
  const std::string dir = WorkDir();
  const std::string ckpt = dir + "/torn.ckpt";
  const std::string json = dir + "/torn.json";
  const std::string out = dir + "/torn.out";

  std::vector<std::string> args = {"mine", "--matrix=" + matrix_tsv_};
  AppendMineFlags(&args);
  args.push_back("--out=" + out);
  args.push_back("--json=" + json);
  args.push_back("--deterministic-output");
  args.push_back("--checkpoint=" + ckpt);
  args.push_back("--checkpoint-every-ms=20");
  args.push_back("--resume-from=" + ckpt);

  // Kill mid-run until BOTH snapshot buffers exist: tearing one buffer
  // only exercises the fallback when the other remains on disk.  A kill
  // that lands before the second generation leaves a single buffer, and
  // tearing the only snapshot is the (separately pinned) refusal path,
  // not this test.
  util::Prng prng(99);
  for (int attempt = 0; attempt < 10; ++attempt) {
    RunResult r = RunCli(args, prng.UniformInt(40'000, 120'000));
    if (FileExists(ckpt + ".a") && FileExists(ckpt + ".b")) break;
    if (r.exited && r.exit_code == 0) break;
  }
  if (FileExists(ckpt + ".a") && FileExists(ckpt + ".b")) {
    const std::string torn_buffer = ckpt + ".b";
    auto bytes = util::ReadFileToString(torn_buffer);
    if (bytes.ok() && bytes->size() > 8) {
      ASSERT_TRUE(util::AtomicWriteFile(torn_buffer,
                                        bytes->substr(0, bytes->size() / 2))
                      .ok());
    }
  }

  RunResult r = RunCli(args, -1);
  ASSERT_TRUE(r.exited);
  ASSERT_EQ(r.exit_code, 0) << "resume after torn buffer failed";
  ExpectFilesIdentical(json, ref_json_, "post-torn json");
  ExpectFilesIdentical(out, ref_out_, "post-torn archive");
}

}  // namespace
}  // namespace regcluster
