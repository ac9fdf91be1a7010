// Integration tests for maabe-loadgen: drive the real binary through a
// kill → traffic → rejoin scenario and check the recovery reporting
// surface (--recovery-stats table section, BENCH_workload_cli.json keys).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#ifndef MAABE_LOADGEN_PATH
#error "MAABE_LOADGEN_PATH must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;

class LoadgenCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("maabe-loadgen-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// Runs the binary inside the temp dir (it writes its JSON to cwd),
  /// forcing the fast curve; captures stdout to out.txt.
  int run(const std::string& args) {
    const std::string cmd = "cd " + dir_.string() + " && MAABE_BENCH_SMALL=1 " +
                            std::string(MAABE_LOADGEN_PATH) + " " + args +
                            " > out.txt 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string read_file(const std::string& name) {
    std::ifstream in(dir_ / name);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  fs::path dir_;
};

TEST_F(LoadgenCliTest, RejoinScenarioEmitsRecoveryStats) {
  ASSERT_EQ(run("--ops 50 --files 12 --kill-at 10 --kill-node 1 "
                "--rejoin-at 35 --recovery-stats --seed 7"),
            0);
  const std::string out = read_file("out.txt");
  EXPECT_NE(out.find("recovery:"), std::string::npos) << out;
  EXPECT_NE(out.find("1 rejoins"), std::string::npos) << out;

  const std::string json = read_file("BENCH_workload_cli.json");
  EXPECT_NE(json.find("\"rejoins\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"recovery_convergence_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery_bytes_transferred\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery_files_transferred\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery_epochs_resolved\""), std::string::npos);
}

TEST_F(LoadgenCliTest, NoRecoveryFlagKeepsTableQuiet) {
  ASSERT_EQ(run("--ops 20 --seed 3"), 0);
  const std::string out = read_file("out.txt");
  EXPECT_EQ(out.find("recovery:"), std::string::npos) << out;
  // The JSON always carries the keys (zeroed without a rejoin event) so
  // downstream guards can rely on their presence.
  const std::string json = read_file("BENCH_workload_cli.json");
  EXPECT_NE(json.find("\"rejoins\": 0"), std::string::npos) << json;
}

TEST_F(LoadgenCliTest, UnknownFlagFailsWithUsage) {
  EXPECT_EQ(run("--bogus"), 2);
  EXPECT_NE(read_file("out.txt").find("usage:"), std::string::npos);
}

}  // namespace
