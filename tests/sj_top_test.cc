// sj_top end to end: boots sj_server on a temporary socket, runs
// `sj_top --once --snapshot=FILE` against it, and reads the snapshot back
// through the JSON reader. CMake passes the two binaries' paths.

#include <gtest/gtest.h>

#include <signal.h>
#include <spawn.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.h"

extern char** environ;

namespace spatialjoin {
namespace {

// Starts `args` as a child process; -1 when it cannot be spawned.
pid_t Spawn(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  return ::posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(),
                       environ) == 0
             ? pid
             : -1;
}

// Owns the temporary directory and the server: both go away on every
// exit path, failed assertions included.
struct Sandbox {
  explicit Sandbox(std::string path) : dir(std::move(path)) {}
  Sandbox(const Sandbox&) = delete;
  Sandbox& operator=(const Sandbox&) = delete;
  ~Sandbox() {
    if (server > 0) {
      ::kill(server, SIGTERM);
      ::waitpid(server, nullptr, 0);
    }
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }

  const std::string dir;
  pid_t server = -1;
};

TEST(SjTopTest, OnceAgainstALiveServerWritesAParseableSnapshot) {
  char dir[] = "/tmp/sj_top_test.XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  Sandbox sandbox(dir);
  const std::string socket = sandbox.dir + "/sj.sock";
  const std::string snapshot = sandbox.dir + "/stats.json";

  sandbox.server = Spawn({SJ_SERVER_PATH, "--socket=" + socket,
                          "--threads=2"});
  ASSERT_GT(sandbox.server, 0);
  // The server binds once its demo datasets are built; sj_top retries
  // its connect for only a few seconds, so wait for the socket first.
  struct stat st = {};
  for (int i = 0; i < 600 && ::stat(socket.c_str(), &st) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  const pid_t top = Spawn({SJ_TOP_PATH, "--once", "--socket=" + socket,
                           "--snapshot=" + snapshot});
  ASSERT_GT(top, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(top, &status, 0), top);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "sj_top wait status " << status;

  std::ifstream in(snapshot);
  std::stringstream text;
  text << in.rdbuf();
  const JsonDocument stats = ParseJson(text.str());
  ASSERT_TRUE(stats.ok()) << stats.error << "\n" << text.str();
  EXPECT_EQ(stats.root.IntAt("stats_version", -1), 2);
}

}  // namespace
}  // namespace spatialjoin
