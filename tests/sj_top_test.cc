// sj_top end to end: boots sj_server on a temporary socket, serves it a
// few queries, runs `sj_top --once --snapshot=FILE` against it, and reads
// both the rendered frame and the snapshot back. CMake passes the two
// binaries' paths.

#include <gtest/gtest.h>

#include <fcntl.h>
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
#include "server/client.h"
#include "server/protocol.h"

extern char** environ;

namespace spatialjoin {
namespace {

// Starts `args` as a child process, its stdout sent to `stdout_path`
// when that is not empty; -1 when it cannot be spawned.
pid_t Spawn(std::vector<std::string> args,
            const std::string& stdout_path = "") {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  if (!stdout_path.empty()) {
    ::posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                       stdout_path.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
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
  const std::string frame = sandbox.dir + "/frame.txt";

  sandbox.server = Spawn({SJ_SERVER_PATH, "--socket=" + socket,
                          "--threads=2"});
  ASSERT_GT(sandbox.server, 0);
  // The server binds once its demo datasets are built; sj_top retries
  // its connect for only a few seconds, so wait for the socket first.
  struct stat st = {};
  for (int i = 0; i < 600 && ::stat(socket.c_str(), &st) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Three SELECTs and two JOINs, so the slow-query table has rows of both
  // kinds to render.
  {
    Result<std::unique_ptr<server::ServiceClient>> client =
        server::ServiceClient::Connect(socket);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    const auto overlaps = static_cast<uint8_t>(server::WireOp::kOverlaps);
    for (int i = 0; i < 3; ++i) {
      server::SelectRequest select;  // tree_select over dataset 0
      select.op_code = overlaps;
      select.selector = Rectangle(100 * i, 100 * i, 100 * i + 200,
                                  100 * i + 200);
      Result<server::Reply> reply = client.value()->Select(select);
      ASSERT_TRUE(reply.ok() &&
                  reply.value().type == server::MessageType::kResult);
    }
    for (int i = 0; i < 2; ++i) {
      server::JoinRequest join;  // tree_join over dataset 0
      join.op_code = overlaps;
      Result<server::Reply> reply = client.value()->Join(join);
      ASSERT_TRUE(reply.ok() &&
                  reply.value().type == server::MessageType::kResult);
    }
  }

  const pid_t top = Spawn({SJ_TOP_PATH, "--once", "--socket=" + socket,
                           "--snapshot=" + snapshot},
                          frame);
  ASSERT_GT(top, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(top, &status, 0), top);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "sj_top wait status " << status;

  const std::string text = ReadFile(snapshot);
  const JsonDocument stats = ParseJson(text);
  ASSERT_TRUE(stats.ok()) << stats.error << "\n" << text;
  EXPECT_EQ(stats.root.IntAt("stats_version", -1), 3);
  const JsonValue* slow = stats.root.Member("slow_by_latency");
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->items().size(), 5u) << text;

  const std::string rendered = ReadFile(frame);
  const size_t table = rendered.find("slowest queries");
  ASSERT_NE(table, std::string::npos) << rendered;
  EXPECT_NE(rendered.find("tree_select", table), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("tree_join", table), std::string::npos)
      << rendered;
}

}  // namespace
}  // namespace spatialjoin
