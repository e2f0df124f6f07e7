// End-to-end coverage of the command-line tools, driven through the shell
// the way a user runs them: apkgen writes packages to disk, saintdroid
// analyzes/disassembles/mines, appgraph dumps graphs. CTest runs these
// with the tests/ binary dir as CWD; the tool binaries live in ../tools.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace saintdroid {
namespace {

namespace fs = std::filesystem;

const char* tool_dir() { return "../tools"; }

bool tools_present() {
  return fs::exists(fs::path(tool_dir()) / "saintdroid") &&
         fs::exists(fs::path(tool_dir()) / "apkgen") &&
         fs::exists(fs::path(tool_dir()) / "appgraph");
}

class ToolsEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!tools_present()) GTEST_SKIP() << "tool binaries not built";
    // CTest runs each test as its own process in one shared directory, so
    // every test writes its packages and captured output under its own
    // subdirectory.
    dir_ = std::string("tool_test_tmp/") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  /// Path of `name` inside this test's scratch directory.
  std::string at(const std::string& name) const { return dir_ + "/" + name; }

  /// Runs a command, captures stdout, returns {exit code, output}.
  std::pair<int, std::string> run(const std::string& command) const {
    const std::string log = at("output.txt");
    const int rc = std::system((command + " > " + log + " 2>&1").c_str());
    std::ifstream in{log};
    std::string output{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
    return {rc, output};
  }

 private:
  std::string dir_;
};

TEST_F(ToolsEndToEnd, DemoGenerateAnalyzeSuggest) {
  auto [gen_rc, gen_out] =
      run(std::string(tool_dir()) + "/apkgen demo " + at("demo.apk"));
  ASSERT_EQ(gen_rc, 0) << gen_out;
  ASSERT_TRUE(fs::exists(at("demo.apk")));

  auto [rc, out] = run(std::string(tool_dir()) +
                       "/saintdroid analyze " + at("demo.apk") + " --suggest");
  EXPECT_EQ(WEXITSTATUS(rc), 1);  // mismatches found -> exit 1
  EXPECT_NE(out.find("[API]"), std::string::npos);
  EXPECT_NE(out.find("[PRM]"), std::string::npos);
  EXPECT_NE(out.find("[add-sdk-guard]"), std::string::npos);
}

TEST_F(ToolsEndToEnd, JsonOutputIsJson) {
  run(std::string(tool_dir()) + "/apkgen demo " + at("demo.apk"));
  auto [rc, out] = run(std::string(tool_dir()) +
                       "/saintdroid analyze " + at("demo.apk") + " --json");
  (void)rc;
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"mismatches\":["), std::string::npos);
}

TEST_F(ToolsEndToEnd, MineAndReuseDatabase) {
  auto [mine_rc, mine_out] =
      run(std::string(tool_dir()) + "/saintdroid mine " + at("api.db"));
  ASSERT_EQ(mine_rc, 0) << mine_out;
  EXPECT_NE(mine_out.find("mined"), std::string::npos);
  ASSERT_TRUE(fs::exists(at("api.db")));

  run(std::string(tool_dir()) + "/apkgen demo " + at("demo.apk"));
  auto [rc, out] =
      run(std::string(tool_dir()) +
          "/saintdroid analyze " + at("demo.apk") + " --db " + at("api.db"));
  EXPECT_EQ(WEXITSTATUS(rc), 1);
  EXPECT_NE(out.find("mismatches: 4"), std::string::npos);
}

TEST_F(ToolsEndToEnd, DisasmShowsBytecode) {
  run(std::string(tool_dir()) + "/apkgen demo " + at("demo.apk"));
  auto [rc, out] = run(std::string(tool_dir()) +
                       "/saintdroid disasm " + at("demo.apk"));
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("invoke-virtual"), std::string::npos);
  EXPECT_NE(out.find("class com/apkgen/demo/MainActivity"),
            std::string::npos);
}

TEST_F(ToolsEndToEnd, AppGraphStatsAndDot) {
  run(std::string(tool_dir()) + "/apkgen demo " + at("demo.apk"));
  auto [stats_rc, stats] = run(std::string(tool_dir()) +
                               "/appgraph " + at("demo.apk") + " --stats");
  EXPECT_EQ(stats_rc, 0);
  EXPECT_NE(stats.find("entry points"), std::string::npos);
  auto [dot_rc, dot] =
      run(std::string(tool_dir()) + "/appgraph " + at("demo.apk"));
  EXPECT_EQ(dot_rc, 0);
  EXPECT_EQ(dot.rfind("digraph", 0), 0u);
}

TEST_F(ToolsEndToEnd, RejectsCorruptPackage) {
  std::ofstream bad{at("bad.apk"), std::ios::binary};
  bad << "not an apk";
  bad.close();
  auto [rc, out] = run(std::string(tool_dir()) +
                       "/saintdroid analyze " + at("bad.apk"));
  EXPECT_EQ(WEXITSTATUS(rc), 2);
  EXPECT_NE(out.find("parse error"), std::string::npos);
}

TEST_F(ToolsEndToEnd, UsageOnBadArguments) {
  auto [rc, out] = run(std::string(tool_dir()) + "/saintdroid");
  EXPECT_NE(WEXITSTATUS(rc), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST_F(ToolsEndToEnd, ShardedBatchesMergeIntoOneCanonicalJournal) {
  auto [gen_rc, gen_out] =
      run(std::string(tool_dir()) + "/apkgen corpus " + at("corpus") + " 9");
  ASSERT_EQ(gen_rc, 0) << gen_out;

  // The app-file list, in one fixed order: the order defines the corpus
  // fingerprint, so every shard invocation must see the same list.
  std::string files;
  for (int i = 0; i < 9; ++i) {
    const std::string path =
        at("corpus/fdroid-app-") + std::to_string(i) + ".apk";
    ASSERT_TRUE(fs::exists(path)) << path;
    files += " " + path;
  }

  // Two shard processes, each journaling its interleaved slice. Corpus
  // apps have mismatches, so batch exits 1 — not a failure here.
  for (int s = 0; s < 2; ++s) {
    auto [rc, out] = run(std::string(tool_dir()) + "/saintdroid batch" +
                         files + " --jobs 2 --shard " + std::to_string(s) +
                         "/2 --journal " + at("shard") +
                         std::to_string(s) + ".jsonl");
    EXPECT_LE(WEXITSTATUS(rc), 1) << out;
    EXPECT_NE(out.find("shard " + std::to_string(s) + "/2"),
              std::string::npos);
  }

  auto [rc, out] = run(std::string(tool_dir()) +
                       "/saintdroid merge-journals " + at("merged.jsonl") +
                       " " + at("shard0.jsonl") + " " + at("shard1.jsonl"));
  EXPECT_EQ(WEXITSTATUS(rc), 0) << out;
  EXPECT_NE(out.find("9 apps, 0 duplicate"), std::string::npos);
  EXPECT_NE(out.find("0 conflicts"), std::string::npos);

  // Merging in the opposite input order produces a byte-identical file.
  auto [rev_rc, rev_out] =
      run(std::string(tool_dir()) +
          "/saintdroid merge-journals " + at("merged_rev.jsonl") + " " +
          at("shard1.jsonl") + " " + at("shard0.jsonl"));
  EXPECT_EQ(WEXITSTATUS(rev_rc), 0) << rev_out;
  EXPECT_EQ(slurp(at("merged.jsonl")), slurp(at("merged_rev.jsonl")));

  // A journal from a different shard layout (an unsharded run of the same
  // apps) is refused loudly, not silently interleaved.
  auto [full_rc, full_out] =
      run(std::string(tool_dir()) + "/saintdroid batch" + files +
          " --jobs 2 --journal " + at("full.jsonl"));
  EXPECT_LE(WEXITSTATUS(full_rc), 1) << full_out;
  auto [bad_rc, bad_out] =
      run(std::string(tool_dir()) +
          "/saintdroid merge-journals " + at("merged_bad.jsonl") + " " +
          at("shard0.jsonl") + " " + at("full.jsonl"));
  EXPECT_EQ(WEXITSTATUS(bad_rc), 2) << bad_out;
  EXPECT_NE(bad_out.find("merge-journals"), std::string::npos);
}

}  // namespace
}  // namespace saintdroid
