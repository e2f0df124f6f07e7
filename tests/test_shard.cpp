// Differential test harness for multi-process sharded corpus runs.
//
// The load-bearing property is *shard/merge/resume equivalence*: over a
// 200-app corpus, {one process} ≡ {N shards, journals merged} ≡ {a shard
// killed mid-append, resumed, then merged} — byte-identically, in the
// canonical currency (rows sorted by app name, journal_line serialization,
// wall-clock seconds zeroed), across jobs ∈ {1, 2, 8} and shard counts
// ∈ {1, 3, 7}, with injected faults landing in the same rows either way.
// Around that sit the merge edge cases (empty inputs, silent dedup,
// divergent-row conflicts, header mismatch rejection) and a byte-offset
// sweep of the JournalWriter append-mode sealing contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "temp_root.hpp"
#include "adf/repository.hpp"
#include "core/saintdroid.hpp"
#include "support/errors.hpp"
#include "support/faults.hpp"
#include "workload/corpus.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace saintdroid {
namespace {

std::string temp_path(const std::string& name) {
  return process_temp_path(name);
}

/// The byte-identity currency: one canonical line per row (seconds
/// zeroed), sorted lexicographically by line — which sorts by app name,
/// since every line starts with `{"app":"<name>"`.
std::string sorted_canonical(std::span<const SuiteAppRow> rows) {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const auto& row : rows) lines.push_back(canonical_row_bytes(row));
  std::sort(lines.begin(), lines.end());
  std::string bytes;
  for (const auto& line : lines) {
    bytes += line;
    bytes += '\n';
  }
  return bytes;
}

SuiteAppRow named_row(const std::string& app, std::size_t mismatches = 0,
                      double seconds = 0.0) {
  SuiteAppRow row;
  row.app = app;
  row.mismatch_count = mismatches;
  row.usage.seconds = seconds;
  return row;
}

std::vector<BenchApp> named_apps(std::initializer_list<const char*> names) {
  std::vector<BenchApp> apps;
  for (const char* name : names) {
    BenchApp app;
    app.apk.name = name;
    apps.push_back(std::move(app));
  }
  return apps;
}

// --- shard_slice ---------------------------------------------------------------

TEST(ShardSlice, InterleavedSlicesPartitionTheInput) {
  const auto apps =
      named_apps({"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"});
  for (const int count : {1, 3, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(count));
    std::vector<std::string> combined;
    for (int s = 0; s < count; ++s) {
      const auto slice = shard_slice(apps, s, count);
      for (std::size_t k = 0; k < slice.size(); ++k) {
        // Slice s holds exactly the input positions s, s+count, ...
        EXPECT_EQ(slice[k].apk.name,
                  apps[static_cast<std::size_t>(s) + k * count].apk.name);
        combined.push_back(slice[k].apk.name);
      }
    }
    std::sort(combined.begin(), combined.end());
    ASSERT_EQ(combined.size(), apps.size());
    EXPECT_EQ(std::unique(combined.begin(), combined.end()), combined.end());
  }
}

TEST(ShardSlice, SingleShardIsIdentity) {
  const auto apps = named_apps({"x", "y", "z"});
  const auto slice = shard_slice(apps, 0, 1);
  ASSERT_EQ(slice.size(), 3u);
  EXPECT_EQ(slice[2].apk.name, "z");
}

TEST(ShardSlice, MoreShardsThanAppsYieldsEmptyTailSlices) {
  const auto apps = named_apps({"x", "y"});
  EXPECT_EQ(shard_slice(apps, 0, 7).size(), 1u);
  EXPECT_EQ(shard_slice(apps, 1, 7).size(), 1u);
  EXPECT_TRUE(shard_slice(apps, 6, 7).empty());
}

TEST(ShardSlice, InvalidSpecThrows) {
  const auto apps = named_apps({"x"});
  EXPECT_THROW(shard_slice(apps, -1, 3), ConfigError);
  EXPECT_THROW(shard_slice(apps, 3, 3), ConfigError);
  EXPECT_THROW(shard_slice(apps, 0, 0), ConfigError);
}

// --- corpus fingerprint --------------------------------------------------------

TEST(CorpusFingerprint, StableAndSensitiveToContentAndOrder) {
  const auto apps = named_apps({"a", "b", "c"});
  const std::string fp = corpus_fingerprint(apps);
  EXPECT_EQ(fp.size(), 16u);
  EXPECT_EQ(fp, corpus_fingerprint(apps));  // deterministic
  EXPECT_NE(fp, corpus_fingerprint(named_apps({"a", "b"})));
  EXPECT_NE(fp, corpus_fingerprint(named_apps({"b", "a", "c"})));
  // Names must not concatenate ambiguously across boundaries.
  EXPECT_NE(corpus_fingerprint(named_apps({"ab", "c"})),
            corpus_fingerprint(named_apps({"a", "bc"})));
}

// --- journal header ------------------------------------------------------------

TEST(JournalHeaderRow, RoundTripsThroughItsLine) {
  JournalHeader header;
  header.corpus = "deadbeef01234567";
  header.shard_index = 2;
  header.shard_count = 7;
  header.tool = "saintdroid";
  const std::string line = journal_header_line(header);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto parsed = parse_journal_header(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->schema, kJournalSchemaVersion);
  EXPECT_EQ(parsed->corpus, header.corpus);
  EXPECT_EQ(parsed->shard_index, 2);
  EXPECT_EQ(parsed->shard_count, 7);
  EXPECT_EQ(parsed->tool, "saintdroid");
  EXPECT_FALSE(parsed->merged());
}

TEST(JournalHeaderRow, HeaderAndRowParsersRejectEachOther) {
  const std::string header_line = journal_header_line(JournalHeader{});
  const std::string row_line = journal_line(named_row("some-app"));
  EXPECT_FALSE(parse_journal_line(header_line).has_value());
  EXPECT_FALSE(parse_journal_header(row_line).has_value());
  EXPECT_FALSE(parse_journal_header("not json").has_value());
  EXPECT_FALSE(parse_journal_header("{\"journal\":\"x\"}").has_value());
}

TEST(JournalHeaderRow, CompatibilityIgnoresShardIndexAndTool) {
  JournalHeader a;
  a.corpus = "c";
  a.shard_count = 3;
  JournalHeader b = a;
  b.shard_index = 2;
  b.tool = "other";
  EXPECT_TRUE(headers_compatible(a, b));
  b = a;
  b.schema = a.schema + 1;
  EXPECT_FALSE(headers_compatible(a, b));
  b = a;
  b.corpus = "d";
  EXPECT_FALSE(headers_compatible(a, b));
  b = a;
  b.shard_count = 4;
  EXPECT_FALSE(headers_compatible(a, b));
}

TEST(JournalHeaderRow, LoadJournalFileSplitsHeaderFromRows) {
  const std::string path = temp_path("journal_header_load.jsonl");
  JournalHeader header;
  header.corpus = "abc";
  header.shard_index = 1;
  header.shard_count = 3;
  {
    std::ofstream out{path, std::ios::trunc};
    out << journal_header_line(header) << "\n";
    out << journal_line(named_row("app-a")) << "\n";
    out << journal_line(named_row("app-b")) << "\n";
  }
  const JournalFile file = load_journal_file(path);
  ASSERT_TRUE(file.header.has_value());
  EXPECT_EQ(file.header->corpus, "abc");
  ASSERT_EQ(file.rows.size(), 2u);
  EXPECT_EQ(file.rows[0].app, "app-a");
  // load_journal skips the header: rows only, for legacy callers.
  EXPECT_EQ(load_journal(path).size(), 2u);
  std::remove(path.c_str());
}

// --- JournalWriter header handling ---------------------------------------------

TEST(JournalWriterHeader, FreshRunWritesHeaderFirst) {
  const std::string path = temp_path("journal_fresh_header.jsonl");
  JournalHeader header;
  header.corpus = "fp";
  header.shard_index = 1;
  header.shard_count = 2;
  {
    JournalWriter writer{path, /*append=*/false, header};
    writer.append(named_row("after-header"));
  }
  const JournalFile file = load_journal_file(path);
  ASSERT_TRUE(file.header.has_value());
  EXPECT_EQ(file.header->corpus, "fp");
  EXPECT_EQ(file.header->shard_index, 1);
  ASSERT_EQ(file.rows.size(), 1u);
  std::remove(path.c_str());
}

TEST(JournalWriterHeader, ResumeIntoWrongShardFailsLoudly) {
  const std::string path = temp_path("journal_wrong_shard.jsonl");
  JournalHeader header;
  header.corpus = "fp";
  header.shard_index = 0;
  header.shard_count = 2;
  { JournalWriter writer{path, /*append=*/false, header}; }

  JournalHeader other = header;
  other.shard_index = 1;
  EXPECT_THROW((JournalWriter{path, /*append=*/true, other}), ConfigError);
  other = header;
  other.corpus = "different";
  EXPECT_THROW((JournalWriter{path, /*append=*/true, other}), ConfigError);
  // The matching shard resumes fine.
  {
    JournalWriter writer{path, /*append=*/true, header};
    writer.append(named_row("resumed"));
  }
  EXPECT_EQ(load_journal(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(JournalWriterHeader, LegacyHeaderlessJournalIsAccepted) {
  const std::string path = temp_path("journal_legacy.jsonl");
  {
    std::ofstream out{path, std::ios::trunc};
    out << journal_line(named_row("old-row")) << "\n";
  }
  JournalHeader header;
  header.corpus = "fp";
  {
    JournalWriter writer{path, /*append=*/true, header};
    writer.append(named_row("new-row"));
  }
  const JournalFile file = load_journal_file(path);
  EXPECT_FALSE(file.header.has_value());  // no header injected mid-file
  EXPECT_EQ(file.rows.size(), 2u);
  std::remove(path.c_str());
}

// --- append-mode sealing, at every byte offset ---------------------------------

TEST(JournalWriterSeal, KillAtEveryByteOffsetNeverLosesASealedRow) {
  const std::string path = temp_path("journal_seal_sweep.jsonl");
  const SuiteAppRow sealed = named_row("sealed-row", 3);
  const SuiteAppRow torn = named_row("torn-row", 5);
  const SuiteAppRow appended = named_row("appended-row", 7);
  const std::string torn_line = journal_line(torn);

  for (std::size_t cut = 0; cut <= torn_line.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    {
      std::ofstream out{path, std::ios::binary | std::ios::trunc};
      out << journal_line(sealed) << "\n";
      out << torn_line.substr(0, cut);  // killed mid-append, no newline
    }
    {
      JournalWriter writer{path, /*append=*/true};
      writer.append(appended);
    }
    const auto rows = load_journal(path);
    // The prior sealed row survives every kill offset, and the post-resume
    // append lands intact. The torn row itself parses only when the kill
    // hit exactly the newline boundary (the line was complete but
    // unterminated; sealing finishes it).
    const std::size_t expected = cut == torn_line.size() ? 3u : 2u;
    ASSERT_EQ(rows.size(), expected);
    EXPECT_EQ(rows.front().app, "sealed-row");
    EXPECT_EQ(rows.front().mismatch_count, 3u);
    EXPECT_EQ(rows.back().app, "appended-row");
    EXPECT_EQ(rows.back().mismatch_count, 7u);
    if (expected == 3u) EXPECT_EQ(rows[1].app, "torn-row");
  }
  std::remove(path.c_str());
}

// --- merge-journals edge cases -------------------------------------------------

TEST(MergeJournals, NoInputsThrows) {
  EXPECT_THROW(merge_journals({}), ConfigError);
}

TEST(MergeJournals, UnreadableInputThrows) {
  EXPECT_THROW(merge_journals({temp_path("journal_never_existed.jsonl")}),
               ConfigError);
}

TEST(MergeJournals, EmptyInputsMergeToEmpty) {
  const std::string a = temp_path("journal_empty_a.jsonl");
  const std::string b = temp_path("journal_empty_b.jsonl");
  { std::ofstream{a, std::ios::trunc}; }
  { std::ofstream{b, std::ios::trunc}; }
  const JournalMerge merge = merge_journals({a, b});
  EXPECT_TRUE(merge.clean());
  EXPECT_TRUE(merge.rows.empty());
  EXPECT_EQ(merge.duplicates, 0u);
  EXPECT_TRUE(merge.header.merged());
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(MergeJournals, IdenticalDuplicateRowsDedupSilentlyLastWriterWins) {
  const std::string a = temp_path("journal_dup_a.jsonl");
  const std::string b = temp_path("journal_dup_b.jsonl");
  JournalHeader header;
  header.corpus = "fp";
  header.shard_count = 2;
  // Same canonical payload, different wall-clock: a re-run, not a bug.
  write_journal(a, header, std::vector<SuiteAppRow>{
                               named_row("app-x", 4, 0.111),
                               named_row("app-y", 1, 0.2)});
  header.shard_index = 1;
  write_journal(b, header, std::vector<SuiteAppRow>{
                               named_row("app-x", 4, 0.999)});
  const JournalMerge merge = merge_journals({a, b});
  EXPECT_TRUE(merge.clean());
  EXPECT_EQ(merge.duplicates, 1u);
  ASSERT_EQ(merge.rows.size(), 2u);
  EXPECT_EQ(merge.rows[0].app, "app-x");  // sorted by app name
  EXPECT_EQ(merge.rows[1].app, "app-y");
  EXPECT_DOUBLE_EQ(merge.rows[0].usage.seconds, 0.999);  // last writer
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(MergeJournals, DivergentDuplicateRowsAreConflictsWithBothReported) {
  const std::string a = temp_path("journal_conflict_a.jsonl");
  const std::string b = temp_path("journal_conflict_b.jsonl");
  write_journal(a, JournalHeader{},
                std::vector<SuiteAppRow>{named_row("app-x", 4)});
  write_journal(b, JournalHeader{},
                std::vector<SuiteAppRow>{named_row("app-x", 9)});
  const JournalMerge merge = merge_journals({a, b});
  EXPECT_FALSE(merge.clean());
  EXPECT_EQ(merge.duplicates, 0u);
  ASSERT_EQ(merge.conflicts.size(), 1u);
  EXPECT_EQ(merge.conflicts[0].app, "app-x");
  EXPECT_EQ(merge.conflicts[0].kept.mismatch_count, 9u);
  EXPECT_EQ(merge.conflicts[0].discarded.mismatch_count, 4u);
  ASSERT_EQ(merge.rows.size(), 1u);
  EXPECT_EQ(merge.rows[0].mismatch_count, 9u);  // last writer wins
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(MergeJournals, HeaderMismatchesAreRejected) {
  const std::string a = temp_path("journal_hdr_a.jsonl");
  const std::string b = temp_path("journal_hdr_b.jsonl");
  JournalHeader header;
  header.corpus = "corpus-one";
  header.shard_count = 2;
  write_journal(a, header, {});

  JournalHeader wrong = header;
  wrong.corpus = "corpus-two";
  write_journal(b, wrong, {});
  EXPECT_THROW(merge_journals({a, b}), ConfigError);

  wrong = header;
  wrong.schema = header.schema + 1;
  write_journal(b, wrong, {});
  EXPECT_THROW(merge_journals({a, b}), ConfigError);

  wrong = header;
  wrong.shard_count = 5;
  write_journal(b, wrong, {});
  EXPECT_THROW(merge_journals({a, b}), ConfigError);

  // Another shard of the same run is, of course, mergeable.
  wrong = header;
  wrong.shard_index = 1;
  write_journal(b, wrong, {});
  EXPECT_NO_THROW(merge_journals({a, b}));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(MergeJournals, OutputOrderIsIndependentOfInputOrder) {
  const std::string a = temp_path("journal_order_a.jsonl");
  const std::string b = temp_path("journal_order_b.jsonl");
  write_journal(a, JournalHeader{},
                std::vector<SuiteAppRow>{named_row("zeta", 1),
                                         named_row("alpha", 2)});
  write_journal(b, JournalHeader{},
                std::vector<SuiteAppRow>{named_row("mid", 3)});
  const JournalMerge forward = merge_journals({a, b});
  const JournalMerge backward = merge_journals({b, a});
  EXPECT_EQ(sorted_canonical(forward.rows), sorted_canonical(backward.rows));
  ASSERT_EQ(forward.rows.size(), 3u);
  EXPECT_EQ(forward.rows[0].app, "alpha");
  EXPECT_EQ(forward.rows[1].app, "mid");
  EXPECT_EQ(forward.rows[2].app, "zeta");
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// --- the differential property -------------------------------------------------

constexpr int kCorpusSize = 200;

/// 200 small corpus apps, a shared pre-mined database, and the
/// single-process reference bytes — built once for every differential test.
class ShardSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto& repo = FrameworkRepository::standard();
    CorpusConfig config;
    config.app_count = kCorpusSize;
    config.size_base = 120.0;   // keep the fixture fast: small apps,
    config.size_spread = 1.5;   // same generative structure
    config.api_issue_mean = 6.0;
    corpus_ = new RealWorldCorpus{repo, config};
    apps_ = new std::vector<BenchApp>{
        corpus_->generate_range(0, kCorpusSize, 8)};
    SaintDroid miner{repo};
    db_ = new std::shared_ptr<const ApiDatabase>{miner.shared_database()};
    fingerprint_ = new std::string{corpus_fingerprint(*apps_)};
    reference_ = new std::string{sorted_canonical(
        run_suite_parallel(factory(), *apps_, 4).rows)};
  }

  static void TearDownTestSuite() {
    delete reference_;
    delete fingerprint_;
    delete db_;
    delete apps_;
    delete corpus_;
    reference_ = nullptr;
    fingerprint_ = nullptr;
    db_ = nullptr;
    apps_ = nullptr;
    corpus_ = nullptr;
  }

  static AnalyzerFactory factory() {
    return [] {
      return std::make_unique<SaintDroid>(FrameworkRepository::standard(),
                                          *db_);
    };
  }

  /// Runs shard `index` of `count` over its journal file, exactly as one
  /// process of a multi-host run would, and returns the journal path.
  static std::string run_shard(const std::string& tag, int index, int count,
                               int jobs) {
    const std::string path = temp_path("shard_" + tag + "_" +
                                       std::to_string(index) + "of" +
                                       std::to_string(count) + ".jsonl");
    SuiteRunOptions options;
    options.jobs = jobs;
    options.journal_path = path;
    options.corpus_id = *fingerprint_;
    options.shard_index = index;
    options.shard_count = count;
    (void)run_suite_parallel(factory(), shard_slice(*apps_, index, count),
                             options);
    return path;
  }

  static void remove_all(const std::vector<std::string>& paths) {
    for (const auto& path : paths) std::remove(path.c_str());
  }

  static RealWorldCorpus* corpus_;
  static std::vector<BenchApp>* apps_;
  static std::shared_ptr<const ApiDatabase>* db_;
  static std::string* fingerprint_;
  static std::string* reference_;
};

RealWorldCorpus* ShardSuite::corpus_ = nullptr;
std::vector<BenchApp>* ShardSuite::apps_ = nullptr;
std::shared_ptr<const ApiDatabase>* ShardSuite::db_ = nullptr;
std::string* ShardSuite::fingerprint_ = nullptr;
std::string* ShardSuite::reference_ = nullptr;

TEST_F(ShardSuite, MergedShardsEqualSingleProcessAcrossJobsAndShardCounts) {
  for (const int jobs : {1, 2, 8}) {
    for (const int shards : {1, 3, 7}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " shards=" + std::to_string(shards));
      std::vector<std::string> files;
      for (int s = 0; s < shards; ++s)
        files.push_back(run_shard("j" + std::to_string(jobs), s, shards,
                                  jobs));
      const JournalMerge merged = merge_journals(files);
      EXPECT_TRUE(merged.clean());
      EXPECT_EQ(merged.duplicates, 0u);  // slices are disjoint
      EXPECT_EQ(merged.rows.size(), static_cast<std::size_t>(kCorpusSize));
      EXPECT_EQ(sorted_canonical(merged.rows), *reference_);
      EXPECT_TRUE(merged.header.merged());
      EXPECT_EQ(merged.header.corpus, *fingerprint_);
      remove_all(files);
    }
  }
}

TEST_F(ShardSuite, KillMidShardResumeThenMergeEqualsSingleProcess) {
  const int shards = 3;
  const int jobs = 2;
  // Shards 0 and 2 complete normally.
  std::vector<std::string> files;
  files.push_back(run_shard("resume", 0, shards, jobs));

  // Shard 1 dies mid-append: it journals only a prefix of its slice and
  // its trailing row is torn at half length.
  const std::vector<BenchApp> slice = shard_slice(*apps_, 1, shards);
  const std::string victim = temp_path("shard_resume_1of3.jsonl");
  const std::size_t first_leg = slice.size() / 2;
  {
    const std::vector<BenchApp> head{
        slice.begin(), slice.begin() + static_cast<std::ptrdiff_t>(first_leg)};
    SuiteRunOptions options;
    options.jobs = jobs;
    options.journal_path = victim;
    options.corpus_id = *fingerprint_;
    options.shard_index = 1;
    options.shard_count = shards;
    (void)run_suite_parallel(factory(), head, options);
  }
  {
    std::vector<std::string> lines;
    std::ifstream in{victim};
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    in.close();
    ASSERT_EQ(lines.size(), first_leg + 1);  // header + journaled rows
    std::ofstream out{victim, std::ios::trunc};
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << "\n";
    out << lines.back().substr(0, lines.back().size() / 2);  // torn row
  }

  // The shard is re-launched with --resume semantics over its full slice.
  {
    SuiteRunOptions options;
    options.jobs = jobs;
    options.journal_path = victim;
    options.resume = true;
    options.corpus_id = *fingerprint_;
    options.shard_index = 1;
    options.shard_count = shards;
    const SuiteResult resumed =
        run_suite_parallel(factory(), slice, options);
    // Every journaled row but the torn one is merged back, not re-analyzed.
    EXPECT_EQ(resumed.resumed_rows, first_leg - 1);
    EXPECT_EQ(resumed.rows.size(), slice.size());
  }
  files.push_back(victim);
  files.push_back(run_shard("resume", 2, shards, jobs));

  // After resume the shard journal covers its slice exactly once.
  EXPECT_EQ(load_journal(victim).size(), slice.size());

  const JournalMerge merged = merge_journals(files);
  EXPECT_TRUE(merged.clean());
  EXPECT_EQ(merged.rows.size(), static_cast<std::size_t>(kCorpusSize));
  EXPECT_EQ(sorted_canonical(merged.rows), *reference_);
  remove_all(files);
}

TEST_F(ShardSuite, InjectedFaultsLandInTheSameRowsShardedOrNot) {
  const std::vector<int> victims{3, 41, 99, 150, 199};
  FaultPlan plan;
  for (const int v : victims) {
    plan.faults.push_back({"clvm.materialize",
                           (*apps_)[static_cast<std::size_t>(v)].apk.name,
                           FaultSpec::Kind::kInjected});
  }
  const FaultScope scope{plan};

  // Single-process faulted reference.
  const SuiteResult faulted = run_suite_parallel(factory(), *apps_, 2);
  EXPECT_EQ(faulted.failures, static_cast<int>(victims.size()));
  const std::string faulted_reference = sorted_canonical(faulted.rows);
  EXPECT_NE(faulted_reference, *reference_);  // the faults did land

  // Sharded runs under the same plan: the same victim apps must fail with
  // the same structured rows, because shard/merge moves apps between
  // processes but never changes what each app's analysis sees.
  std::vector<std::string> files;
  for (int s = 0; s < 3; ++s) files.push_back(run_shard("faulted", s, 3, 2));
  const JournalMerge merged = merge_journals(files);
  EXPECT_TRUE(merged.clean());
  EXPECT_EQ(sorted_canonical(merged.rows), faulted_reference);

  std::size_t failed = 0;
  for (const auto& row : merged.rows) {
    if (row.failure.has_value()) {
      ++failed;
      EXPECT_EQ(row.failure->kind, FailureKind::kInjected);
    }
  }
  EXPECT_EQ(failed, victims.size());
  remove_all(files);
}

}  // namespace
}  // namespace saintdroid
