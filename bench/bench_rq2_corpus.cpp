// RQ2 — real-world applicability: SAINTDroid over the 3,571-app corpus.
//
// Paper targets (§V-B):
//   * 68,268 potential API invocation mismatches; 41.19% of apps with >= 1
//   * 2,115 API callback mismatches in 20.05% of apps
//   * permission groups: 1,815 apps target >= 23, 1,756 target < 23;
//     224 (12.34%) request mismatches in the first group, 1,206 (68.68%)
//     revocation mismatches in the second; 1,430 apps total
//   * sampled precision: API 85%, APC 100%, PRM 100%
//
// The corpus is seeded to those population rates, but every number below
// is *measured* by running the detector — no ledger facts reach the tool.
//
// Pass an app count as argv[1] to subsample (default: full corpus).
//
// After the mismatch-rate study, the corpus doubles as the RQ2 throughput
// workload: the same apps run through run_suite_parallel serially and with
// one worker per hardware thread, and both apps/sec figures are written to
// BENCH_parallel.json so the perf trajectory is tracked per commit.
//
// The bench is journal-aware: `--journal <file>` runs the corpus suite
// through the crash-safe journal and `--resume` merges an existing
// journal's rows back instead of re-analyzing them, so the full 3,571-app
// study survives preemption (`bench_rq2_corpus 3571 --journal rq2.jsonl
// [--resume]` after a kill picks up where it died). A shard/resume axis
// then proves the multi-process story on the same slice — N shard
// journals merged with merge_journals, and a torn-journal resume, both
// byte-identical to the single-process run — and records the numbers in
// BENCH_shard.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "adf/repository.hpp"
#include "core/saintdroid.hpp"
#include "support/meter.hpp"
#include "support/thread_pool.hpp"
#include "workload/corpus.hpp"
#include "workload/ground_truth.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace sd = saintdroid;

namespace {

/// Canonical byte form of a row *set*: sorted by app name, seconds zeroed.
/// The comparison currency between a single-process SuiteResult and the
/// app-name-ordered output of merge_journals.
std::string sorted_bytes(std::span<const sd::SuiteAppRow> rows) {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const auto& row : rows) lines.push_back(sd::canonical_row_bytes(row));
  std::sort(lines.begin(), lines.end());
  std::string bytes;
  for (const auto& line : lines) {
    bytes += line;
    bytes += '\n';
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  const auto& repo = sd::FrameworkRepository::standard();
  const sd::RealWorldCorpus corpus{repo};
  int count = corpus.size();
  std::string journal_path;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--journal" && i + 1 < argc)
      journal_path = argv[++i];
    else if (std::string_view{argv[i]} == "--resume")
      resume = true;
    else if (argv[i][0] != '-')
      count = std::min(count, std::atoi(argv[i]));
  }
  if (resume && journal_path.empty()) {
    std::fprintf(stderr, "bench_rq2_corpus: --resume needs --journal\n");
    return 2;
  }

  // Per-app wall-clock deadline so one pathological app degrades to a
  // partial report instead of stalling the whole corpus run (see
  // docs/robustness.md). Generous relative to the ~ms medians: it should
  // never fire on a healthy host, but bounds the worst case.
  sd::SaintDroidOptions tool_options;
  tool_options.budget.deadline_seconds = 10.0;

  sd::SaintDroid tool{repo, tool_options};

  std::uint64_t api_total = 0;
  std::uint64_t apc_total = 0;
  int apps_with_api = 0;
  int apps_with_apc = 0;
  int target_ge23 = 0;
  int target_lt23 = 0;
  int request_apps = 0;
  int revocation_apps = 0;

  sd::Score api_score;
  sd::Score apc_score;
  sd::Score prm_score;
  // The paper hand-checks a 60-app sample; we also track a same-sized
  // sample for the like-for-like precision figure.
  sd::Score sample_api;
  int sampled = 0;

  for (int i = 0; i < count; ++i) {
    const sd::BenchApp app = corpus.generate(i);
    const sd::AnalysisResult result = tool.analyze(app.apk);

    const auto api = result.count(sd::MismatchKind::kApiInvocation);
    const auto apc = result.count(sd::MismatchKind::kApiCallback);
    const auto req = result.count(sd::MismatchKind::kPermissionRequest);
    const auto rev = result.count(sd::MismatchKind::kPermissionRevocation);
    api_total += api;
    apc_total += apc;
    if (api) ++apps_with_api;
    if (apc) ++apps_with_apc;
    if (app.apk.manifest.target_sdk >= 23) {
      ++target_ge23;
      if (req) ++request_apps;
    } else {
      ++target_lt23;
      if (rev) ++revocation_apps;
    }

    api_score += sd::score_detections(app.truth, result.mismatches,
                                      sd::MismatchKind::kApiInvocation);
    apc_score += sd::score_detections(app.truth, result.mismatches,
                                      sd::MismatchKind::kApiCallback);
    prm_score += sd::score_detections(app.truth, result.mismatches,
                                      sd::MismatchKind::kPermissionRequest);
    if (sampled < 60 && !result.mismatches.empty()) {
      sample_api += sd::score_detections(app.truth, result.mismatches,
                                         sd::MismatchKind::kApiInvocation);
      ++sampled;
    }
  }

  const double pct = 100.0 / count;
  std::printf("RQ2: SAINTDroid over %d real-world apps\n\n", count);
  std::printf("API invocation mismatches: %llu total; %d apps (%.2f%%) with "
              ">= 1   [paper: 68,268; 41.19%%]\n",
              static_cast<unsigned long long>(api_total), apps_with_api,
              apps_with_api * pct);
  std::printf("API callback mismatches:   %llu total; %d apps (%.2f%%) with "
              ">= 1   [paper: 2,115; 20.05%%]\n",
              static_cast<unsigned long long>(apc_total), apps_with_apc,
              apps_with_apc * pct);
  std::printf("\npermission groups: %d apps target >= 23, %d target < 23 "
              "[paper: 1,815 / 1,756]\n", target_ge23, target_lt23);
  if (target_ge23)
    std::printf("  request mismatches:    %4d apps (%.2f%% of group) "
                "[paper: 224; 12.34%%]\n",
                request_apps, 100.0 * request_apps / target_ge23);
  if (target_lt23)
    std::printf("  revocation mismatches: %4d apps (%.2f%% of group) "
                "[paper: 1,206; 68.68%%]\n",
                revocation_apps, 100.0 * revocation_apps / target_lt23);
  std::printf("  apps with any permission mismatch: %d [paper: 1,430]\n",
              request_apps + revocation_apps);

  std::printf("\nprecision against the seeded ground truth (full corpus):\n");
  std::printf("  API %.1f%%   APC %.1f%%   PRM %.1f%%   "
              "[paper, 60-app sample: 85%% / 100%% / 100%%]\n",
              100.0 * api_score.precision(), 100.0 * apc_score.precision(),
              100.0 * prm_score.precision());
  std::printf("  (60-app sample, paper methodology: API precision %.1f%%)\n",
              100.0 * sample_api.precision());
  std::printf("  recall for reference (ground truth known here, unlike the "
              "paper): API %.1f%%, APC %.1f%%, PRM %.1f%%\n",
              100.0 * api_score.recall(), 100.0 * apc_score.recall(),
              100.0 * prm_score.recall());

  // --- throughput: serial vs parallel over the same corpus slice ---------
  // App generation is excluded from timing (it is harness, not analysis);
  // a 400-app slice keeps the default full-corpus run affordable while
  // argv[1] subsamples both studies consistently.
  const int suite_count = std::min(count, 400);
  std::vector<sd::BenchApp> suite_apps;
  suite_apps.reserve(static_cast<std::size_t>(suite_count));
  for (int i = 0; i < suite_count; ++i)
    suite_apps.push_back(corpus.generate(i));

  const auto db = tool.shared_database();
  const sd::AnalyzerFactory factory = [&repo, &db, &tool_options] {
    return std::make_unique<sd::SaintDroid>(repo, db, tool_options);
  };
  const int hw = static_cast<int>(sd::ThreadPool::default_workers());

  const auto timed_suite = [&](const sd::AnalyzerFactory& f,
                               const std::vector<sd::BenchApp>& apps,
                               int jobs, double& wall) {
    const sd::Stopwatch watch;
    sd::SuiteResult suite = sd::run_suite_parallel(f, apps, jobs);
    wall = watch.seconds();
    return suite;
  };
  const auto throughput = [&](int jobs) {
    double wall = 0.0;
    (void)timed_suite(factory, suite_apps, jobs, wall);
    return wall > 0 ? suite_count / wall : 0.0;
  };

  const double serial_aps = throughput(1);
  const double parallel_aps = hw > 1 ? throughput(hw) : serial_aps;
  std::printf("\nthroughput over %d corpus apps (shared ARM database):\n"
              "  serial        %8.1f apps/sec\n"
              "  jobs=%-2d       %8.1f apps/sec  (%.2fx)\n",
              suite_count, serial_aps, hw, parallel_aps,
              serial_aps > 0 ? parallel_aps / serial_aps : 0.0);

  if (std::FILE* out = std::fopen("BENCH_parallel.json", "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"rq2_corpus_throughput\",\n"
                 "  \"apps\": %d,\n"
                 "  \"hardware_concurrency\": %d,\n"
                 "  \"effective_jobs\": %d,\n"
                 "  \"serial_apps_per_sec\": %.2f,\n"
                 "  \"parallel_apps_per_sec\": %.2f,\n"
                 "  \"speedup\": %.3f\n"
                 "}\n",
                 suite_count, hw, hw, serial_aps, parallel_aps,
                 serial_aps > 0 ? parallel_aps / serial_aps : 0.0);
    std::fclose(out);
    std::printf("  -> BENCH_parallel.json\n");
  }

  // --- journal pass-through: the resumable full-corpus study -------------
  // With --journal the whole count-app suite runs through the crash-safe
  // journal: a killed run re-invoked with --resume merges every journaled
  // row back and analyzes only the remainder, so the full 3,571-app study
  // survives preemption at the cost of re-running only the in-flight apps.
  if (!journal_path.empty()) {
    const std::vector<sd::BenchApp> all_apps =
        count == suite_count ? suite_apps
                             : corpus.generate_range(0, count, hw);
    sd::SuiteRunOptions journal_options;
    journal_options.jobs = hw;
    journal_options.journal_path = journal_path;
    journal_options.resume = resume;
    journal_options.corpus_id = sd::corpus_fingerprint(all_apps);
    const sd::Stopwatch watch;
    const sd::SuiteResult suite =
        sd::run_suite_parallel(factory, all_apps, journal_options);
    std::printf("\njournaled corpus suite -> %s: %zu apps, %zu resumed "
                "from journal, %zu analyzed, %.2fs\n",
                journal_path.c_str(), suite.rows.size(), suite.resumed_rows,
                suite.rows.size() - suite.resumed_rows, watch.seconds());
  }

  // --- shard/resume axis: multi-process equivalence ----------------------
  // The multi-host fan-out story over the same slice: (a) three shard
  // journals merged with merge_journals, (b) a run killed mid-append
  // (torn trailing row) and resumed — both must reproduce the
  // single-process suite byte-for-byte (app-name order, seconds zeroed).
  const std::string corpus_id = sd::corpus_fingerprint(suite_apps);
  double reference_wall = 0.0;
  const sd::SuiteResult single_process =
      timed_suite(factory, suite_apps, hw, reference_wall);
  const std::string reference_bytes = sorted_bytes(single_process.rows);

  const int shard_count = 3;
  std::vector<std::string> shard_files;
  std::vector<double> shard_walls;        // per-shard makespans: the static
  std::vector<std::size_t> shard_apps;    // partition's straggler profile
  double shard_wall_max = 0.0;  // a multi-host run costs its slowest shard
  for (int s = 0; s < shard_count; ++s) {
    const std::string file = "rq2_shard" + std::to_string(s) + ".jsonl";
    const std::vector<sd::BenchApp> slice =
        sd::shard_slice(suite_apps, s, shard_count);
    sd::SuiteRunOptions options;
    options.jobs = hw;
    options.journal_path = file;
    options.corpus_id = corpus_id;
    options.shard_index = s;
    options.shard_count = shard_count;
    const sd::Stopwatch watch;
    (void)sd::run_suite_parallel(factory, slice, options);
    shard_walls.push_back(watch.seconds());
    shard_apps.push_back(slice.size());
    shard_wall_max = std::max(shard_wall_max, shard_walls.back());
    shard_files.push_back(file);
  }
  const sd::JournalMerge merged = sd::merge_journals(shard_files);
  const bool shard_identical =
      merged.clean() && sorted_bytes(merged.rows) == reference_bytes;

  // Kill-and-resume: journal the first half, tear the trailing row the way
  // a mid-append kill does, then resume over the full slice.
  const std::string resume_file = "rq2_resume.jsonl";
  const std::size_t first_leg = static_cast<std::size_t>(suite_count) / 2;
  {
    const std::vector<sd::BenchApp> head{
        suite_apps.begin(),
        suite_apps.begin() + static_cast<std::ptrdiff_t>(first_leg)};
    sd::SuiteRunOptions options;
    options.jobs = hw;
    options.journal_path = resume_file;
    options.corpus_id = corpus_id;
    (void)sd::run_suite_parallel(factory, head, options);
  }
  {
    std::vector<std::string> lines;
    std::ifstream in{resume_file};
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    in.close();
    std::ofstream out{resume_file, std::ios::trunc};
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << "\n";
    out << lines.back().substr(0, lines.back().size() / 2);  // torn row
  }
  sd::SuiteRunOptions resume_options;
  resume_options.jobs = hw;
  resume_options.journal_path = resume_file;
  resume_options.resume = true;
  resume_options.corpus_id = corpus_id;
  const sd::Stopwatch resume_watch;
  const sd::SuiteResult resumed =
      sd::run_suite_parallel(factory, suite_apps, resume_options);
  const double resume_wall = resume_watch.seconds();
  const bool resume_identical = sorted_bytes(resumed.rows) == reference_bytes;
  // The torn row is the only journaled app that must be re-analyzed.
  const bool resume_skipped_completed = resumed.resumed_rows == first_leg - 1;

  std::printf("\nshard/resume axis over %d corpus apps (jobs=%d):\n"
              "  single process  %8.3fs wall\n"
              "  %d shards        %8.3fs wall (slowest shard), merged: "
              "%zu apps, %zu dups, %zu conflicts\n"
              "  merged == single process: %s\n"
              "  kill+resume: %zu rows resumed, %zu re-analyzed, %.3fs, "
              "identical: %s\n",
              suite_count, hw, reference_wall, shard_count, shard_wall_max,
              merged.rows.size(), merged.duplicates, merged.conflicts.size(),
              shard_identical ? "yes" : "NO", resumed.resumed_rows,
              resumed.rows.size() - resumed.resumed_rows, resume_wall,
              resume_identical && resume_skipped_completed ? "yes" : "NO");

  if (std::FILE* out = std::fopen("BENCH_shard.json", "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"rq2_shard_resume\",\n"
                 "  \"apps\": %d,\n"
                 "  \"jobs\": %d,\n"
                 "  \"effective_jobs\": %d,\n"
                 "  \"shards\": %d,\n"
                 "  \"single_process_wall_seconds\": %.4f,\n"
                 "  \"slowest_shard_wall_seconds\": %.4f,\n"
                 "  \"merge_duplicates\": %zu,\n"
                 "  \"merge_conflicts\": %zu,\n"
                 "  \"shard_merge_identical\": %s,\n"
                 "  \"resume_resumed_rows\": %zu,\n"
                 "  \"resume_reanalyzed_rows\": %zu,\n"
                 "  \"resume_wall_seconds\": %.4f,\n"
                 "  \"resume_identical\": %s,\n"
                 "  \"shard_makespans\": [\n",
                 suite_count, hw, hw, shard_count, reference_wall,
                 shard_wall_max, merged.duplicates, merged.conflicts.size(),
                 shard_identical ? "true" : "false", resumed.resumed_rows,
                 resumed.rows.size() - resumed.resumed_rows, resume_wall,
                 resume_identical && resume_skipped_completed ? "true"
                                                              : "false");
    for (int s = 0; s < shard_count; ++s)
      std::fprintf(out,
                   "    {\"shard\": %d, \"apps\": %zu, "
                   "\"wall_seconds\": %.4f}%s\n",
                   s, shard_apps[static_cast<std::size_t>(s)],
                   shard_walls[static_cast<std::size_t>(s)],
                   s + 1 < shard_count ? "," : "");
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("  -> BENCH_shard.json\n");
  }
  return shard_identical && resume_identical && resume_skipped_completed ? 0
                                                                        : 1;
}
