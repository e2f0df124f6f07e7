#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "config.hpp"
#include "core/model_cache.hpp"
#include "core/saintdroid.hpp"
#include "dist/agent.hpp"
#include "dist/coordinator.hpp"
#include "serve/service.hpp"
#include "setup.hpp"
#include "staged.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/sdmc.hpp"
#include "support/thread_pool.hpp"
#include "trace.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace perfbench {

namespace sd = saintdroid;
namespace fs = std::filesystem;

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"adf.image_ms", "ms"},
      {"adf.levels", "count"},
      {"arm.db_load_ms", "ms"},
      {"arm.mine_ms", "ms"},
      {"clvm.substrate_ms", "ms"},
      {"clvm.substrate_cache_hits", "count"},
      {"dex.parse_ms.p50", "ms"},
      {"dex.parse_ms.p99", "ms"},
      {"dex.parse_ms.sum", "ms"},
      {"dex.parse_mb", "MB"},
      {"clvm.loaded_classes", "count"},
      {"clvm.peak_kb.p50", "KB"},
      {"clvm.peak_kb.p99", "KB"},
      {"aum.model_ms.p50", "ms"},
      {"aum.model_ms.p99", "ms"},
      {"aum.reachable_methods", "count"},
      {"aum.api_calls", "count"},
      {"amd.detect_ms.p50", "ms"},
      {"amd.detect_ms.p99", "ms"},
      {"amd.mismatches", "count"},
      {"core.analyze_ms.p50", "ms"},
      {"core.analyze_ms.p99", "ms"},
      {"core.analyze_ms.hit.p50", "ms"},
      {"core.analyze_ms.hit.p99", "ms"},
      {"core.analyze_ms.miss.p50", "ms"},
      {"core.analyze_ms.miss.p99", "ms"},
      {"harness.worker_util", "ratio"},
      {"harness.straggler_s", "s"},
      {"journal.bytes", "bytes"},
      {"incr.fingerprint_ms.p50", "ms"},
      {"incr.fingerprint_ms.p99", "ms"},
      {"incr.load_ms.p50", "ms"},
      {"incr.load_ms.p99", "ms"},
      {"incr.dirty_ms.p50", "ms"},
      {"incr.dirty_ms.p99", "ms"},
      {"incr.hits", "count"},
      {"incr.fallbacks", "count"},
      {"incr.hit_ratio", "ratio"},
      {"incr.dirty_classes", "count"},
      {"incr.cache_bytes", "bytes"},
      {"incr.accounting_drift", "count"},
      {"serve.submit_ms.p50", "ms"},
      {"serve.submit_ms.p99", "ms"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.shed", "count"},
      {"serve.backlog_max", "count"},
      {"serve.gen_lag_ms", "ms"},
      {"serve.p50_ms.lo", "ms"},
      {"serve.p99_ms.lo", "ms"},
      {"serve.p50_ms.hi", "ms"},
      {"serve.p99_ms.hi", "ms"},
      {"serve.max_rps", "req/s"},
      {"dist.publish_ms", "ms"},
      {"dist.collect_ms", "ms"},
      {"dist.leases", "count"},
      {"dist.reclaimed", "count"},
      {"dist.agent_idle_s", "s"},
      {"dist.finish_spread_s", "s"},
      {"latency.p99_ms", "ms"},
      {"trace.overhead", "ratio"},
      {"trace.uncovered", "ratio"},
  };
  return specs;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

int worker_count() {
  const int hw = static_cast<int>(sd::ThreadPool::default_workers());
  return std::clamp(kWorkers, 1, std::max(1, hw - 1));
}

sd::Apk read_apk(const std::string& path) {
  const auto bytes = sd::read_file_bytes(path);
  if (!bytes) throw sd::Error("cannot read " + path);
  return sd::Apk::parse(*bytes);
}

std::string fresh_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

struct Context {
  explicit Context(const RunOptions& run) : options(run) {}

  const RunOptions& options;
  InputSet inputs;
  AppIds ids;
  Model model;
  int jobs = 1;
  RunResult result;
  /// Per-layer values by metric name; run_workload emits every name.
  std::map<std::string, double> layer;
  /// Spans of the traced rounds (setup spans are consumed separately).
  std::vector<Span> spans;
  std::vector<double> rates;         ///< untraced throughput samples
  std::vector<double> traced_rates;  ///< traced throughput samples
  /// p50/p99 of each latency group: a serve load point, or
  /// kLatencyGroup consecutive per-app times. Reported as their medians,
  /// so a slow spell of the host moves a few groups, not the tail itself.
  std::vector<double> group_p50, group_p99;
  std::vector<double> pending_ms;  ///< the per-app group being filled

  std::string path(const std::string& name) const {
    return options.scratch + "/" + name;
  }
  /// Whether the measured window, which started at `start`, is still open.
  bool window_open(double start) const {
    return now_s() - start < options.seconds;
  }
  void add_group(const std::vector<double>& latency_ms) {
    group_p50.push_back(quantile(latency_ms, 0.5));
    group_p99.push_back(quantile(latency_ms, 0.99));
  }
  void keep_spans() {
    auto taken = take_spans();
    const auto offset = static_cast<std::int64_t>(spans.size());
    for (Span& s : taken) {
      if (s.parent >= 0) s.parent += offset;
      spans.push_back(s);
    }
  }
};

/// True when `row` equals `reference` once its CLVM accounting
/// (loaded_classes, peak_bytes) is taken from the reference: same verdict,
/// different memory telemetry.
bool only_accounting_differs(sd::SuiteAppRow row, const std::string& reference) {
  const auto want = sd::parse_journal_line(reference);
  if (!want) return false;
  row.usage.loaded_classes = want->usage.loaded_classes;
  row.usage.peak_bytes = want->usage.peak_bytes;
  return sd::canonical_row_bytes(row) == reference;
}

/// Positional oracle: rows[i] must byte-equal the reference row of
/// expected[i]. Counts every row as attempted and every missing or
/// diverging row as failed. Returns the rows that matched. With
/// `drift` set (incremental rows), a row whose only difference is its CLVM
/// accounting is counted there and not failed: the verdict is the oracle,
/// the accounting parity of incremental hits is reported, not enforced.
std::size_t check_rows(Context& ctx, const std::vector<sd::SuiteAppRow>& rows,
                       const std::vector<const InputApp*>& expected,
                       const char* what, std::size_t* drift = nullptr) {
  ctx.result.attempted += expected.size();
  if (rows.size() != expected.size()) {
    ctx.result.failed += expected.size();
    ctx.result.fail(std::string{what} + ": " + std::to_string(rows.size()) +
                    " rows for " + std::to_string(expected.size()) + " apps");
    return 0;
  }
  std::size_t good = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].app == expected[i]->name &&
        sd::canonical_row_bytes(rows[i]) == expected[i]->reference) {
      ++good;
      continue;
    }
    if (drift != nullptr && rows[i].app == expected[i]->name &&
        only_accounting_differs(rows[i], expected[i]->reference)) {
      ++good;
      ++*drift;
      continue;
    }
    if (ctx.result.failed < 3)
      ctx.result.fail(std::string{what} + ": row of " + rows[i].app +
                      " differs from its reference:\n  got  " +
                      sd::canonical_row_bytes(rows[i]) + "\n  want " +
                      expected[i]->reference);
    ++ctx.result.failed;
    ctx.result.correct = false;
  }
  return good;
}

/// run_batch's warmup: the substrate of every level the batch targets,
/// once, before the fan-out.
void warm_substrates(const sd::FrameworkRepository& repo,
                     std::span<const sd::BenchApp> apps) {
  std::vector<char> warmed(sd::kMaxApiLevel + 1, 0);
  for (const auto& app : apps) {
    const int level =
        sd::FrameworkRepository::clamp_level(app.apk.manifest.target_sdk);
    if (warmed[static_cast<std::size_t>(level)]) continue;
    warmed[static_cast<std::size_t>(level)] = 1;
    try {
      (void)repo.substrate(level);
    } catch (const std::exception&) {
    }
  }
}

struct BatchRound {
  double wall = 0.0;
  std::vector<sd::SuiteAppRow> rows;
};

enum class Tracer { kNone, kStaged, kDecorator };

std::unique_ptr<sd::Analyzer> make_analyzer(
    const Context& ctx, Tracer tracer,
    const std::shared_ptr<const sd::IncrCache>& incr) {
  sd::SaintDroidOptions options;
  options.incr_cache = incr;
  const auto& repo = *ctx.model.repo;
  switch (tracer) {
    case Tracer::kStaged:
      return std::make_unique<StagedAnalyzer>(repo, ctx.model.db, ctx.ids);
    case Tracer::kDecorator:
      return std::make_unique<TracingAnalyzer>(
          std::make_unique<sd::SaintDroid>(repo, ctx.model.db, options), repo,
          incr, ctx.ids);
    case Tracer::kNone:
      break;
  }
  return std::make_unique<sd::SaintDroid>(repo, ctx.model.db, options);
}

/// One `saintdroid batch --jobs J --journal F --model-cache D
/// [--incr-cache I]` over `apps`: serial read + parse, then the journaled
/// parallel suite. Ledgers are attached so rows carry TP/FP/FN.
BatchRound batch_round(Context& ctx, const std::vector<const InputApp*>& apps,
                       Tracer tracer,
                       const std::shared_ptr<const sd::IncrCache>& incr,
                       const std::string& incr_dir) {
  std::vector<sd::GroundTruth> truths;
  truths.reserve(apps.size());
  for (const InputApp* app : apps) truths.push_back(app->truth);
  const std::string journal = ctx.path("batch.jsonl");
  fs::remove(journal);

  set_tracing(tracer != Tracer::kNone);
  BatchRound round;
  const double start = now_s();
  std::vector<sd::BenchApp> batch(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    {
      const SpanScope span{"dex.parse", app_id(ctx.ids, apps[i]->name)};
      batch[i].apk = read_apk(apps[i]->path);
    }
    batch[i].truth = std::move(truths[i]);
  }
  sd::SuiteRunOptions run;
  run.jobs = ctx.jobs;
  run.journal_path = journal;
  run.corpus_id = sd::corpus_fingerprint(batch);
  run.model_cache_dir = ctx.model.cache_dir;
  run.repository = ctx.model.repo.get();
  run.incr_cache_dir = incr_dir;
  run.warmup = [&] { warm_substrates(*ctx.model.repo, batch); };
  sd::SuiteResult suite;
  {
    const SpanScope span{"harness.run_suite"};
    suite = sd::run_suite_parallel(
        [&] { return make_analyzer(ctx, tracer, incr); }, batch, run);
  }
  round.wall = now_s() - start;
  set_tracing(false);
  round.rows = std::move(suite.rows);
  return round;
}

/// Throughput sample of one round: correct rows over its wall time.
void add_rate(Context& ctx, bool traced, std::size_t good, double wall) {
  (traced ? ctx.traced_rates : ctx.rates)
      .push_back(static_cast<double>(good) / wall);
}

/// The per-app analysis times a batch prints on each row, grouped.
void add_app_latencies(Context& ctx, const std::vector<sd::SuiteAppRow>& rows) {
  for (const auto& row : rows) {
    ctx.pending_ms.push_back(1000.0 * row.usage.seconds);
    if (ctx.pending_ms.size() < kLatencyGroup) continue;
    ctx.add_group(ctx.pending_ms);
    ctx.pending_ms.clear();
  }
}

/// Per-thread finish of the last "core.analyze*" span under each
/// "harness.run_suite" span: worker utilisation and straggler time.
void harness_layer(Context& ctx, const std::vector<Span>& spans) {
  std::vector<double> utils, stragglers;
  for (std::size_t r = 0; r < spans.size(); ++r) {
    if (std::string_view{spans[r].name} != "harness.run_suite") continue;
    const Span& suite = spans[r];
    double busy = 0.0;
    std::map<int, double> last_end;
    for (const Span& s : spans) {
      if (std::string_view{s.name}.rfind("core.analyze", 0) != 0) continue;
      if (s.start < suite.start || s.end > suite.end) continue;
      busy += s.seconds();
      last_end[s.thread] = std::max(last_end[s.thread], s.end);
    }
    utils.push_back(busy / (ctx.jobs * suite.seconds()));
    std::vector<double> ends;
    for (const auto& [thread, end] : last_end) ends.push_back(end);
    if (!ends.empty())
      stragglers.push_back(*std::max_element(ends.begin(), ends.end()) -
                           median(ends));
  }
  ctx.layer["harness.worker_util"] = median(utils);
  ctx.layer["harness.straggler_s"] = median(stragglers);
}

/// `metric`.p50 and .p99 of `values`, with the sample count on stdout;
/// nothing when there are no values.
void quantile_layer(Context& ctx, const std::string& metric,
                    const std::vector<double>& values, const char* unit) {
  if (values.empty()) return;
  const double p50 = quantile(values, 0.5);
  const double p99 = quantile(values, 0.99);
  ctx.layer[metric + ".p50"] = p50;
  ctx.layer[metric + ".p99"] = p99;
  say("  %-28s p50 %10.4f  p99 %10.4f %s  (n=%zu)", metric.c_str(), p50, p99,
      unit, values.size());
}

void timing_layer(Context& ctx, const SpanTable& table, const char* span,
                  const std::string& metric) {
  quantile_layer(ctx, metric, table.durations_ms(span), "ms");
}

/// Shares of the traced "core.analyze*" spans their stage spans cover.
void coverage_layer(Context& ctx, const SpanTable& table) {
  double total = 0.0, covered = 0.0;
  for (std::size_t i = 0; i < table.spans.size(); ++i) {
    if (std::string_view{table.spans[i].name}.rfind("core.analyze", 0) != 0)
      continue;
    total += table.spans[i].seconds();
    covered += table.child_seconds[i];
  }
  const double uncovered = total > 0.0 ? 1.0 - covered / total : 0.0;
  ctx.layer["trace.uncovered"] = uncovered;
  say("trace: stage spans cover %.2f%% of the app spans", 100.0 * (1.0 - uncovered));
  if (uncovered > 0.05)
    ctx.result.fail("per-app self times sum to more than 5% off the app span");
}

/// Tracing overhead as the relative slowdown `slow / fast - 1`: throughput
/// passes (untraced, traced), a latency passes (traced, untraced).
void overhead_layer(Context& ctx, double fast, double slow, const char* what) {
  const double overhead = slow > 0.0 ? fast / slow - 1.0 : 0.0;
  ctx.layer["trace.overhead"] = overhead;
  say("trace: overhead %.2f%% on %s (%.4f vs %.4f)", 100.0 * overhead, what,
      fast, slow);
}

std::vector<const InputApp*> all_apps(const InputSet& inputs) {
  std::vector<const InputApp*> apps;
  for (const InputApp& app : inputs.apps) apps.push_back(&app);
  return apps;
}

/// The seeded-ledger oracle: per-family TP/FP/FN summed over one pass of
/// the draw must equal the counts recorded for the default seed.
void check_ledger_scores(Context& ctx, const std::vector<sd::SuiteAppRow>& rows,
                         const char* what) {
  sd::FamilyScores scores;
  for (const auto& row : rows) scores += row.scores;
  const std::string got = scores_text(scores);
  say("%s: ledger TP/FP/FN %s", what, got.c_str());
  if (ctx.options.seed == kDefaultSeed &&
      got != scores_text(recorded_scores(kDefaultSeedScores)))
    ctx.result.fail(std::string{what} +
                    ": ledger scores differ from the counts recorded for the "
                    "default seed");
}

// ---- corpus_batch ----------------------------------------------------------

void corpus_batch(Context& ctx) {
  const auto apps = all_apps(ctx.inputs);
  const bool trace = ctx.options.trace;
  std::uint64_t journal_bytes = 0, loaded_classes = 0;
  std::vector<double> peak_kb;
  int traced_rounds = 0;
  const double start = now_s();
  for (int r = 0; r < 2 || ctx.window_open(start); ++r) {
    const bool traced = trace && r % 2 == 1;
    BatchRound round =
        batch_round(ctx, apps, traced ? Tracer::kStaged : Tracer::kNone,
                    nullptr, "");
    const std::size_t good = check_rows(ctx, round.rows, apps, "corpus_batch");
    add_rate(ctx, traced, good, round.wall);
    if (r == 0) {
      check_ledger_scores(ctx, round.rows, "corpus_batch");
      journal_bytes = fs::file_size(ctx.path("batch.jsonl"));
    }
    if (!traced) {
      add_app_latencies(ctx, round.rows);
      continue;
    }
    ++traced_rounds;
    for (const auto& row : round.rows) {
      loaded_classes += row.usage.loaded_classes;
      peak_kb.push_back(static_cast<double>(row.usage.peak_bytes) / 1024.0);
    }
    ctx.keep_spans();
  }
  if (!trace) return;

  const SpanTable table{ctx.spans};
  const double rounds = std::max(1, traced_rounds);
  timing_layer(ctx, table, "dex.parse", "dex.parse_ms");
  ctx.layer["dex.parse_ms.sum"] = table.total_ms("dex.parse") / rounds;
  double mb = 0.0;
  for (const InputApp* app : apps) mb += static_cast<double>(app->bytes) / 1e6;
  ctx.layer["dex.parse_mb"] = mb;
  ctx.layer["clvm.loaded_classes"] = static_cast<double>(loaded_classes) / rounds;
  quantile_layer(ctx, "clvm.peak_kb", peak_kb, "KB");
  timing_layer(ctx, table, "aum.model", "aum.model_ms");
  timing_layer(ctx, table, "amd.detect", "amd.detect_ms");
  timing_layer(ctx, table, "core.analyze", "core.analyze_ms");
  ctx.layer["aum.reachable_methods"] =
      static_cast<double>(stage_counts().reachable_methods.load()) / rounds;
  ctx.layer["aum.api_calls"] =
      static_cast<double>(stage_counts().api_calls.load()) / rounds;
  ctx.layer["amd.mismatches"] =
      static_cast<double>(stage_counts().mismatches.load()) / rounds;
  ctx.layer["journal.bytes"] = static_cast<double>(journal_bytes);
  harness_layer(ctx, ctx.spans);
  coverage_layer(ctx, table);
  overhead_layer(ctx, median(ctx.rates), median(ctx.traced_rates),
                 "apps_per_s");
}

// ---- update_revet -----------------------------------------------------------

void update_revet(Context& ctx) {
  std::vector<std::vector<const InputApp*>> versions(kChainVersions);
  for (const InputApp& app : ctx.inputs.apps)
    versions.at(static_cast<std::size_t>(app.version)).push_back(&app);

  // Version 0, untimed: the first publish of every chain fills the cache.
  const std::string warm_dir = fresh_dir(ctx.path("incr-warm"));
  {
    const auto incr = std::make_shared<const sd::IncrCache>(warm_dir);
    BatchRound round = batch_round(ctx, versions[0], Tracer::kNone, incr,
                                   warm_dir);
    check_rows(ctx, round.rows, versions[0], "update_revet v0");
  }

  const bool trace = ctx.options.trace;
  std::size_t drift = 0;
  sd::IncrementalStats incr_stats, all_stats;  // traced rounds; every round
  double cache_bytes = 0.0;
  int traced_rounds = 0;
  const double start = now_s();
  for (int r = 0; r < 2 || ctx.window_open(start); ++r) {
    const bool traced = trace && r % 2 == 1;
    // Every round re-vets the same bumps against the warmed cache.
    const std::string live = ctx.path("incr-live");
    fs::remove_all(live);
    fs::copy(warm_dir, live, fs::copy_options::recursive);
    const auto incr = std::make_shared<const sd::IncrCache>(live);
    double wall = 0.0;
    std::size_t good = 0;
    for (int v = 1; v < kChainVersions; ++v) {
      BatchRound round = batch_round(
          ctx, versions[static_cast<std::size_t>(v)],
          traced ? Tracer::kDecorator : Tracer::kNone, incr, live);
      wall += round.wall;
      good += check_rows(ctx, round.rows, versions[static_cast<std::size_t>(v)],
                         "update_revet", &drift);
      if (!traced) add_app_latencies(ctx, round.rows);
      for (const auto& row : round.rows) {
        all_stats += row.incr;
        if (traced) incr_stats += row.incr;
      }
    }
    add_rate(ctx, traced, good, wall);
    if (!traced) continue;
    ++traced_rounds;
    cache_bytes += static_cast<double>(dir_bytes(live));
    ctx.keep_spans();
  }
  // This oracle holds incremental rows to the from-scratch verdict only;
  // how many hits also diverge in CLVM accounting is printed on every run.
  say("update_revet: accounting drift %zu rows of %llu incremental hits "
      "(%llu level runs attempted): same verdict as from scratch, other "
      "loaded_classes / peak_bytes",
      drift, static_cast<unsigned long long>(all_stats.hits),
      static_cast<unsigned long long>(all_stats.attempted));
  ctx.layer["incr.accounting_drift"] = static_cast<double>(drift);
  if (!trace) return;

  const SpanTable table{ctx.spans};
  const double rounds = std::max(1, traced_rounds);
  timing_layer(ctx, table, "dex.parse", "dex.parse_ms");
  ctx.layer["dex.parse_ms.sum"] = table.total_ms("dex.parse") / rounds;
  std::vector<double> analyze = table.durations_ms("core.analyze");
  for (const char* name : {"core.analyze.hit", "core.analyze.miss"})
    for (const double v : table.durations_ms(name)) analyze.push_back(v);
  quantile_layer(ctx, "core.analyze_ms", analyze, "ms");
  timing_layer(ctx, table, "core.analyze.hit", "core.analyze_ms.hit");
  timing_layer(ctx, table, "core.analyze.miss", "core.analyze_ms.miss");
  timing_layer(ctx, table, "incr.fingerprint", "incr.fingerprint_ms");
  timing_layer(ctx, table, "incr.load", "incr.load_ms");
  timing_layer(ctx, table, "incr.dirty", "incr.dirty_ms");
  ctx.layer["incr.hits"] = static_cast<double>(incr_stats.hits) / rounds;
  ctx.layer["incr.fallbacks"] = static_cast<double>(incr_stats.fallbacks) / rounds;
  ctx.layer["incr.dirty_classes"] =
      static_cast<double>(incr_stats.dirty_classes) / rounds;
  ctx.layer["incr.hit_ratio"] =
      incr_stats.attempted > 0 ? static_cast<double>(incr_stats.hits) /
                                     static_cast<double>(incr_stats.attempted)
                               : 0.0;
  ctx.layer["incr.cache_bytes"] = cache_bytes / rounds;
  say("update_revet: per round %.0f hits, %.0f fallbacks of %zu re-vets",
      ctx.layer["incr.hits"], ctx.layer["incr.fallbacks"],
      ctx.inputs.apps.size() - versions[0].size());
  harness_layer(ctx, ctx.spans);
  coverage_layer(ctx, table);
  overhead_layer(ctx, median(ctx.rates), median(ctx.traced_rates),
                 "apps_per_s");
}

// ---- steal_batch ------------------------------------------------------------

void steal_batch(Context& ctx) {
  const auto apps = all_apps(ctx.inputs);
  std::unordered_map<std::string, const InputApp*> by_name;
  for (const InputApp* app : apps) by_name.emplace(app->name, app);
  const bool trace = ctx.options.trace;
  std::vector<double> publish_ms, collect_ms, idle_s, spread_s;
  std::size_t leases = 0, reclaimed = 0;
  const double start = now_s();
  for (int r = 0; r < 2 || ctx.window_open(start); ++r) {
    const bool traced = trace && r % 2 == 1;
    const std::string root = fresh_dir(ctx.path("workdir"));
    set_tracing(traced);
    const double round_start = now_s();

    // `saintdroid coordinate`: parse the list, plan, publish.
    sd::WorkQueue queue;
    {
      const SpanScope span{"dist.plan"};
      std::vector<sd::BenchApp> parsed(apps.size());
      std::vector<std::string> paths;
      for (std::size_t i = 0; i < apps.size(); ++i) {
        parsed[i].apk = read_apk(apps[i]->path);
        paths.push_back(apps[i]->path);
      }
      queue = sd::plan_work_queue(parsed, paths);
    }
    const sd::WorkDir dir{root};
    double t = now_s();
    {
      const SpanScope span{"dist.publish"};
      dir.publish(queue, sd::WorkDir::steady_seconds());
    }
    publish_ms.push_back(1000.0 * (now_s() - t));

    // `saintdroid work --jobs 1`, once per agent, in-process.
    const int agents = ctx.jobs;
    std::vector<double> ends(static_cast<std::size_t>(agents), 0.0);
    std::vector<std::string> errors(static_cast<std::size_t>(agents));
    std::vector<std::thread> threads;
    for (int a = 0; a < agents; ++a) {
      threads.emplace_back([&, a] {
        try {
          const SpanScope span{"dist.agent", a};
          sd::AgentOptions options;
          options.worker = "agent-" + std::to_string(a);
          options.jobs = 1;
          options.resolve = [&](const sd::WorkItem& item) {
            const SpanScope parse{"dex.parse", app_id(ctx.ids, item.name)};
            sd::BenchApp app;
            app.apk = read_apk(item.path);
            app.truth = by_name.at(item.name)->truth;
            return app;
          };
          options.factory = [&] {
            return make_analyzer(
                ctx, traced ? Tracer::kDecorator : Tracer::kNone, nullptr);
          };
          options.model_cache_dir = ctx.model.cache_dir;
          options.repository = ctx.model.repo.get();
          options.warmup = [&](std::span<const sd::BenchApp> slice) {
            warm_substrates(*ctx.model.repo, slice);
          };
          (void)sd::run_agent(dir, options);
        } catch (const std::exception& error) {
          errors[static_cast<std::size_t>(a)] = error.what();
        }
        ends[static_cast<std::size_t>(a)] = now_s();
      });
    }
    for (auto& thread : threads) thread.join();
    for (const std::string& error : errors)
      if (!error.empty()) ctx.result.fail("steal_batch agent: " + error);

    t = now_s();
    sd::CollectResult collected;
    {
      const SpanScope span{"dist.collect"};
      collected = sd::collect(dir);
    }
    const double end = now_s();
    collect_ms.push_back(1000.0 * (end - t));
    set_tracing(false);

    std::size_t good =
        check_rows(ctx, collected.suite.rows, apps, "steal_batch");
    if (r == 0) check_ledger_scores(ctx, collected.suite.rows, "steal_batch");
    if (!collected.merge.clean()) {
      ctx.result.fail("steal_batch: divergent duplicate rows in the merge");
      good = 0;
    }
    add_rate(ctx, traced, good, end - round_start);
    spread_s.push_back(*std::max_element(ends.begin(), ends.end()) -
                       *std::min_element(ends.begin(), ends.end()));
    leases = collected.suite.leases_issued;
    reclaimed += collected.suite.leases_reclaimed;
    if (!traced) {
      add_app_latencies(ctx, collected.suite.rows);
      continue;
    }
    ctx.keep_spans();
  }
  if (!trace) return;

  const SpanTable table{ctx.spans};
  ctx.layer["dist.publish_ms"] = median(publish_ms);
  ctx.layer["dist.collect_ms"] = median(collect_ms);
  ctx.layer["dist.leases"] = static_cast<double>(leases);
  ctx.layer["dist.reclaimed"] = static_cast<double>(reclaimed);
  ctx.layer["dist.finish_spread_s"] = median(spread_s);
  for (const double self : table.self_ms("dist.agent")) idle_s.push_back(self / 1000.0);
  ctx.layer["dist.agent_idle_s"] = median(idle_s);
  timing_layer(ctx, table, "dex.parse", "dex.parse_ms");
  timing_layer(ctx, table, "core.analyze", "core.analyze_ms");
  coverage_layer(ctx, table);
  overhead_layer(ctx, median(ctx.rates), median(ctx.traced_rates),
                 "apps_per_s");
}

// ---- serve_open ---------------------------------------------------------------

struct Request {
  int package = -1;
  double due = 0.0;
  double sent = 0.0;
  double returned = 0.0;  ///< submit() returned on the intake thread
  double answered = -1.0;
  std::size_t backlog = 0;  ///< outstanding requests when this one was sent
  sd::ServeStatus status = sd::ServeStatus::kRejected;
  bool cached = false;
  std::optional<sd::SuiteAppRow> row;
};

struct Point {
  double rate = 0.0;
  std::vector<Request> requests;
  std::vector<double> latency_ms;  ///< +inf for every failed request
  std::size_t failed = 0;
  std::size_t wrong = 0;  ///< answered with a row unlike the reference
  std::uint64_t shed = 0;
  std::size_t backlog_max = 0;
  bool growing = false;

  double goodput = 0.0;  ///< correct answers per second of the point

  double p50() const { return quantile(latency_ms, 0.5); }
  double p99() const { return quantile(latency_ms, 0.99); }
  bool meets_limit() const {
    return p99() <= kP99LimitMs && shed == 0 && failed == 0 && !growing;
  }
};

void sleep_until_s(double t) {
  const double wait = t - now_s();
  if (wait > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

/// One load point on a fresh service (empty result cache) sharing the warm
/// model. Open loop for rate > 0: request k is due at k / rate. Closed loop
/// for rate == 0: each request is sent as soon as fewer than
/// kSaturationDepth are outstanding. A kResubmitShare of the requests
/// resubmit an already answered package.
Point run_point(Context& ctx, double rate, int count, std::uint64_t stream,
                bool traced) {
  const auto& apps = ctx.inputs.apps;
  sd::ServeOptions options;
  options.jobs = ctx.jobs;
  options.queue_capacity = kServeQueue;
  options.database = ctx.model.db;
  options.repository = ctx.model.repo.get();
  auto service = std::make_unique<sd::VetService>(
      fresh_dir(ctx.path("serve-state")), options);

  sd::Rng rng{stream};
  std::vector<int> fresh(apps.size());
  std::iota(fresh.begin(), fresh.end(), 0);
  std::shuffle(fresh.begin(), fresh.end(), rng);
  std::size_t next_fresh = 0;
  std::vector<int> sent_packages;
  auto answered = std::make_unique<std::atomic<bool>[]>(apps.size());
  std::atomic<std::size_t> outstanding{0};

  Point point;
  point.rate = rate;
  point.requests.resize(static_cast<std::size_t>(count));
  set_tracing(traced);
  const double t0 = now_s() + 0.002;
  for (int k = 0; k < count; ++k) {
    Request& request = point.requests[static_cast<std::size_t>(k)];
    if (rate > 0.0) {
      request.due = t0 + k / rate;
      sleep_until_s(request.due);
    } else {
      while (outstanding.load() >= kSaturationDepth)
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      request.due = now_s();
    }
    int package = -1;
    if (!sent_packages.empty() && rng.chance(kResubmitShare))
      for (int tries = 0; tries < 8 && package < 0; ++tries) {
        const int candidate = rng.pick(sent_packages);
        if (answered[static_cast<std::size_t>(candidate)].load()) package = candidate;
      }
    if (package < 0) {
      package = fresh[next_fresh++ % fresh.size()];
      sent_packages.push_back(package);
    }
    request.package = package;
    sd::ServeRequest wire;
    wire.id = std::to_string(k);
    wire.apk_path = apps[static_cast<std::size_t>(package)].path;
    request.backlog = ++outstanding;
    point.backlog_max = std::max(point.backlog_max, request.backlog);
    request.sent = now_s();
    {
      const SpanScope span{"serve.submit", k};
      service->submit(wire, [&point, &answered, &outstanding, k,
                             package](const sd::ServeResponse& response) {
        Request& r = point.requests[static_cast<std::size_t>(k)];
        r.answered = now_s();
        r.status = response.status;
        r.cached = response.cached;
        r.row = response.row;
        answered[static_cast<std::size_t>(package)].store(true);
        --outstanding;
      });
    }
    request.returned = now_s();
  }
  service->drain();
  set_tracing(false);
  point.shed = service->stats().shed;
  service.reset();

  double last_answer = 0.0;
  for (const Request& r : point.requests) {
    const InputApp& app = apps[static_cast<std::size_t>(r.package)];
    const bool ok = r.status == sd::ServeStatus::kDone && r.row &&
                    sd::canonical_row_bytes(*r.row) == app.reference;
    if (r.row && !ok) {
      ++point.wrong;
      if (point.wrong <= 3)
        ctx.result.fail("serve_open: row of " + app.name +
                        " differs from analyze_app_row:\n  got  " +
                        sd::canonical_row_bytes(*r.row) + "\n  want " +
                        app.reference);
    }
    if (!ok) ++point.failed;
    point.latency_ms.push_back(ok ? 1000.0 * (r.answered - r.due) : kInf);
    last_answer = std::max(last_answer, r.answered);
  }
  point.goodput = static_cast<double>(point.requests.size() - point.failed) /
                  (last_answer - point.requests.front().due);
  // A growing backlog: the last quarter of the schedule found clearly more
  // requests outstanding than the first quarter did.
  const std::size_t quarter = point.requests.size() / 4;
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < quarter; ++i) {
    first += static_cast<double>(point.requests[i].backlog);
    last += static_cast<double>(
        point.requests[point.requests.size() - 1 - i].backlog);
  }
  point.growing = last / quarter > first / quarter + ctx.jobs;
  say("  rate %7.1f rps: p50 %8.3f ms  p99 %8.3f ms (n=%zu)  goodput %7.1f/s"
      "  shed %llu  failed %zu  backlog max %zu%s",
      rate, point.p50(), point.p99(), point.latency_ms.size(), point.goodput,
      static_cast<unsigned long long>(point.shed), point.failed,
      point.backlog_max, point.growing ? " growing" : "");
  return point;
}

void serve_open(Context& ctx) {
  std::uint64_t stream = ctx.options.seed * 0x9e3779b97f4a7c15ULL + 17;
  const auto next_stream = [&stream] { return sd::splitmix64(stream); };
  const auto point = [&](double rate, bool traced) {
    Point p = run_point(ctx, rate, rate > 0.0 ? kRequestsPerPoint
                                              : kSaturationRequests,
                        next_stream(), traced);
    if (p.wrong > 0) ctx.result.correct = false;
    return p;
  };
  // error_rate covers the fixed-rate and closed-loop points; the max_rps
  // probes above capacity are expected to shed.
  const auto count = [&ctx](const Point& p) {
    ctx.result.attempted += p.requests.size();
    ctx.result.failed += p.failed;
  };

  if (!ctx.options.trace) {
    // The window alternates the closed-loop point (apps_per_s: median
    // goodput) with the high fixed-rate point (one latency group each).
    const double start = now_s();
    do {
      const Point saturated = point(0.0, false);
      count(saturated);
      ctx.rates.push_back(saturated.goodput);
      const Point hi = point(kHighRps, false);
      count(hi);
      ctx.add_group(hi.latency_ms);
    } while (ctx.window_open(start));
    say("serve_open: closed-loop goodput at depth %zu; latency groups are "
        "points of %d requests at %.0f rps",
        kSaturationDepth, kRequestsPerPoint, kHighRps);
    return;
  }

  const Point lo = point(kLowRps, true);
  count(lo);
  const Point hi = point(kHighRps, true);
  count(hi);
  const Point plain = point(kHighRps, false);
  count(plain);
  ctx.add_group(plain.latency_ms);
  ctx.keep_spans();

  // max_rps: climb the ladder from the high point until a rung misses the
  // limit, then bisect (geometrically) between the last pass and it. The
  // figure reported is the goodput measured at the highest passing rate.
  const bool hi_passes = plain.meets_limit();
  const Point* best = hi_passes ? &plain : (lo.meets_limit() ? &lo : nullptr);
  double fail = hi_passes ? 0.0 : kHighRps;
  std::vector<Point> probes;
  probes.reserve(kLadderRungs + kBisections);
  const auto probe = [&](double rate) {
    probes.push_back(point(rate, false));
    if (probes.back().meets_limit())
      best = &probes.back();
    else
      fail = rate;
  };
  for (int rung = 1; fail == 0.0 && rung <= kLadderRungs; ++rung)
    probe(kHighRps * std::pow(kLadderStep, rung));
  for (int b = 0; b < kBisections && best != nullptr && fail > 0.0; ++b)
    probe(std::sqrt(best->rate * fail));
  ctx.layer["serve.max_rps"] = best != nullptr ? best->goodput : 0.0;
  say("serve_open: max_rps %.1f (p99 <= %.0f ms, no shedding, no growing "
      "backlog)", ctx.layer["serve.max_rps"], kP99LimitMs);

  const SpanTable table{ctx.spans};
  timing_layer(ctx, table, "serve.submit", "serve.submit_ms");
  std::vector<double> wait_ms, lag_ms;
  std::size_t answered = 0, cached = 0;
  for (const Request& r : hi.requests) {
    lag_ms.push_back(1000.0 * (r.sent - r.due));
    if (!r.row) continue;
    ++answered;
    if (r.cached) {
      ++cached;
      continue;
    }
    wait_ms.push_back(1000.0 *
                      (r.answered - r.returned - r.row->usage.seconds));
  }
  quantile_layer(ctx, "serve.queue_wait_ms", wait_ms, "ms");
  ctx.layer["serve.cache_hit_ratio"] =
      answered > 0 ? static_cast<double>(cached) / answered : 0.0;
  ctx.layer["serve.shed"] = static_cast<double>(hi.shed);
  ctx.layer["serve.backlog_max"] = static_cast<double>(hi.backlog_max);
  ctx.layer["serve.gen_lag_ms"] = quantile(lag_ms, 0.99);
  ctx.layer["serve.p50_ms.lo"] = lo.p50();
  ctx.layer["serve.p99_ms.lo"] = lo.p99();
  ctx.layer["serve.p50_ms.hi"] = hi.p50();
  ctx.layer["serve.p99_ms.hi"] = hi.p99();
  // The intake thread's parse, timed in a side pass over the same packages
  // after the schedule, so the live run is not perturbed.
  set_tracing(true);
  for (const Request& r : hi.requests) {
    const auto bytes = sd::read_file_bytes(
        ctx.inputs.apps[static_cast<std::size_t>(r.package)].path);
    const SpanScope span{"dex.parse", r.package};
    (void)sd::Apk::parse(*bytes);
  }
  set_tracing(false);
  ctx.keep_spans();
  const SpanTable parsed{ctx.spans};
  timing_layer(ctx, parsed, "dex.parse", "dex.parse_ms");
  // For a latency the traced point is the larger one.
  overhead_layer(ctx, hi.p50(), plain.p50(), "high-rate p50_ms");
}

}  // namespace

RunResult run_workload(const RunOptions& options) {
  Context ctx{options};
  ctx.jobs = worker_count();
  ctx.inputs = load_inputs(options.workload, options.seed, options.data_root);
  for (std::size_t i = 0; i < ctx.inputs.apps.size(); ++i) {
    const InputApp& app = ctx.inputs.apps[i];
    ctx.ids.emplace(app.name, app.chain >= 0 ? app.chain
                                             : static_cast<std::int64_t>(i));
  }
  const std::vector<int> levels = ctx.inputs.levels();
  const bool serve = options.workload == Workload::kServeOpen;
  say("%s: seed %llu, %zu packages (corpus %s), %zu levels, %d workers, "
      "window %.0fs, trace %d",
      workload_name(options.workload),
      static_cast<unsigned long long>(options.seed), ctx.inputs.apps.size(),
      ctx.inputs.fingerprint.c_str(), levels.size(), ctx.jobs,
      options.seconds, options.trace ? 1 : 0);

  // Set-up. The untraced run takes every sample in a child process (see
  // setup.hpp): the first, cold, fills the cache directory this process
  // then starts its own model on; the rest alternate warm and cold. All
  // are taken before the window: a start right after seconds of full load
  // reads slower by a share that varies from run to run. The traced run
  // starts in-process, cold then warm, so that its spans give the set-up
  // layers.
  const SetupSpec spec{serve, levels, ctx.jobs};
  SetupSampler setup{spec, options.scratch};
  if (options.trace) {
    const std::string dir = fresh_dir(options.scratch + "/setup-traced");
    set_tracing(true);
    (void)start_model(spec, dir, true);
    ctx.model = start_model(spec, dir, false);
    set_tracing(false);
  } else {
    setup.cold();
    ctx.model = start_model(spec, setup.warm_dir(), false);
    for (int i = 0; i < std::max(kColdSetups - 1, kWarmSetups); ++i) {
      if (i < kWarmSetups) setup.warm();
      if (i < kColdSetups - 1) setup.cold();
    }
  }
  if (serve)  // the run's services share this model; the load is a hit
    ctx.model.db =
        sd::ModelCache{ctx.model.cache_dir}.api_database(*ctx.model.repo);

  if (options.trace) {
    const auto spans = take_spans();
    const SpanTable table{spans};
    // Image and substrate times of the warm sample; mining is cold only.
    const auto is_warm = [&](std::size_t i) {
      std::int64_t root = static_cast<std::int64_t>(i);
      while (spans[static_cast<std::size_t>(root)].parent >= 0)
        root = spans[static_cast<std::size_t>(root)].parent;
      return spans[static_cast<std::size_t>(root)].id == 1;
    };
    double image = 0.0, substrate = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (!is_warm(i)) continue;
      const std::string_view name{spans[i].name};
      if (name == "adf.image") image += spans[i].seconds();
      if (name == "clvm.substrate") substrate += spans[i].seconds();
    }
    ctx.layer["adf.image_ms"] = 1000.0 * image;
    ctx.layer["clvm.substrate_ms"] = 1000.0 * substrate;
    ctx.layer["arm.db_load_ms"] = median(table.durations_ms("arm.db_load"));
    ctx.layer["arm.mine_ms"] = median(table.durations_ms("arm.mine"));
    ctx.layer["clvm.substrate_cache_hits"] =
        static_cast<double>(ctx.model.repo->substrate_cache_hits());
    ctx.layer["adf.levels"] = static_cast<double>(levels.size());
  }

  switch (options.workload) {
    case Workload::kCorpusBatch: corpus_batch(ctx); break;
    case Workload::kUpdateRevet: update_revet(ctx); break;
    case Workload::kServeOpen: serve_open(ctx); break;
    case Workload::kStealBatch: steal_batch(ctx); break;
  }
  if (const std::string why =
          population_mismatch(options.workload, ctx.inputs.population_scores);
      !why.empty())
    ctx.result.fail(why);
  const auto listed = [](const std::vector<double>& values) {
    std::string text;
    for (const double v : values) text += " " + std::to_string(v);
    return text;
  };
  say("setup: cold%s s; warm%s s", listed(setup.cold_s).c_str(),
      listed(setup.warm_s).c_str());
  if (options.trace) write_spans(options.scratch + "/spans.tsv", ctx.spans);

  if (ctx.group_p99.empty() && !ctx.pending_ms.empty())
    ctx.add_group(ctx.pending_ms);
  RunResult& result = ctx.result;
  say("error_rate %.6f (%llu failed of %llu attempted)",
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 0.0,
      static_cast<unsigned long long>(result.failed),
      static_cast<unsigned long long>(result.attempted));
  if (options.trace) {
    if (!ctx.group_p99.empty())
      ctx.layer["latency.p99_ms"] = median(ctx.group_p99);
    for (const MetricSpec& metric : per_layer_metrics()) {
      const auto it = ctx.layer.find(metric.name);
      result.add(metric.name, it == ctx.layer.end() ? 0.0 : it->second,
                 metric.unit);
    }
    return result;
  }
  result.add("setup_s", median(setup.warm_s), "s");
  result.add("setup_cold_s", median(setup.cold_s), "s");
  result.add("apps_per_s", median(ctx.rates), "apps/s");
  result.add("p50_ms", median(ctx.group_p50), "ms");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  // p99 follows the host's slow spells too closely to hold any bound
  // across runs, so it is reported here and as the traced run's
  // latency.p99_ms rather than as a bounded metric.
  say("apps_per_s median of %zu rounds (q1 %.1f, q3 %.1f, min %.1f, max %.1f);"
      " p50 %.4f ms, p99 %.4f ms: medians over %zu latency groups",
      ctx.rates.size(), quantile(ctx.rates, 0.25), quantile(ctx.rates, 0.75),
      quantile(ctx.rates, 0.0), quantile(ctx.rates, 1.0),
      median(ctx.group_p50), median(ctx.group_p99), ctx.group_p99.size());
  return result;
}

}  // namespace perfbench
