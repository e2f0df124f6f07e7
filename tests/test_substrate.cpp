// Shared framework substrate suite.
//
// The load-bearing properties: every reported field — rows, scores,
// mismatch counts, peak_bytes, loaded_classes — is pinned and identical at
// any worker count; the per-level cache builds exactly once under
// concurrent first requests; and a poisoned level fails only the analyses
// that need it, retrying (and succeeding) once the fault clears.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "adf/repository.hpp"
#include "baselines/cid.hpp"
#include "baselines/lint.hpp"
#include "clvm/substrate.hpp"
#include "core/arm.hpp"
#include "core/saintdroid.hpp"
#include "dynamic/interpreter.hpp"
#include "support/faults.hpp"
#include "workload/corpus.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace saintdroid {
namespace {

/// Canonical byte form of a suite: one journal line per row with the
/// wall-clock seconds zeroed (the only legitimately nondeterministic
/// field). Two suites are byte-identical iff these strings are equal.
std::string suite_bytes(const SuiteResult& suite) {
  std::string bytes;
  for (SuiteAppRow row : suite.rows) {
    row.usage.seconds = 0.0;
    bytes += journal_line(row);
    bytes += '\n';
  }
  return bytes;
}

/// Small framework config for tests that need a private repository (cache
/// stampede, poisoned level) — standard()'s substrate slots may already be
/// built by earlier tests in this process.
FrameworkConfig small_framework() {
  FrameworkConfig cfg;
  cfg.bulk_classes = 300;
  cfg.bulk_packages = 12;
  return cfg;
}

// --- substrate structure -------------------------------------------------------

TEST(Substrate, MaterializesEveryImageClassOnce) {
  const auto& repo = FrameworkRepository::standard();
  const DexFile& image = repo.image(25);
  const FrameworkSubstrate sub{image, 25};
  EXPECT_EQ(sub.level(), 25);
  EXPECT_GT(sub.class_count(), 0u);
  EXPECT_GT(sub.total_footprint(), 0u);
  EXPECT_LE(sub.class_count(), image.classes().size());

  const std::string name = image.type_name(image.classes().front().type);
  const LoadedClass* cls = sub.find_class(name);
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->name, name);
  EXPECT_TRUE(cls->from_framework);
  EXPECT_GT(cls->footprint, 0u);
  EXPECT_TRUE(sub.owns(*cls));
  EXPECT_EQ(sub.find_class("no/such/Class"), nullptr);
}

TEST(Substrate, MethodTablesMatchDeclarationsExactly) {
  const auto& repo = FrameworkRepository::standard();
  const DexFile& image = repo.image(25);
  const FrameworkSubstrate sub{image, 25};

  const std::string name = image.type_name(image.classes().front().type);
  const LoadedClass* cls = sub.find_class(name);
  ASSERT_NE(cls, nullptr);
  const FrameworkSubstrate::ClassEntry* entry = sub.entry_of(*cls);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(&entry->cls, cls);

  // The method table mirrors the declaration list one-to-one, with names
  // and descriptors prebuilt and invoke edges matching the instructions.
  ASSERT_EQ(entry->methods.size(), cls->def->methods.size());
  for (std::size_t i = 0; i < entry->methods.size(); ++i) {
    const MethodDef& def = cls->def->methods[i];
    const FrameworkSubstrate::MethodEntry& me = entry->methods[i];
    EXPECT_EQ(me.def, &def);
    EXPECT_EQ(me.name, image.string_at(def.name));
    EXPECT_EQ(me.descriptor, image.descriptor_of(def.proto));
    std::size_t invokes = 0;
    if (def.code) {
      for (const auto& insn : def.code->insns) {
        if (insn.op != Opcode::kInvoke) continue;
        ASSERT_LT(invokes, me.callees.size());
        const FrameworkSubstrate::CalleeEdge& edge = me.callees[invokes];
        ASSERT_NE(edge.id, nullptr);
        const MethodId expect = image.method_id_at(insn.index);
        EXPECT_EQ(edge.id->class_name, expect.class_name);
        EXPECT_EQ(edge.id->name, expect.name);
        EXPECT_EQ(edge.id->descriptor, expect.descriptor);
        if (edge.target != nullptr) {
          EXPECT_EQ(edge.target, sub.find_class(expect.class_name));
          EXPECT_EQ(sub.entry_of(*edge.target)->slot, edge.target_slot);
        }
        ++invokes;
      }
    }
    EXPECT_EQ(me.callees.size(), invokes);
  }

  // The super edge points at the substrate class the name resolves to.
  if (entry->super != nullptr) {
    EXPECT_EQ(&entry->super->cls, sub.find_class(cls->super_name));
  }

  // A private copy of the class is not owned by the substrate: identity
  // lookups must refuse (caller falls back to scanning), never answer for
  // a class they do not own.
  const LoadedClass copy = *cls;
  EXPECT_FALSE(sub.owns(copy));
  EXPECT_EQ(sub.entry_of(copy), nullptr);
}

// --- cache: one build per level, even under a stampede -------------------------

TEST(SubstrateCache, ConcurrentFirstRequestsBuildOnce) {
  const FrameworkRepository repo{small_framework()};
  constexpr int kThreads = 8;

  std::vector<std::future<std::shared_ptr<const FrameworkSubstrate>>> reqs;
  reqs.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    reqs.push_back(std::async(std::launch::async,
                              [&repo] { return repo.substrate(17); }));
  }
  std::vector<std::shared_ptr<const FrameworkSubstrate>> handles;
  handles.reserve(kThreads);
  for (auto& r : reqs) handles.push_back(r.get());

  for (const auto& h : handles) {
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h.get(), handles.front().get());  // one object, shared
  }
  EXPECT_EQ(repo.substrate_build_count(), 1u);

  // A different level is a different key: second build.
  const auto other = repo.substrate(18);
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other.get(), handles.front().get());
  EXPECT_EQ(repo.substrate_build_count(), 2u);

  // Same key again: cache hit, no third build.
  EXPECT_EQ(repo.substrate(17).get(), handles.front().get());
  EXPECT_EQ(repo.substrate_build_count(), 2u);
}

// --- fault injection inside the build ------------------------------------------

TEST(SubstrateCache, PoisonedLevelFailsAloneAndRetries) {
  const FrameworkRepository repo{small_framework()};
  const std::uint64_t retries_before = framework_build_retries();

  {
    FaultPlan plan;
    plan.faults.push_back(
        {"adf.substrate", "substrate:level23", FaultSpec::Kind::kInjected});
    const FaultScope scope{plan};

    // The poisoned level throws; the sibling level builds fine.
    EXPECT_THROW((void)repo.substrate(23), InjectedFault);
    EXPECT_NO_THROW((void)repo.substrate(11));
    EXPECT_EQ(repo.substrate_build_count(), 1u);

    // A second request while still poisoned re-enters the build (the
    // failed attempt never satisfied the once-guard) and fails again.
    EXPECT_THROW((void)repo.substrate(23), InjectedFault);
  }

  // Fault cleared: the next request rebuilds and succeeds.
  std::shared_ptr<const FrameworkSubstrate> sub;
  ASSERT_NO_THROW(sub = repo.substrate(23));
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->level(), 23);
  EXPECT_EQ(repo.substrate_build_count(), 2u);

  // Every re-entry after the first attempt counts as a retry: two here
  // (second poisoned request + the post-disarm rebuild).
  EXPECT_EQ(framework_build_retries() - retries_before, 2u);
}

// --- parallel ARM mining -------------------------------------------------------

TEST(ParallelMining, DatabaseIsJobsInvariant) {
  const FrameworkRepository repo{small_framework()};
  const ApiDatabase serial = ApiDatabase::mine(repo, 1);
  const ApiDatabase parallel = ApiDatabase::mine(repo, 4);
  EXPECT_GT(serial.method_count(), 0u);
  EXPECT_EQ(serial.method_count(), parallel.method_count());
  EXPECT_EQ(serial.callback_count(), parallel.callback_count());
  EXPECT_EQ(serial.permission_mapping_count(),
            parallel.permission_mapping_count());
  // Byte-identical serialization: same insertion sequences, hence same
  // hash-map iteration order, hence the same bytes.
  EXPECT_EQ(serial.serialize(), parallel.serialize());
}

// --- shared suite fixture ------------------------------------------------------

constexpr int kCorpusSize = 96;

/// 96 small corpus apps, a pre-mined database, and a serial reference
/// run — built once and reused by the determinism tests.
class SubstrateSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto& repo = FrameworkRepository::standard();
    CorpusConfig config;
    config.app_count = kCorpusSize;
    config.size_base = 120.0;
    config.size_spread = 1.5;
    config.api_issue_mean = 6.0;
    // A quarter library-heavy (framework breadth 150-400): the apps whose
    // framework walks reach deepest into the substrate.
    config.library_heavy_fraction = 0.25;
    corpus_ = new RealWorldCorpus{repo, config};
    apps_ = new std::vector<BenchApp>{
        corpus_->generate_range(0, kCorpusSize, 8)};
    SaintDroid miner{repo};
    db_ = new std::shared_ptr<const ApiDatabase>{miner.shared_database()};
    reference_ = new SuiteResult{run_suite_parallel(factory(), *apps_, 1)};
  }

  static void TearDownTestSuite() {
    delete reference_;
    delete db_;
    delete apps_;
    delete corpus_;
    reference_ = nullptr;
    db_ = nullptr;
    apps_ = nullptr;
    corpus_ = nullptr;
  }

  static AnalyzerFactory factory(SaintDroidOptions options = {}) {
    return [options] {
      return std::make_unique<SaintDroid>(FrameworkRepository::standard(),
                                          *db_, options);
    };
  }

  static RealWorldCorpus* corpus_;
  static std::vector<BenchApp>* apps_;
  static std::shared_ptr<const ApiDatabase>* db_;
  static SuiteResult* reference_;
};

RealWorldCorpus* SubstrateSuite::corpus_ = nullptr;
std::vector<BenchApp>* SubstrateSuite::apps_ = nullptr;
std::shared_ptr<const ApiDatabase>* SubstrateSuite::db_ = nullptr;
SuiteResult* SubstrateSuite::reference_ = nullptr;

// --- pinned outputs ------------------------------------------------------------

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x00000100000001b3ULL;
  }
  return h;
}

/// Digest of a suite's canonical rows, in input order.
std::uint64_t rows_digest(const SuiteResult& suite) {
  std::uint64_t h = kFnvBasis;
  for (const SuiteAppRow& row : suite.rows)
    h = fnv1a(h, canonical_row_bytes(row) + "\n");
  return h;
}

/// Digest of one analyzer's full per-app reports (every mismatch, exact
/// peak bytes and loaded classes; wall clock zeroed), analyzed directly.
std::uint64_t reports_digest(Analyzer& tool, std::span<const BenchApp> apps) {
  std::uint64_t h = kFnvBasis;
  for (const BenchApp& app : apps) {
    AnalysisResult result = tool.analyze(app.apk);
    result.usage.seconds = 0.0;
    h = fnv1a(h, result.to_text(app.apk.name));
    h = fnv1a(h, std::to_string(result.usage.peak_bytes) + "\n");
  }
  return h;
}

/// Digest of the sd_dynamic verdicts of `apps` at every level each app
/// supports: crashes, skipped callbacks, steps and the step-limit flag.
std::uint64_t dynamic_digest(std::span<const BenchApp> apps) {
  const auto& repo = FrameworkRepository::standard();
  std::uint64_t h = kFnvBasis;
  for (const BenchApp& app : apps) {
    Interpreter interp{app.apk, repo};
    const ApiInterval range =
        app.apk.manifest.supported_range().intersect(ApiInterval::full());
    for (int level = range.lo(); level <= range.hi(); ++level) {
      DeviceConfig device;
      device.level = level;
      const ExecutionResult run = interp.run(device);
      std::string verdict = std::to_string(run.device_level) + " " +
                            std::to_string(run.steps) + " " +
                            std::to_string(run.step_limit_hit) + "\n";
      for (const CrashEvent& crash : run.crashes)
        verdict += crash.to_string() + "\n";
      for (const SkippedCallback& skipped : run.skipped_callbacks)
        verdict += skipped.app_method.to_string() + " -> " +
                   skipped.framework_callback.to_string() + "\n";
      h = fnv1a(h, verdict);
    }
  }
  return h;
}

/// Digest of every level's substrate tables, as the model cache stores them.
std::uint64_t substrate_tables_digest() {
  const auto& repo = FrameworkRepository::standard();
  std::uint64_t h = kFnvBasis;
  for (int level = kMinApiLevel; level <= kMaxApiLevel; ++level) {
    const auto tables = repo.substrate(level)->serialize_tables();
    h = fnv1a(h, {reinterpret_cast<const char*>(tables.data()),
                  tables.size()});
  }
  return h;
}

// Reference values, recorded while a second, private framework path (a
// per-level class index plus a string-built framework walk) still existed
// beside the substrate; they must not move. SAINTDroid lazy rows are the
// same at every jobs count.
constexpr std::uint64_t kLazyRowsDigest = 0x71aa1337e36c6fe1ULL;
constexpr std::uint64_t kLazyReportsDigest = 0x5c71d12a62e84e90ULL;
constexpr std::uint64_t kEagerRowsDigest = 0x9cf74c4aa5aabac2ULL;
constexpr std::uint64_t kLintRowsDigest = 0x0a2ad16055bf8aa9ULL;
constexpr std::uint64_t kLintReportsDigest = 0xa6298e38113c1850ULL;
constexpr std::uint64_t kCidRowsDigest = 0x82b077be98fef639ULL;
constexpr std::uint64_t kDynamicDigest = 0x9f84fc561d083128ULL;
constexpr std::uint64_t kSubstrateTablesDigest = 0xcc72a917bbbb99c2ULL;

TEST_F(SubstrateSuite, OutputsArePinned) {
  const auto& repo = FrameworkRepository::standard();
  EXPECT_EQ(rows_digest(*reference_), kLazyRowsDigest);
  EXPECT_EQ(rows_digest(run_suite_parallel(factory(), *apps_, 8)),
            kLazyRowsDigest);
  SaintDroid lazy{repo, *db_};
  EXPECT_EQ(reports_digest(lazy, *apps_), kLazyReportsDigest);

  SaintDroidOptions eager;
  eager.lazy_loading = false;
  EXPECT_EQ(rows_digest(run_suite_parallel(factory(eager), *apps_, 2)),
            kEagerRowsDigest);

  const AnalyzerFactory lint = [] {
    return std::make_unique<LintAnalyzer>(FrameworkRepository::standard(),
                                          LintOptions{}, *db_);
  };
  EXPECT_EQ(rows_digest(run_suite_parallel(lint, *apps_, 2)),
            kLintRowsDigest);
  LintAnalyzer lint_tool{repo, {}, *db_};
  EXPECT_EQ(reports_digest(lint_tool, *apps_), kLintReportsDigest);

  const AnalyzerFactory cid = [] {
    return std::make_unique<CidAnalyzer>(FrameworkRepository::standard(),
                                         CidOptions{}, *db_);
  };
  EXPECT_EQ(rows_digest(run_suite_parallel(cid, *apps_, 2)), kCidRowsDigest);

  EXPECT_EQ(dynamic_digest({apps_->data(), 6}), kDynamicDigest);
  EXPECT_EQ(substrate_tables_digest(), kSubstrateTablesDigest);
}

// --- jobs invariance -----------------------------------------------------------

TEST_F(SubstrateSuite, RowsAreByteIdenticalAcrossJobs) {
  const std::string expected = suite_bytes(*reference_);
  for (const int jobs : {2, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const SuiteResult suite = run_suite_parallel(factory(), *apps_, jobs);
    EXPECT_EQ(suite_bytes(suite), expected);
    EXPECT_EQ(rows_digest(suite), kLazyRowsDigest);
  }
}

TEST_F(SubstrateSuite, SingleAppReportIsIdenticalEitherWay) {
  // Analyzed directly or as a row of an 8-worker suite, an app reports the
  // same findings and the same accounting.
  SaintDroid tool{FrameworkRepository::standard(), *db_};
  const SuiteResult suite = run_suite_parallel(factory(), *apps_, 8);
  EXPECT_EQ(rows_digest(suite), kLazyRowsDigest);
  for (std::size_t i = 0; i < apps_->size(); ++i) {
    const Apk& apk = (*apps_)[i].apk;
    SCOPED_TRACE(apk.name);
    const AnalysisResult direct = tool.analyze(apk);
    const SuiteAppRow& row = suite.rows[i];
    EXPECT_EQ(direct.mismatches.size(), row.mismatch_count);
    EXPECT_EQ(direct.usage.peak_bytes, row.usage.peak_bytes);
    EXPECT_EQ(direct.usage.loaded_classes, row.usage.loaded_classes);
  }
}

TEST_F(SubstrateSuite, WarmupHookRunsBeforeAnalysis) {
  bool warmed = false;
  SuiteRunOptions options;
  options.jobs = 2;
  options.warmup = [&warmed] { warmed = true; };
  const std::vector<BenchApp> head{apps_->begin(), apps_->begin() + 4};
  const SuiteResult suite = run_suite_parallel(factory(), head, options);
  EXPECT_TRUE(warmed);
  EXPECT_EQ(suite.rows.size(), 4u);
}

// --- poisoned level under a full suite -----------------------------------------

TEST(SubstratePoisonedSuite, OnePoisonedLevelFailsOnlyItsApps) {
  // Private repository + corpus: the fault must hit a cold substrate slot,
  // and standard()'s slots are warm by now.
  const FrameworkRepository repo{small_framework()};
  CorpusConfig config;
  config.app_count = 48;
  config.size_base = 100.0;
  config.size_spread = 1.5;
  config.api_issue_mean = 4.0;
  const RealWorldCorpus corpus{repo, config};
  const std::vector<BenchApp> apps = corpus.generate_range(0, 48, 4);
  SaintDroid miner{repo};
  const auto db = miner.shared_database();

  const auto factory = [&db](const FrameworkRepository& on) {
    return AnalyzerFactory{
        [&on, &db] { return std::make_unique<SaintDroid>(on, db); }};
  };

  // Reference run over a twin repository, so no slot of `repo` is built
  // before the fault is armed; the twin has the same framework, so the
  // rows are comparable.
  const FrameworkRepository twin{small_framework()};
  const SuiteResult clean = run_suite_parallel(factory(twin), apps, 4);

  // Poison the most-targeted level (guaranteed >= 2 victims).
  std::vector<int> per_level(static_cast<std::size_t>(kMaxApiLevel) + 1, 0);
  for (const auto& app : apps)
    ++per_level[static_cast<std::size_t>(
        FrameworkRepository::clamp_level(app.apk.manifest.target_sdk))];
  int poisoned = 0;
  for (int l = 0; l <= kMaxApiLevel; ++l)
    if (per_level[static_cast<std::size_t>(l)] >
        per_level[static_cast<std::size_t>(poisoned)])
      poisoned = l;
  const int victims = per_level[static_cast<std::size_t>(poisoned)];
  ASSERT_GE(victims, 2);

  FaultPlan plan;
  plan.faults.push_back({"adf.substrate",
                         "substrate:level" + std::to_string(poisoned),
                         FaultSpec::Kind::kInjected});

  {
    const FaultScope scope{plan};
    bool first_run = true;
    for (const int jobs : {1, 2, 8}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      const SuiteResult faulted =
          run_suite_parallel(factory(repo), apps, jobs);
      ASSERT_EQ(faulted.rows.size(), apps.size());
      EXPECT_EQ(faulted.failures, victims);
      for (std::size_t i = 0; i < faulted.rows.size(); ++i) {
        SCOPED_TRACE("row " + std::to_string(i));
        const int level = FrameworkRepository::clamp_level(
            apps[i].apk.manifest.target_sdk);
        const SuiteAppRow& row = faulted.rows[i];
        if (level == poisoned) {
          EXPECT_FALSE(row.completed);
          ASSERT_TRUE(row.failure.has_value());
          EXPECT_EQ(row.failure->kind, FailureKind::kInjected);
          EXPECT_EQ(row.failure->phase, "framework");
        } else {
          // Untouched levels produce exactly the clean run's rows.
          SuiteAppRow expected = clean.rows[i];
          SuiteAppRow actual = row;
          expected.usage.seconds = 0.0;
          actual.usage.seconds = 0.0;
          EXPECT_EQ(journal_line(actual), journal_line(expected));
        }
      }
      // Each victim past the first re-enters the failed build; the exact
      // retry count is surfaced on the suite result (satellite telemetry).
      const auto expected_retries =
          static_cast<std::uint64_t>(first_run ? victims - 1 : victims);
      EXPECT_EQ(faulted.framework_retries, expected_retries);
      first_run = false;
    }
  }

  // Fault cleared: the poisoned level builds on the next suite run and the
  // whole corpus matches the clean reference again.
  const SuiteResult healed = run_suite_parallel(factory(repo), apps, 4);
  EXPECT_EQ(healed.failures, clean.failures);
  EXPECT_EQ(suite_bytes(healed), suite_bytes(clean));
  EXPECT_GT(repo.substrate_build_count(), 0u);
}

}  // namespace
}  // namespace saintdroid
