// The on-disk model cache (.sdmc): correctness of the container round
// trips, the repository's substrate store/hit path, and — the load-bearing
// property — *warm ≡ cold*: a process that starts from a populated cache
// (ApiDatabase loaded, substrates rebound from persisted tables) produces
// byte-identical canonical journal rows to a process that mines everything
// from scratch, over a 200-app corpus, at jobs ∈ {1, 2, 8}. Around that
// sit stale-version eviction (an old-format entry is re-mined and
// overwritten, never trusted) and concurrent shard writers racing on one
// shared cache directory (the TSan leg of ci/sanitize.sh runs this binary
// for exactly that test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "temp_root.hpp"
#include "adf/repository.hpp"
#include "core/model_cache.hpp"
#include "core/saintdroid.hpp"
#include "core/semantics.hpp"
#include "support/bytes.hpp"
#include "support/errors.hpp"
#include "support/sdmc.hpp"
#include "workload/corpus.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace saintdroid {
namespace {

/// One framework config shared by every repository instance in this file:
/// equal configs -> equal specs -> equal fingerprints, so instances
/// interchangeably share cache entries. Smaller than the standard config
/// because the tests construct many fresh repositories.
FrameworkConfig small_config() {
  FrameworkConfig cfg;
  cfg.bulk_classes = 400;
  cfg.bulk_packages = 12;
  return cfg;
}

/// A fresh, empty cache directory under the test temp root.
std::string fresh_cache_dir(const std::string& name) {
  const std::string dir = process_temp_path("model_cache_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// The byte-identity currency (same as the shard differential): canonical
/// journal lines (seconds zeroed), sorted.
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

TEST(ModelCacheDb, MissMinesStoresThenServesByteIdentical) {
  const FrameworkRepository repo{small_config()};
  const ModelCache cache{fresh_cache_dir("apidb")};

  bool served = true;
  const auto mined = cache.api_database(repo, 2, &served);
  EXPECT_FALSE(served);  // empty directory: this run paid the mining pass
  EXPECT_TRUE(
      std::filesystem::exists(cache.api_database_path(repo)));

  const auto loaded = cache.api_database(repo, 2, &served);
  EXPECT_TRUE(served);  // second process skips mining entirely
  EXPECT_EQ(mined->method_count(), loaded->method_count());
  EXPECT_EQ(mined->callback_count(), loaded->callback_count());
  EXPECT_EQ(mined->permission_mapping_count(),
            loaded->permission_mapping_count());
  // serialize(parse(b)) == b: the cached database is the mined one,
  // byte-for-byte in its canonical form.
  EXPECT_EQ(mined->serialize(), loaded->serialize());
}

TEST(ModelCacheDb, ForeignFingerprintMissesAndRemines) {
  // A cache populated by one framework must never serve another: the entry
  // is keyed by fingerprint, so a different config re-mines.
  const std::string dir = fresh_cache_dir("foreign");
  const ModelCache cache{dir};
  const FrameworkRepository repo{small_config()};
  (void)cache.api_database(repo);

  FrameworkConfig other_cfg = small_config();
  other_cfg.seed ^= 1;
  const FrameworkRepository other{other_cfg};
  ASSERT_NE(repo.fingerprint(), other.fingerprint());
  EXPECT_FALSE(cache.try_load_api_database(other).has_value());
  bool served = true;
  (void)cache.api_database(other, 1, &served);
  EXPECT_FALSE(served);
  // Both entries now coexist (distinct file names).
  EXPECT_TRUE(cache.try_load_api_database(repo).has_value());
  EXPECT_TRUE(cache.try_load_api_database(other).has_value());
}

TEST(ModelCacheDb, PrePrVersionEntriesRefusedThenReminedAndRestored) {
  // The shape an upgrade leaves behind: apidb and semtab entries written
  // by a build with a different container version. Both must be refused
  // cleanly — miss, re-mine/re-derive, overwrite — never loaded.
  const std::string dir = fresh_cache_dir("version_bump");
  const ModelCache cache{dir};
  const FrameworkRepository repo{small_config()};
  const auto fresh = cache.api_database(repo, 2);
  const auto db_reference = fresh->serialize();
  ASSERT_NE(fresh->semantics(), nullptr);
  const auto sem_reference = fresh->semantics()->serialize();

  const auto corrupt_version = [](const std::string& path) {
    auto blob = read_file_bytes(path);
    ASSERT_TRUE(blob.has_value()) << path;
    (*blob)[4] ^= 0x20;  // version is the u32 at bytes 4..7
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(blob->data()),
              static_cast<std::streamsize>(blob->size()));
  };
  corrupt_version(cache.api_database_path(repo));
  corrupt_version(cache.semantic_table_path(repo));

  EXPECT_FALSE(cache.try_load_api_database(repo).has_value());
  bool served = true;
  const auto remined = cache.api_database(repo, 2, &served);
  EXPECT_FALSE(served);  // the stale entry cost this run the mining pass
  EXPECT_EQ(remined->serialize(), db_reference);
  ASSERT_NE(remined->semantics(), nullptr);
  EXPECT_EQ(remined->semantics()->serialize(), sem_reference);

  // Both entries were overwritten in place: the next process is warm
  // again, semantic table included.
  const auto healthy = cache.api_database(repo, 2, &served);
  EXPECT_TRUE(served);
  EXPECT_EQ(healthy->serialize(), db_reference);
  ASSERT_NE(healthy->semantics(), nullptr);
  EXPECT_EQ(healthy->semantics()->serialize(), sem_reference);
}

TEST(ModelCacheSubstrate, RebindMatchesFullBuildExactly) {
  const FrameworkRepository repo{small_config()};
  const int level = 23;
  const auto built = repo.substrate(level);
  const auto tables = built->serialize_tables();

  const FrameworkSubstrate rebound{repo.image(level), level, tables};
  EXPECT_EQ(rebound.class_count(), built->class_count());
  EXPECT_EQ(rebound.method_count(), built->method_count());
  EXPECT_EQ(rebound.total_footprint(), built->total_footprint());
  // Structural identity down to the last edge: re-serializing the rebound
  // substrate reproduces the exact table bytes.
  EXPECT_EQ(rebound.serialize_tables(), tables);

  const LoadedClass* cls = rebound.find_class("android/app/Activity");
  ASSERT_NE(cls, nullptr);
  EXPECT_NE(FrameworkSubstrate::entry_of(*cls), nullptr);

  // Another level round-trips through its own tables.
  const int lean = 14;
  const auto lean_tables = repo.substrate(lean)->serialize_tables();
  const FrameworkSubstrate lean_rebound{repo.image(lean), lean, lean_tables};
  EXPECT_EQ(lean_rebound.serialize_tables(), lean_tables);
  EXPECT_NE(lean_tables, tables);

  // Tables whose format byte says "no method tables" are stale: refused.
  std::vector<std::uint8_t> stale = tables;
  ByteReader r{stale};
  r.uleb();
  r.uleb();
  stale[r.offset()] = 0;
  EXPECT_THROW((FrameworkSubstrate{repo.image(level), level, stale}),
               ParseError);
}

TEST(ModelCacheSubstrate, RepositoryStoresThenLaterInstanceHits) {
  const std::string dir = fresh_cache_dir("repo_hit");

  const FrameworkRepository writer{small_config()};
  writer.set_model_cache_dir(dir);
  const auto built = writer.substrate(23);
  EXPECT_EQ(writer.substrate_cache_hits(), 0u);
  EXPECT_EQ(writer.substrate_cache_stores(), 1u);
  EXPECT_EQ(writer.substrate_build_count(), 1u);

  const FrameworkRepository reader{small_config()};
  reader.set_model_cache_dir(dir);
  const auto rebound = reader.substrate(23);
  EXPECT_EQ(reader.substrate_cache_hits(), 1u);
  EXPECT_EQ(reader.substrate_cache_stores(), 0u);
  EXPECT_EQ(rebound->serialize_tables(), built->serialize_tables());

  // The level is part of the key: another level is a distinct entry, so
  // its first request stores rather than hits.
  (void)reader.substrate(14);
  EXPECT_EQ(reader.substrate_cache_hits(), 1u);
  EXPECT_EQ(reader.substrate_cache_stores(), 1u);
}

TEST(ModelCacheSubstrate, StaleVersionEntryIsEvictedAndOverwritten) {
  const std::string dir = fresh_cache_dir("stale");
  const FrameworkRepository writer{small_config()};
  writer.set_model_cache_dir(dir);
  const auto original = writer.substrate(23)->serialize_tables();

  // Corrupt the stored container's version field in place — the shape a
  // leftover cache from an older build has after a format bump.
  const std::string entry =
      dir + "/substrate-" + writer.fingerprint() + "-L23-m1.sdmc";
  auto blob = read_file_bytes(entry);
  ASSERT_TRUE(blob.has_value());
  (*blob)[4] ^= 0x20;  // version is the u32 at bytes 4..7
  std::ofstream out{entry, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(blob->data()),
            static_cast<std::streamsize>(blob->size()));
  out.close();

  // The stale entry must not load: the next instance re-mines and
  // overwrites it...
  const FrameworkRepository evictor{small_config()};
  evictor.set_model_cache_dir(dir);
  const auto rebuilt = evictor.substrate(23);
  EXPECT_EQ(evictor.substrate_cache_hits(), 0u);
  EXPECT_EQ(evictor.substrate_cache_stores(), 1u);
  EXPECT_EQ(rebuilt->serialize_tables(), original);

  // ...after which the directory is healthy again.
  const FrameworkRepository reader{small_config()};
  reader.set_model_cache_dir(dir);
  (void)reader.substrate(23);
  EXPECT_EQ(reader.substrate_cache_hits(), 1u);
}

TEST(ModelCacheSubstrate, ConcurrentWritersShareOneDirectorySafely) {
  // N fresh repositories (as N shard processes would be) race on one empty
  // cache directory across several levels. Rename-atomic publication means
  // every writer either rebinds a complete entry or builds and publishes
  // its own identical copy — never reads a torn file. This is the test the
  // TSan leg pins.
  const std::string dir = fresh_cache_dir("race");
  constexpr int kWriters = 4;
  const int levels[] = {21, 23, 25};

  std::vector<std::vector<std::vector<std::uint8_t>>> tables(kWriters);
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const FrameworkRepository repo{small_config()};
      repo.set_model_cache_dir(dir);
      for (const int level : levels)
        tables[static_cast<std::size_t>(w)].push_back(
            repo.substrate(level)->serialize_tables());
    });
  }
  for (auto& t : threads) t.join();

  for (int w = 1; w < kWriters; ++w)
    EXPECT_EQ(tables[static_cast<std::size_t>(w)], tables[0]) << "w=" << w;

  // The settled directory serves a late reader from cache at every level.
  const FrameworkRepository reader{small_config()};
  reader.set_model_cache_dir(dir);
  for (const int level : levels) (void)reader.substrate(level);
  EXPECT_EQ(reader.substrate_cache_hits(), 3u);
}

// --- the warm ≡ cold differential ----------------------------------------------

constexpr int kCorpusSize = 200;

/// 200 corpus apps and the cold-start reference rows (fresh repository,
/// mined database, no cache anywhere), built once.
class WarmColdSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo_ = new FrameworkRepository{small_config()};
    CorpusConfig config;
    config.app_count = kCorpusSize;
    config.size_base = 120.0;  // small apps, same generative structure
    config.size_spread = 1.5;
    config.api_issue_mean = 6.0;
    // SEM/SDC strata on: warm ≡ cold must hold with the semantic table
    // riding in the cache and the newer detector families firing.
    config.semantic_app_fraction = 0.4;
    config.declaration_issue_fraction = 0.3;
    config.helper_guard_fraction = 0.5;
    const RealWorldCorpus corpus{*repo_, config};
    apps_ = new std::vector<BenchApp>{
        corpus.generate_range(0, kCorpusSize, 8)};
    db_ = new std::shared_ptr<const ApiDatabase>{
        std::make_shared<const ApiDatabase>(ApiDatabase::mine(*repo_, 8))};
    reference_ = new std::string{sorted_canonical(
        run_suite_parallel(
            [] { return std::make_unique<SaintDroid>(*repo_, *db_); },
            *apps_, 4)
            .rows)};
  }

  static void TearDownTestSuite() {
    delete reference_;
    delete db_;
    delete apps_;
    delete repo_;
    reference_ = nullptr;
    db_ = nullptr;
    apps_ = nullptr;
    repo_ = nullptr;
  }

  static FrameworkRepository* repo_;
  static std::vector<BenchApp>* apps_;
  static std::shared_ptr<const ApiDatabase>* db_;
  static std::string* reference_;
};

FrameworkRepository* WarmColdSuite::repo_ = nullptr;
std::vector<BenchApp>* WarmColdSuite::apps_ = nullptr;
std::shared_ptr<const ApiDatabase>* WarmColdSuite::db_ = nullptr;
std::string* WarmColdSuite::reference_ = nullptr;

TEST_F(WarmColdSuite, CachedRunsEqualMinedRunsAcrossJobs) {
  // One shared cache directory across every jobs value, exactly as shard
  // processes share one. The first run populates it (mining once); every
  // later run is fully warm — database served from cache, substrates
  // rebound — and every run's canonical rows must equal the cold
  // reference byte-for-byte.
  const std::string dir = fresh_cache_dir("differential");
  bool first = true;
  for (const int jobs : {1, 2, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const FrameworkRepository repo{small_config()};
    const ModelCache cache{dir};
    cache.attach_substrate_cache(repo);

    bool served = false;
    const auto db = cache.api_database(repo, jobs, &served);
    EXPECT_EQ(served, !first);
    EXPECT_EQ(db->serialize(), (*db_)->serialize());

    const SuiteResult suite = run_suite_parallel(
        [&] { return std::make_unique<SaintDroid>(repo, db); }, *apps_,
        jobs);
    EXPECT_EQ(sorted_canonical(suite.rows), *reference_);
    if (!first) {
      // A warm process re-derives nothing: every substrate it touched was
      // rebound from the cache, none stored anew.
      EXPECT_GT(repo.substrate_cache_hits(), 0u);
      EXPECT_EQ(repo.substrate_cache_stores(), 0u);
    }
    first = false;
  }
}

TEST_F(WarmColdSuite, HarnessOptionsAttachTheCacheBeforeWarmup) {
  // The SuiteRunOptions knob is what the CLI rides: setting
  // (model_cache_dir, repository) must attach the cache before warmup so
  // the warmed substrates populate/hit it — and rows stay identical.
  const std::string dir = fresh_cache_dir("harness_knob");
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const FrameworkRepository repo{small_config()};
    SuiteRunOptions options;
    options.jobs = 2;
    options.model_cache_dir = dir;
    options.repository = &repo;
    options.warmup = [&] {
      (void)repo.substrate(FrameworkRepository::clamp_level(
          (*apps_)[0].apk.manifest.target_sdk));
    };
    const auto db = ModelCache{dir}.api_database(repo, 2);
    const SuiteResult suite = run_suite_parallel(
        [&] { return std::make_unique<SaintDroid>(repo, db); }, *apps_,
        options);
    EXPECT_EQ(sorted_canonical(suite.rows), *reference_);
    if (round == 1) {
      EXPECT_GT(repo.substrate_cache_hits(), 0u);
    }
  }
}

}  // namespace
}  // namespace saintdroid
