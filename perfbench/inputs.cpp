#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <set>

#include "adf/repository.hpp"
#include "adf/spec.hpp"
#include "config.hpp"
#include "core/saintdroid.hpp"
#include "stats.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/sdmc.hpp"
#include "support/thread_pool.hpp"
#include "workload/corpus.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace perfbench {

namespace sd = saintdroid;
namespace fs = std::filesystem;

namespace {

/// Bump when the generators or their configuration change: it is part of
/// every input directory name, so stale caches are never reused.
constexpr const char* kInputVersion = "v3";
constexpr int kChunk = 128;

/// The families of FamilyScores, in journal order.
constexpr sd::Score sd::FamilyScores::*kFamilies[] = {
    &sd::FamilyScores::api, &sd::FamilyScores::apc, &sd::FamilyScores::prm,
    &sd::FamilyScores::sem, &sd::FamilyScores::sdc};
constexpr const char* kFamilyNames[] = {"api", "apc", "prm", "sem", "sdc"};

/// The index field of a ledger score: TP,FP,FN of every family.
std::string scores_field(const sd::FamilyScores& scores) {
  std::string out;
  for (const auto family : kFamilies) {
    const sd::Score& s = scores.*family;
    for (const std::size_t n : {s.tp, s.fp, s.fn})
      out += (out.empty() ? "" : ",") + std::to_string(n);
  }
  return out;
}

sd::FamilyScores parse_scores_field(const std::string& field) {
  sd::FamilyScores scores;
  std::size_t pos = 0;
  for (const auto family : kFamilies) {
    sd::Score& s = scores.*family;
    for (std::size_t* n : {&s.tp, &s.fp, &s.fn}) {
      std::size_t used = 0;
      *n = std::stoull(field.substr(pos), &used);
      pos += used + 1;
    }
  }
  if (pos != field.size() + 1) throw sd::Error("bad ledger score field");
  return scores;
}

std::string set_dir(Workload workload, std::uint64_t seed,
                    const std::string& root) {
  const std::string version = kInputVersion;
  switch (workload) {
    case Workload::kCorpusBatch:
    case Workload::kStealBatch:
      // One population; each seed draws its own sample from it at load.
      return root + "/rq2-population-" + version;
    case Workload::kUpdateRevet:
      return root + "/update-s" + std::to_string(seed) + "-" + version;
    case Workload::kServeOpen:
      return root + "/serve-population-" + version;
  }
  throw sd::Error("unknown workload");
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ salt;
  return sd::splitmix64(state);
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t tab = line.find('\t', start);
    fields.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) return fields;
    start = tab + 1;
  }
}

void put_field(std::string& out, const std::string& field) {
  if (field.find_first_of("\t\n") != std::string::npos)
    throw sd::Error("input field contains a tab or newline: " + field);
  out += '\t';
  out += field;
}

void put_method(std::string& out, const sd::MethodId& id) {
  put_field(out, id.class_name);
  put_field(out, id.name);
  put_field(out, id.descriptor);
}

std::string ledger_lines(std::size_t position, const sd::GroundTruth& truth) {
  std::string out;
  for (const sd::SeededIssue& issue : truth.issues) {
    out += std::to_string(position);
    put_field(out, std::to_string(static_cast<int>(issue.kind)));
    put_field(out, issue.real ? "1" : "0");
    put_method(out, issue.location);
    put_method(out, issue.subject);
    put_field(out, issue.permission);
    put_field(out, issue.tag);
    out += '\n';
  }
  return out;
}

sd::SeededIssue parse_ledger_fields(const std::vector<std::string>& f) {
  sd::SeededIssue issue;
  issue.kind = static_cast<sd::MismatchKind>(std::stoi(f[1]));
  issue.real = f[2] == "1";
  issue.location = sd::MethodId{f[3], f[4], f[5]};
  issue.subject = sd::MethodId{f[6], f[7], f[8]};
  issue.permission = f[9];
  issue.tag = f[10];
  return issue;
}

std::string names_fingerprint(const std::vector<InputApp>& apps) {
  std::vector<sd::BenchApp> named(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i)
    named[i].apk.name = apps[i].name;
  return sd::corpus_fingerprint(named);
}

struct Placement {
  int chain = -1;
  int version = 0;
};

std::uint64_t framework_breadth(const sd::Apk& apk) {
  std::set<std::string> classes;
  for (const sd::DexFile& dex : apk.dexes)
    for (std::uint32_t i = 0; i < dex.method_ref_count(); ++i) {
      sd::MethodId id = dex.method_id_at(i);
      if (sd::is_framework_class_name(id.class_name))
        classes.insert(std::move(id.class_name));
    }
  return classes.size();
}

using Generator = std::function<std::vector<sd::BenchApp>(int, int)>;

/// Writes apps [0, count) of `generate` to `dir` in chunks (never more
/// than one chunk in memory), with ledgers, reference rows and ledger
/// scores. With `service_reference` the reference rows are scored against
/// an empty ledger, as the service scores them. The index file is written
/// last and atomically: its presence marks a complete set.
void materialize(const std::string& dir, int count, const Generator& generate,
                 const std::function<Placement(int)>& place,
                 bool service_reference) {
  if (fs::exists(dir + "/index.tsv")) return;
  fs::remove_all(dir);
  sd::ensure_directory(dir + "/apk");

  const auto& repo = sd::FrameworkRepository::standard();
  const auto db =
      std::make_shared<const sd::ApiDatabase>(sd::ApiDatabase::mine(repo));
  const int jobs = static_cast<int>(sd::ThreadPool::default_workers());
  const double start = now_s();

  std::string index;
  std::ofstream ledgers{dir + "/ledgers.tsv", std::ios::trunc};
  std::vector<InputApp> listed;
  for (int begin = 0; begin < count; begin += kChunk) {
    const int end = std::min(count, begin + kChunk);
    std::vector<sd::BenchApp> apps = generate(begin, end);

    // Reference rows: from-scratch facade over the in-memory apps, scored
    // against the ledgers; a service reference comes from a second pass
    // with the ledgers taken away.
    const auto analyze = [&] {
      return sd::run_suite_parallel(
          [&] { return std::make_unique<sd::SaintDroid>(repo, db); }, apps,
          jobs);
    };
    const sd::SuiteResult scored = analyze();
    sd::SuiteResult unscored;
    if (service_reference) {
      std::vector<sd::GroundTruth> truths(apps.size());
      for (std::size_t i = 0; i < apps.size(); ++i)
        std::swap(truths[i], apps[i].truth);
      unscored = analyze();
      for (std::size_t i = 0; i < apps.size(); ++i)
        std::swap(truths[i], apps[i].truth);
    }
    const sd::SuiteResult& reference = service_reference ? unscored : scored;

    for (std::size_t i = 0; i < apps.size(); ++i) {
      const sd::BenchApp& app = apps[i];
      const sd::SuiteAppRow& row = reference.rows[i];
      if (!row.completed || row.incomplete)
        throw sd::Error("reference analysis failed for " + app.apk.name);
      const auto bytes = app.apk.serialize();
      const int position = begin + static_cast<int>(i);
      // Chain versions share one app name; the position keeps files apart.
      const std::string file =
          "apk/" + std::to_string(position) + "-" + app.apk.name + ".apk";
      sd::write_file_atomic(dir + "/" + file, bytes);
      const Placement where = place(position);
      index += app.apk.name;
      put_field(index, file);
      put_field(index, std::to_string(bytes.size()));
      put_field(index, std::to_string(framework_breadth(app.apk)));
      put_field(index, std::to_string(sd::FrameworkRepository::clamp_level(
                           app.apk.manifest.target_sdk)));
      put_field(index, std::to_string(where.chain));
      put_field(index, std::to_string(where.version));
      put_field(index, sd::canonical_row_bytes(row));
      put_field(index, scores_field(scored.rows[i].scores));
      index += '\n';
      ledgers << ledger_lines(static_cast<std::size_t>(position), app.truth);
      InputApp named;
      named.name = app.apk.name;
      listed.push_back(std::move(named));
    }
  }
  ledgers.close();
  if (!ledgers) throw sd::Error("cannot write " + dir + "/ledgers.tsv");
  const std::string header = "#fingerprint\t" + names_fingerprint(listed) + "\n";
  const std::string text = header + index;
  sd::write_file_atomic(
      dir + "/index.tsv",
      std::span<const std::uint8_t>{
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
  std::fprintf(stderr, "gen: %d packages -> %s in %.1fs\n", count,
               dir.c_str(), now_s() - start);
}

/// Runs `make(i)` for i in [begin, end) on every hardware thread.
std::vector<sd::BenchApp> parallel_generate(
    int begin, int end, const std::function<sd::BenchApp(int)>& make) {
  std::vector<sd::BenchApp> apps(static_cast<std::size_t>(end - begin));
  const std::size_t jobs = sd::ThreadPool::default_workers();
  sd::ThreadPool pool{jobs};
  std::vector<std::future<void>> done;
  for (std::size_t w = 0; w < jobs; ++w)
    done.push_back(pool.submit([&, w] {
      for (std::size_t i = w; i < apps.size(); i += jobs)
        apps[i] = make(begin + static_cast<int>(i));
    }));
  for (auto& f : done) f.get();
  return apps;
}

sd::VersionChainConfig chain_config(std::uint64_t seed, int chain) {
  sd::VersionChainConfig config;
  config.seed = mix_seed(seed, 0xC4A17ULL);
  config.versions = kChainVersions;
  config.edit_main_activity = chain % kFallbackEvery == kFallbackEvery - 1;
  return config;
}

sd::CorpusConfig serve_config() {
  sd::CorpusConfig config;
  config.app_count = kServePopulation;
  config.size_base = 80.0;  // small apps: the service path dominates
  config.size_spread = 1.3;
  return config;
}

InputSet read_set(const std::string& dir) {
  std::ifstream in{dir + "/index.tsv"};
  if (!in) throw sd::Error("inputs missing: " + dir);
  InputSet set;
  std::string line;
  std::getline(in, line);
  const auto head = split_tabs(line);
  if (head.size() != 2 || head[0] != "#fingerprint")
    throw sd::Error("bad input index header in " + dir);
  while (std::getline(in, line)) {
    const auto f = split_tabs(line);
    if (f.size() != 9) throw sd::Error("bad input index line in " + dir);
    InputApp app;
    app.name = f[0];
    app.path = dir + "/" + f[1];
    app.bytes = std::stoull(f[2]);
    app.breadth = std::stoull(f[3]);
    app.level = std::stoi(f[4]);
    app.chain = std::stoi(f[5]);
    app.version = std::stoi(f[6]);
    app.reference = f[7];
    set.population_scores += parse_scores_field(f[8]);
    std::error_code error;
    if (fs::file_size(app.path, error) != app.bytes || error)
      throw sd::Error("input package missing or resized: " + app.path);
    set.apps.push_back(std::move(app));
  }
  set.fingerprint = names_fingerprint(set.apps);
  if (set.fingerprint != head[1])
    throw sd::Error("input fingerprint mismatch in " + dir);

  std::ifstream ledgers{dir + "/ledgers.tsv"};
  while (std::getline(ledgers, line)) {
    const auto f = split_tabs(line);
    if (f.size() != 11) throw sd::Error("bad ledger line in " + dir);
    const std::size_t position = std::stoull(f[0]);
    if (position >= set.apps.size())
      throw sd::Error("ledger line for unknown app in " + dir);
    set.apps[position].truth.issues.push_back(parse_ledger_fields(f));
  }
  return set;
}

/// Appends one member of each of `k` equal-count strata of `ordered`.
void draw_strata(const std::vector<std::size_t>& ordered, std::size_t k,
                 sd::Rng& rng, std::vector<std::size_t>& picked) {
  const std::size_t n = ordered.size();
  for (std::size_t s = 0; s < k && n > 0; ++s) {
    const std::size_t lo = s * n / k;
    const std::size_t hi = std::max(lo + 1, (s + 1) * n / k);  // exclusive
    picked.push_back(ordered[static_cast<std::size_t>(rng.uniform(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi) - 1))]);
  }
}

/// A seeded draw of `count` apps whose cost profile barely moves between
/// seeds: library-heavy apps (breadth >= kHeavyBreadth) get their
/// population share of the draw, stratified by breadth; the rest are
/// stratified by package size. Returned in population order.
InputSet stratified_draw(InputSet population, std::uint64_t seed, int count) {
  std::vector<std::size_t> heavy, light;
  for (std::size_t i = 0; i < population.apps.size(); ++i)
    (population.apps[i].breadth >= kHeavyBreadth ? heavy : light).push_back(i);
  const auto order_by = [&](std::vector<std::size_t>& group, auto key) {
    std::stable_sort(group.begin(), group.end(),
                     [&](std::size_t a, std::size_t b) {
                       return key(population.apps[a]) < key(population.apps[b]);
                     });
  };
  order_by(heavy, [](const InputApp& app) { return app.breadth; });
  order_by(light, [](const InputApp& app) { return app.bytes; });

  const std::size_t k = static_cast<std::size_t>(count);
  const std::size_t k_heavy = static_cast<std::size_t>(std::llround(
      static_cast<double>(k * heavy.size()) /
      static_cast<double>(population.apps.size())));
  sd::Rng rng{mix_seed(seed, 0xC0B75ULL ^ static_cast<std::uint64_t>(count))};
  std::vector<std::size_t> picked;
  draw_strata(heavy, k_heavy, rng, picked);
  draw_strata(light, k - k_heavy, rng, picked);
  std::sort(picked.begin(), picked.end());
  InputSet sample;
  for (const std::size_t i : picked)
    sample.apps.push_back(std::move(population.apps[i]));
  sample.fingerprint = names_fingerprint(sample.apps);
  sample.population_scores = population.population_scores;
  return sample;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "corpus_batch") return Workload::kCorpusBatch;
  if (name == "update_revet") return Workload::kUpdateRevet;
  if (name == "serve_open") return Workload::kServeOpen;
  if (name == "steal_batch") return Workload::kStealBatch;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kCorpusBatch: return "corpus_batch";
    case Workload::kUpdateRevet: return "update_revet";
    case Workload::kServeOpen: return "serve_open";
    case Workload::kStealBatch: return "steal_batch";
  }
  return "?";
}

std::vector<int> InputSet::levels() const {
  std::vector<int> out;
  for (const InputApp& app : apps) out.push_back(app.level);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void generate_inputs(Workload workload, std::uint64_t seed,
                     const std::string& data_root) {
  const std::string dir = set_dir(workload, seed, data_root);
  const auto& repo = sd::FrameworkRepository::standard();
  const auto nowhere = [](int) { return Placement{}; };
  switch (workload) {
    case Workload::kCorpusBatch:
    case Workload::kStealBatch: {
      const sd::RealWorldCorpus corpus{repo};
      const int jobs = static_cast<int>(sd::ThreadPool::default_workers());
      materialize(
          dir, corpus.size(),
          [&](int begin, int end) {
            return corpus.generate_range(begin, end, jobs);
          },
          nowhere, /*service_reference=*/false);
      break;
    }
    case Workload::kUpdateRevet:
      materialize(
          dir, kChains * kChainVersions,
          [&](int begin, int end) {
            return parallel_generate(begin, end, [&](int p) {
              const int chain = p / kChainVersions;
              return sd::generate_chain_version(
                  repo, chain_config(seed, chain), chain, p % kChainVersions);
            });
          },
          [](int p) {
            return Placement{p / kChainVersions, p % kChainVersions};
          },
          /*service_reference=*/false);
      break;
    case Workload::kServeOpen: {
      const sd::RealWorldCorpus corpus{repo, serve_config()};
      const int jobs = static_cast<int>(sd::ThreadPool::default_workers());
      materialize(
          dir, corpus.size(),
          [&](int begin, int end) {
            return corpus.generate_range(begin, end, jobs);
          },
          nowhere, /*service_reference=*/true);
      break;
    }
  }
  const sd::FamilyScores scores = read_set(dir).population_scores;
  std::fprintf(stderr, "gen: population ledger TP/FP/FN %s\n",
               scores_text(scores).c_str());
  if (const std::string why = population_mismatch(workload, scores);
      !why.empty())
    throw sd::Error(why);
}

std::string scores_text(const sd::FamilyScores& scores) {
  std::string out;
  for (std::size_t f = 0; f < std::size(kFamilies); ++f) {
    const sd::Score& s = scores.*kFamilies[f];
    out += (f == 0 ? "" : " ") + std::string{kFamilyNames[f]} + " " +
           std::to_string(s.tp) + "/" + std::to_string(s.fp) + "/" +
           std::to_string(s.fn);
  }
  return out;
}

sd::FamilyScores recorded_scores(const std::size_t (&table)[5][3]) {
  sd::FamilyScores scores;
  for (std::size_t f = 0; f < std::size(kFamilies); ++f)
    scores.*kFamilies[f] = sd::Score{table[f][0], table[f][1], table[f][2]};
  return scores;
}

std::string population_mismatch(Workload workload,
                                const sd::FamilyScores& scores) {
  sd::FamilyScores recorded;
  switch (workload) {
    case Workload::kCorpusBatch:
    case Workload::kStealBatch:
      recorded = recorded_scores(kRq2PopulationScores);
      break;
    case Workload::kServeOpen:
      recorded = recorded_scores(kServePopulationScores);
      break;
    case Workload::kUpdateRevet:
      return "";
  }
  if (scores_text(scores) == scores_text(recorded)) return "";
  return "population ledger scores " + scores_text(scores) +
         " differ from the counts recorded in config.hpp (" +
         scores_text(recorded) + ")";
}

InputSet load_inputs(Workload workload, std::uint64_t seed,
                     const std::string& data_root) {
  InputSet set = read_set(set_dir(workload, seed, data_root));
  switch (workload) {
    case Workload::kCorpusBatch:
    case Workload::kStealBatch:
      return stratified_draw(std::move(set), seed, kCorpusApps);
    case Workload::kServeOpen:
      return stratified_draw(std::move(set), seed, kServeApps);
    case Workload::kUpdateRevet:
      break;
  }
  return set;
}

}  // namespace perfbench
