// The SAINTDroid facade: wires CLVM -> hierarchy -> AUM -> AMD into the
// Analyzer interface. This is the library's primary public entry point:
//
//   const auto& repo = FrameworkRepository::standard();
//   SaintDroid tool{repo};
//   AnalysisResult result = tool.analyze(apk);
//   std::cout << result.to_text(apk.name);
//
// The ARM database is mined once per facade (per framework) and reused
// across every analyze() call, exactly as the paper describes (§III-B).
#pragma once

#include <memory>
#include <span>

#include "adf/repository.hpp"
#include "core/amd.hpp"
#include "core/analyzer.hpp"
#include "core/arm.hpp"
#include "core/aum.hpp"
#include "core/incr_cache.hpp"
#include "support/budget.hpp"

namespace saintdroid {

struct SaintDroidOptions {
  AumOptions aum;
  AmdOptions amd;
  /// Use the lazy CLVM (true) over the level's shared FrameworkSubstrate,
  /// or eager whole-world loading (false — the ablation configuration;
  /// CID-style loading with SAINTDroid detection).
  bool lazy_loading = true;
  /// Unused; kept only because perfbench/staged.cpp names it.
  SubstrateOptions substrate;
  /// Per-app resource limits (default: unlimited). Exhaustion degrades
  /// the run to a partial report flagged AnalysisResult::incomplete, with
  /// flat-scan-style API checks covering what exploration didn't reach —
  /// it never throws, so a pathological app cannot sink a batch.
  AnalysisBudget budget;
  /// Optional per-app incremental fact cache (core/incr_cache.hpp). When
  /// set (and lazy_loading is on), each analyze() consults the cache,
  /// re-explores only the dirty class set of a modified APK, and splices
  /// cached facts for the rest; full analyses record entries for next
  /// time. Results are byte-identical to from-scratch analysis under an
  /// unlimited budget (a *finite* budget can differ only in where the
  /// incomplete degradation lands; scoped runs that lose their budget are
  /// discarded and re-run in full). Shareable across worker facades.
  std::shared_ptr<const IncrCache> incr_cache;
  /// Incremental attempts whose dirty set exceeds this fraction of the
  /// app's classes fall back to full analysis — past that point scoped
  /// exploration plus splicing costs more than starting over.
  double max_dirty_fraction = 0.4;
  /// On a hit, the successor cache entry is rebuilt and stored only when
  /// the dirty fraction reaches this threshold; below it the cached entry
  /// is carried forward unchanged. Dirty sets are always computed against
  /// the stored entry, so a lagging entry can only *grow* later dirty
  /// sets (never corrupt results), and a drifted entry self-corrects
  /// through the max_dirty_fraction fallback, which stores fresh. The
  /// default refreshes on every hit; update-heavy fleets trade a little
  /// dirty-set growth for skipping most writes.
  double refresh_dirty_fraction = 0.0;
};

class SaintDroid final : public Analyzer {
 public:
  /// `repo` must outlive the analyzer. The API database is mined from it
  /// on construction (the one-time ARM cost).
  explicit SaintDroid(
      const FrameworkRepository& repo = FrameworkRepository::standard(),
      SaintDroidOptions options = {});

  /// Constructs with a previously mined database (e.g. loaded via
  /// ApiDatabase::parse), skipping the mining pass. The caller must ensure
  /// the database matches `repo`'s framework.
  SaintDroid(const FrameworkRepository& repo, ApiDatabase database,
             SaintDroidOptions options = {});

  /// Shares an already mined database without copying it — the form the
  /// parallel batch engine uses so one immutable ApiDatabase serves every
  /// worker's facade. `database` must be non-null.
  SaintDroid(const FrameworkRepository& repo,
             std::shared_ptr<const ApiDatabase> database,
             SaintDroidOptions options = {});

  std::string_view name() const override { return "SAINTDroid"; }

  /// Analyzes against the framework the app targets (the common case).
  AnalysisResult analyze(const Apk& apk) override;

  /// The paper's full input contract: "an app APK along with a set of
  /// Android framework versions". Runs the analysis against each level's
  /// image and merges the mismatch lists (deduplicated by issue identity,
  /// guard intervals hulled). Usage is summed over the runs.
  AnalysisResult analyze_versions(const Apk& apk, std::span<const int> levels);

  bool detects(MismatchKind kind) const override;

  /// Replaces the per-app resource limits for subsequent analyze() calls —
  /// the cancellable-analysis entry point the serve layer uses to apply a
  /// per-request budget (deadline + cancel flag) to a reused facade. Not
  /// thread-safe against a concurrent analyze(); callers own the facade
  /// exclusively (one per worker, as in the parallel harness).
  void set_budget(const AnalysisBudget& budget) { options_.budget = budget; }
  const AnalysisBudget& budget() const { return options_.budget; }

  const ApiDatabase& database() const { return *db_; }

  /// The shared handle, for spawning sibling analyzers against the same
  /// mined model.
  const std::shared_ptr<const ApiDatabase>& shared_database() const {
    return db_;
  }

 private:
  AnalysisResult analyze_at_level(const Apk& apk, int level);

  const FrameworkRepository* repo_;
  SaintDroidOptions options_;
  // Immutable after construction; shared (never copied) across the
  // per-worker facades of a parallel suite run.
  std::shared_ptr<const ApiDatabase> db_;
};

}  // namespace saintdroid
