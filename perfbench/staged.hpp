// The two analyzers of the traced run.
//
// StagedAnalyzer re-enacts SaintDroid::analyze (full analysis, default
// options, unlimited budget) stage by stage through each module's public
// API — image, substrate, ClassLoaderVm + ClassHierarchy, Aum::model,
// Amd::detect — with a span around every stage, so the per-layer self
// times of corpus_batch come from the same calls the facade makes. Its
// canonical rows must equal the facade's; the traced run checks that.
//
// TracingAnalyzer wraps the facade itself (the incremental path, and the
// in-process work-stealing agents) with one span per app. With an
// incremental cache configured it first replays the cache's public calls
// — fingerprint_apk, IncrCache::try_load, compute_dirty — under their own
// spans, which prices them at the cost of doing them twice in that run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/analyzer.hpp"
#include "core/incr_cache.hpp"
#include "core/saintdroid.hpp"

namespace perfbench {

/// App name -> index in the workload's input list, the span id.
using AppIds = std::unordered_map<std::string, std::int64_t>;

class StagedAnalyzer final : public saintdroid::Analyzer {
 public:
  StagedAnalyzer(const saintdroid::FrameworkRepository& repo,
                 std::shared_ptr<const saintdroid::ApiDatabase> db,
                 const AppIds& ids);

  std::string_view name() const override { return "SAINTDroid"; }
  saintdroid::AnalysisResult analyze(const saintdroid::Apk& apk) override;
  bool detects(saintdroid::MismatchKind kind) const override {
    return facade_.detects(kind);
  }

 private:
  const saintdroid::FrameworkRepository* repo_;
  std::shared_ptr<const saintdroid::ApiDatabase> db_;
  const AppIds* ids_;
  saintdroid::SaintDroidOptions options_;
  saintdroid::SaintDroid facade_;  // capability answers only
};

class TracingAnalyzer final : public saintdroid::Analyzer {
 public:
  /// `incr`, when set, must be the cache the wrapped facade uses.
  TracingAnalyzer(std::unique_ptr<saintdroid::Analyzer> inner,
                  const saintdroid::FrameworkRepository& repo,
                  std::shared_ptr<const saintdroid::IncrCache> incr,
                  const AppIds& ids);

  std::string_view name() const override { return inner_->name(); }
  saintdroid::AnalysisResult analyze(const saintdroid::Apk& apk) override;
  bool detects(saintdroid::MismatchKind kind) const override {
    return inner_->detects(kind);
  }

 private:
  std::unique_ptr<saintdroid::Analyzer> inner_;
  const saintdroid::FrameworkRepository* repo_;
  std::shared_ptr<const saintdroid::IncrCache> incr_;
  const AppIds* ids_;
};

std::int64_t app_id(const AppIds& ids, const std::string& name);

/// What the staged stages returned, summed over every staged analysis:
/// reachable methods and API call sites of each UsageModel, mismatches of
/// each detection.
struct StageCounts {
  std::atomic<std::uint64_t> reachable_methods{0};
  std::atomic<std::uint64_t> api_calls{0};
  std::atomic<std::uint64_t> mismatches{0};
};
StageCounts& stage_counts();

}  // namespace perfbench
