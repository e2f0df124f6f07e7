#include "staged.hpp"

#include <optional>

#include "clvm/clvm.hpp"
#include "core/amd.hpp"
#include "core/aum.hpp"
#include "hierarchy/hierarchy.hpp"
#include "support/budget.hpp"
#include "support/errors.hpp"
#include "support/meter.hpp"
#include "trace.hpp"

namespace perfbench {

namespace sd = saintdroid;

std::int64_t app_id(const AppIds& ids, const std::string& name) {
  const auto it = ids.find(name);
  return it == ids.end() ? -1 : it->second;
}

StageCounts& stage_counts() {
  static StageCounts counts;
  return counts;
}

StagedAnalyzer::StagedAnalyzer(const sd::FrameworkRepository& repo,
                               std::shared_ptr<const sd::ApiDatabase> db,
                               const AppIds& ids)
    : repo_(&repo), db_(db), ids_(&ids), facade_(repo, db) {}

sd::AnalysisResult StagedAnalyzer::analyze(const sd::Apk& apk) {
  const SpanScope app_span{"core.analyze", app_id(*ids_, apk.name)};
  sd::AnalysisResult result;
  const sd::Stopwatch watch;
  const int level = sd::FrameworkRepository::clamp_level(apk.manifest.target_sdk);

  const sd::DexFile* framework = nullptr;
  {
    const SpanScope span{"adf.image"};
    framework = &repo_->image(level);
  }
  std::shared_ptr<const sd::FrameworkSubstrate> substrate;
  {
    const SpanScope span{"clvm.substrate"};
    substrate = repo_->substrate(level, options_.substrate);
  }
  sd::BudgetTracker budget{options_.budget};
  std::optional<sd::ClassLoaderVm> vm;
  std::optional<sd::ClassHierarchy> hierarchy;
  {
    const SpanScope span{"clvm.init"};
    vm.emplace(apk, *framework, /*include_secondary_dexes=*/true,
               /*framework_index=*/nullptr, &budget, substrate);
    hierarchy.emplace(*vm, substrate.get());
  }
  sd::UsageModel model;
  {
    const SpanScope span{"aum.model"};
    sd::Aum aum{*hierarchy, *db_, options_.aum, &budget};
    model = aum.model(apk);
  }
  stage_counts().reachable_methods += model.reachable_methods.size();
  stage_counts().api_calls += model.api_calls.size();
  {
    const SpanScope span{"amd.detect"};
    const sd::Amd amd{*db_, options_.amd};
    result.mismatches = amd.detect(apk.manifest, model);
  }
  stage_counts().mismatches += result.mismatches.size();
  // The facade's budget-degradation fallback never runs under an
  // unlimited budget; reaching it here would make the rows diverge.
  if (model.incomplete)
    throw sd::Error("staged analyzer: budget-degraded model for " + apk.name);
  result.usage.seconds = watch.seconds();
  result.usage.peak_bytes = vm->memory().peak_bytes();
  result.usage.loaded_classes = vm->loaded_class_count();
  return result;
}

TracingAnalyzer::TracingAnalyzer(std::unique_ptr<sd::Analyzer> inner,
                                 const sd::FrameworkRepository& repo,
                                 std::shared_ptr<const sd::IncrCache> incr,
                                 const AppIds& ids)
    : inner_(std::move(inner)), repo_(&repo), incr_(std::move(incr)),
      ids_(&ids) {}

sd::AnalysisResult TracingAnalyzer::analyze(const sd::Apk& apk) {
  SpanScope app_span{"core.analyze", app_id(*ids_, apk.name)};
  if (incr_) {
    const int level =
        sd::FrameworkRepository::clamp_level(apk.manifest.target_sdk);
    sd::ApkFingerprints fingerprints;
    {
      const SpanScope span{"incr.fingerprint"};
      fingerprints = sd::fingerprint_apk(apk);
    }
    std::optional<sd::IncrEntry> cached;
    {
      const SpanScope span{"incr.load"};
      cached = incr_->try_load(*repo_, apk.name, level);
    }
    if (cached) {
      const SpanScope span{"incr.dirty"};
      (void)sd::compute_dirty(*cached, fingerprints);
    }
  }
  sd::AnalysisResult result;
  {
    const SpanScope span{"core.facade"};
    result = inner_->analyze(apk);
  }
  if (result.incremental.hits > 0)
    app_span.rename("core.analyze.hit");
  else if (result.incremental.attempted > 0)
    app_span.rename("core.analyze.miss");
  return result;
}

}  // namespace perfbench
