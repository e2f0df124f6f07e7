#include "core/saintdroid.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "clvm/clvm.hpp"
#include "hierarchy/hierarchy.hpp"
#include "support/errors.hpp"
#include "support/meter.hpp"

namespace saintdroid {

SaintDroid::SaintDroid(const FrameworkRepository& repo,
                       SaintDroidOptions options)
    : repo_(&repo),
      options_(options),
      db_(std::make_shared<const ApiDatabase>(ApiDatabase::mine(repo))) {}

SaintDroid::SaintDroid(const FrameworkRepository& repo, ApiDatabase database,
                       SaintDroidOptions options)
    : repo_(&repo),
      options_(options),
      db_(std::make_shared<const ApiDatabase>(std::move(database))) {}

SaintDroid::SaintDroid(const FrameworkRepository& repo,
                       std::shared_ptr<const ApiDatabase> database,
                       SaintDroidOptions options)
    : repo_(&repo), options_(options), db_(std::move(database)) {}

AnalysisResult SaintDroid::analyze(const Apk& apk) {
  // Analyze against the framework the app was built for.
  return analyze_at_level(
      apk, FrameworkRepository::clamp_level(apk.manifest.target_sdk));
}

AnalysisResult SaintDroid::analyze_versions(const Apk& apk,
                                            std::span<const int> levels) {
  AnalysisResult merged;
  std::unordered_map<std::string, std::size_t> seen;
  for (const int level : levels) {
    AnalysisResult one =
        analyze_at_level(apk, FrameworkRepository::clamp_level(level));
    for (auto& m : one.mismatches) {
      const std::string key = m.key();
      if (const auto it = seen.find(key); it != seen.end()) {
        auto& existing = merged.mismatches[it->second];
        existing.problem_levels =
            existing.problem_levels.hull(m.problem_levels);
        continue;
      }
      seen.emplace(key, merged.mismatches.size());
      merged.mismatches.push_back(std::move(m));
    }
    if (one.incomplete && !merged.incomplete) {
      merged.incomplete = true;
      merged.incomplete_reason = std::move(one.incomplete_reason);
    }
    merged.usage.seconds += one.usage.seconds;
    merged.usage.peak_bytes =
        std::max(merged.usage.peak_bytes, one.usage.peak_bytes);
    merged.usage.loaded_classes =
        std::max(merged.usage.loaded_classes, one.usage.loaded_classes);
    merged.incremental += one.incremental;
  }
  return merged;
}

AnalysisResult SaintDroid::analyze_at_level(const Apk& apk, int level) {
  AnalysisResult result;
  const Stopwatch watch;

  const DexFile* framework = nullptr;
  std::shared_ptr<const FrameworkSubstrate> substrate;
  {
    const PhaseScope phase{"framework"};
    // The lazy loader takes every framework class from the level's shared
    // substrate. A failure here (first build of a poisoned level) fails
    // this analysis in the "framework" phase and the unsatisfied
    // once-guard retries next time.
    if (options_.lazy_loading)
      substrate = repo_->substrate(level);
    else
      framework = &repo_->image(level);
  }

  // Every analysis attempt — the incremental one and the full one it may
  // fall back to — gets its own provider and budget, so a discarded scoped
  // run cannot leak loaded classes, memory accounting, or consumed budget
  // into the run whose results are reported.
  const auto make_provider = [&](BudgetTracker& budget) {
    const PhaseScope phase{"load"};
    std::unique_ptr<ClassProvider> provider;
    if (options_.lazy_loading)
      provider = std::make_unique<ClassLoaderVm>(
          apk, substrate, /*include_secondary=*/true, &budget);
    else
      provider = std::make_unique<EagerLoader>(apk, *framework,
                                               /*include_secondary=*/true,
                                               /*load_framework=*/true);
    return provider;
  };

  // AMD + the budget-degradation fallback + usage accounting, shared by
  // both paths.
  const auto detect_and_finish = [&](const UsageModel& model,
                                     const ClassProvider& provider,
                                     const BudgetTracker& budget) {
    const PhaseScope phase{"detect"};
    Amd amd{*db_, options_.amd};
    result.mismatches = amd.detect(apk.manifest, model);

    if (model.incomplete) {
      // Budget exhausted: keep everything the truncated exploration found
      // and fill coverage gaps with the flat scan, deduplicated by issue
      // identity so double-found mismatches appear once.
      result.incomplete = true;
      result.incomplete_reason = budget.reason() ? budget.reason() : "budget";
      UsageModel flat;
      // The flat model gathers no permission uses and no guard checks, so
      // the absence-based SDC lints must stay quiet on it.
      flat.incomplete = true;
      flat.api_calls = flat_scan(apk, *db_, options_.aum.guards);
      std::unordered_set<std::string> seen;
      seen.reserve(result.mismatches.size());
      for (const auto& m : result.mismatches) seen.insert(m.key());
      for (auto& m : amd.detect(apk.manifest, flat)) {
        if (seen.insert(m.key()).second)
          result.mismatches.push_back(std::move(m));
      }
    }

    result.usage.seconds = watch.seconds();
    result.usage.peak_bytes = provider.memory().peak_bytes();
    result.usage.loaded_classes = provider.loaded_class_count();
  };

  // ---- Incremental attempt -------------------------------------------
  // Eligibility requires the lazy CLVM: the eager loader materializes the
  // whole world up front, so there is no dirty-region cost to save.
  const IncrCache* cache = options_.incr_cache.get();
  const bool incr_eligible = cache != nullptr && options_.lazy_loading;
  ApkFingerprints fingerprints;
  std::uint64_t manifest_fp = 0;
  std::uint64_t options_fp = 0;
  if (incr_eligible) {
    result.incremental.attempted = 1;
    fingerprints = fingerprint_apk(apk);
    manifest_fp = manifest_fingerprint(apk.manifest);
    options_fp = aum_options_fingerprint(options_.aum);
    std::optional<IncrEntry> cached = cache->try_load(*repo_, apk.name, level);
    if (cached &&
        (cached->manifest_fp != manifest_fp || cached->options_fp != options_fp))
      cached.reset();  // manifest or option drift: whole entry unusable

    if (cached) {
      const DirtyDelta delta = compute_dirty(*cached, fingerprints);
      if (delta.fraction() <= options_.max_dirty_fraction) {
        BudgetTracker budget{options_.budget};
        auto provider = make_provider(budget);
        ClassHierarchy hierarchy{*provider, substrate.get()};
        // Classes whose app-internal super/interface chain touches the
        // dirty set. Virtual resolution only walks that chain, so a clean
        // class's edge to any other callee resolves as it did last run —
        // the seed pass skips it. Monotone fixpoint, so declaration cycles
        // (invalid dex, but cheap to tolerate) cannot under-approximate.
        std::unordered_set<std::string> dirty_targets = delta.dirty;
        for (bool grew = true; grew;) {
          grew = false;
          for (const auto& [name, fp] : fingerprints) {
            if (dirty_targets.count(name) != 0) continue;
            bool hit = !fp.super_name.empty() &&
                       dirty_targets.count(fp.super_name) != 0;
            for (const auto& iface : fp.interfaces)
              if (hit) break;
              else
                hit = dirty_targets.count(iface) != 0;
            if (hit) {
              dirty_targets.insert(name);
              grew = true;
            }
          }
        }
        // Clean traces by pointer into the cached entry — building the
        // scope costs O(classes), not a deep copy of the trace maps. A
        // clean class is a seed candidate only when it references a dirty
        // target (its fresh ref list covers every trace callee and
        // late-bound type, because removed/added referents always dirty
        // their referrers).
        std::vector<Aum::CleanClass> clean;
        clean.reserve(cached->classes.size());
        for (const auto& [name, record] : cached->classes) {
          if (delta.dirty.count(name) != 0) continue;
          Aum::CleanClass cc;
          cc.name = &name;
          cc.trace = &record.trace;
          if (const auto it = fingerprints.find(name);
              it != fingerprints.end()) {
            cc.seed_candidate = false;
            for (const auto& ref : it->second.refs) {
              if (dirty_targets.count(ref) != 0) {
                cc.seed_candidate = true;
                break;
              }
            }
          }
          clean.push_back(cc);
        }
        UsageModel model;
        ExplorationTrace dirty_trace;
        bool usable = false;
        {
          const PhaseScope phase{"model"};
          Aum aum{hierarchy, *db_, options_.aum, &budget};
          Aum::IncrementalScope scope;
          scope.dirty = &delta.dirty;
          scope.clean = clean;
          scope.dirty_targets = &dirty_targets;
          model = aum.model_incremental(apk, scope, &dirty_trace);
          // A scope violation means a cached trace led outside the dirty
          // set (a soundness net that should not trip); a budget-truncated
          // scoped run cannot be spliced against complete cached facts.
          // Either way the attempt is discarded wholesale.
          usable = !aum.scope_violation() && !model.incomplete;
        }
        if (usable) {
          result.incremental.hits = 1;
          result.incremental.dirty_classes = delta.dirty.size();
          // Successor entry from the *pre-splice* scoped model, so dirty
          // classes' facts are not double-counted next round. Below the
          // refresh threshold the cached entry is carried forward instead:
          // later diffs run against the older fingerprints, yielding larger
          // but still-sound dirty sets, in exchange for skipping the
          // rebuild and the write.
          std::optional<IncrEntry> updated;
          if (delta.fraction() >= options_.refresh_dirty_fraction)
            updated = update_incr_entry(*cached, delta.dirty, fingerprints,
                                        dirty_trace, model);
          splice_clean_facts(*cached, delta.dirty, model);
          detect_and_finish(model, *provider, budget);
          if (updated) {
            try {
              cache->store(*repo_, level, *updated);
            } catch (const Error&) {
              // Best-effort: a failed store only costs the next run its
              // hit.
            }
          }
          return result;
        }
      }
    }
    // Missing/corrupt entry, drift, an over-budget dirty frontier, or a
    // discarded scoped attempt: count the fallback loudly and start over.
    result.incremental.fallbacks = 1;
  }

  // ---- Full analysis --------------------------------------------------
  BudgetTracker budget{options_.budget};
  auto provider = make_provider(budget);
  ClassHierarchy hierarchy{*provider, substrate.get()};
  UsageModel model;
  ExplorationTrace trace;
  {
    const PhaseScope phase{"model"};
    Aum aum{hierarchy, *db_, options_.aum, &budget};
    model = aum.model(apk, incr_eligible ? &trace : nullptr);
  }
  detect_and_finish(model, *provider, budget);
  if (incr_eligible && !result.incomplete) {
    // Record for next time — but never from a truncated exploration, whose
    // per-class facts under-approximate.
    try {
      cache->store(*repo_, level,
                   make_incr_entry(apk.name, manifest_fp, options_fp,
                                   fingerprints, trace, model));
    } catch (const Error&) {
      // Best-effort, as above.
    }
  }
  return result;
}

bool SaintDroid::detects(MismatchKind kind) const {
  switch (kind) {
    case MismatchKind::kApiInvocation: return options_.amd.detect_api;
    case MismatchKind::kApiCallback: return options_.amd.detect_callbacks;
    case MismatchKind::kPermissionRequest:
    case MismatchKind::kPermissionRevocation:
      return options_.amd.detect_permissions;
    case MismatchKind::kSemanticChange:
      return options_.amd.detect_semantics;
    case MismatchKind::kSdkDeclaration:
      return options_.amd.detect_declarations;
  }
  return false;
}

}  // namespace saintdroid
