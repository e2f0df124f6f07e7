#include "baselines/lint.hpp"

#include "core/amd.hpp"
#include "core/aum.hpp"
#include "support/meter.hpp"

namespace saintdroid {

LintAnalyzer::LintAnalyzer(const FrameworkRepository& repo,
                           LintOptions options,
                           std::shared_ptr<const ApiDatabase> database)
    : options_(options),
      db_(database ? std::move(database) : shared_api_database(repo)) {}

AnalysisResult LintAnalyzer::analyze(const Apk& apk) {
  AnalysisResult result;
  const Stopwatch watch;

  if (!apk.manifest.buildable) {
    result.completed = false;
    result.failure_reason =
        "Lint requires source; the app does not build with current "
        "toolchains";
    result.usage.seconds = watch.seconds();
    return result;
  }
  if (apk.dex_loc() > options_.max_app_loc) {
    result.completed = false;
    result.failure_reason = "Lint crashed during analysis (app too large)";
    result.usage.seconds = watch.seconds();
    return result;
  }

  // The build step: Lint analyzes source as part of compiling the app, so
  // it pays a full (de)serialization of the program per round.
  std::uint64_t build_checksum = 0;
  for (int round = 0; round < options_.build_rounds; ++round) {
    for (const auto& dex : apk.dexes) {
      const auto bytes = dex.serialize();
      const DexFile reparsed = DexFile::parse(bytes);
      build_checksum += reparsed.instruction_count();
    }
  }
  (void)build_checksum;

  // Lint matches calls against its api-versions.xml by the declared
  // receiver, with lexical SDK_INT recognition only; it never resolves
  // through the class hierarchy, so it loads no class and its rows report
  // no memory (Lint is not part of the Fig. 4 comparison).
  GuardOptions guards;
  guards.track_registers = false;
  guards.track_fields = false;
  UsageModel model;
  model.api_calls = flat_scan(apk, *db_, guards);
  if (options_.stale_database) {
    // Drop everything its stale database has no entry for.
    std::erase_if(model.api_calls, [](const ApiCallSite& site) {
      return site.resolved_target.class_name.rfind("android/synth/", 0) == 0;
    });
  }

  AmdOptions amd_options;
  amd_options.detect_api = true;
  amd_options.detect_callbacks = false;
  amd_options.detect_permissions = false;
  amd_options.detect_forward = false;
  amd_options.detect_semantics = false;    // taxonomy predates SEM/SDC
  amd_options.detect_declarations = false;
  const Amd amd{*db_, amd_options};
  result.mismatches = amd.detect(apk.manifest, model);

  result.usage.seconds = watch.seconds();
  return result;
}

bool LintAnalyzer::detects(MismatchKind kind) const {
  return kind == MismatchKind::kApiInvocation;
}

}  // namespace saintdroid
