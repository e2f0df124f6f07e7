// Lint baseline (the NewApi check shipped with the Android Development
// Tools), reimplemented from the paper's description:
//
//   * requires the app's source and a successful build — apps that do not
//     build are not analyzable at all (8 of the 27 benchmark apps, §IV-A);
//     we model the build as real serialize/parse work proportional to app
//     size, which is why Lint is competitive only on small apps
//     (Table III);
//   * examines direct calls to the API "without considering the context or
//     control flow" — its guard recognition is lexical: it sees an
//     SDK_INT comparison only when the comparison reads SDK_INT directly,
//     not through moves or helper registers, and never across methods;
//   * scans all code with no reachability analysis (false warnings in dead
//     code, §VII);
//   * backward incompatibility only; no APC, no PRM.
#pragma once

#include <memory>

#include "adf/repository.hpp"
#include "core/analyzer.hpp"
#include "core/arm.hpp"

namespace saintdroid {

struct LintOptions {
  /// Simulated build effort: the number of serialize+parse rounds over the
  /// app's dexes before the scan (stands in for the Gradle build the real
  /// Lint needs; see DESIGN.md substitutions).
  int build_rounds = 3;
  /// Lint's API data ships as a bundled api-versions.xml that lags the
  /// framework; extension/vendor packages (the android/synth/* surface in
  /// our substrate) are absent from it, which is the main driver of its
  /// ~19% recall in the paper's study.
  bool stale_database = true;
  /// Lint crashes on the very largest apps in the study (the NyaaPantsu
  /// dash in Table III).
  std::uint64_t max_app_loc = 120'000;
};

class LintAnalyzer final : public Analyzer {
 public:
  /// `database` must be mined from `repo` (or null). Null resolves via
  /// shared_api_database(repo): the standard repository borrows the
  /// process-wide database — a batch comparing all three analyzers no
  /// longer pays one private mining pass per baseline instance.
  explicit LintAnalyzer(
      const FrameworkRepository& repo = FrameworkRepository::standard(),
      LintOptions options = {},
      std::shared_ptr<const ApiDatabase> database = nullptr);

  std::string_view name() const override { return "Lint"; }
  AnalysisResult analyze(const Apk& apk) override;
  bool detects(MismatchKind kind) const override;

 private:
  LintOptions options_;
  std::shared_ptr<const ApiDatabase> db_;
};

}  // namespace saintdroid
