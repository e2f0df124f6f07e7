#include "baselines/cid.hpp"

#include "adf/spec.hpp"
#include "analysis/cfg.hpp"
#include "clvm/clvm.hpp"
#include "core/amd.hpp"
#include "core/aum.hpp"
#include "hierarchy/hierarchy.hpp"
#include "support/meter.hpp"

namespace saintdroid {

namespace {

/// CID's per-call-site guard detection: "from each API call, CID performs
/// backward data-flow analysis to identify the presence of an API level
/// check" — one dataflow pass per API call site, over the containing
/// method only. The per-site pass (rather than one pass per method) is
/// what makes CID's analysis cost scale with API-usage density.
std::vector<ApiCallSite> cid_scan(const Apk& apk, ClassHierarchy& hierarchy,
                                  const ApiDatabase& db) {
  std::vector<ApiCallSite> sites;
  const ApiInterval app_range =
      apk.manifest.supported_range().intersect(ApiInterval::full());
  GuardOptions guards{};  // register-aware, intraprocedural
  guards.track_fields = false;  // field-cached SDK_INT is beyond CID

  const DexFile& dex = apk.dexes.front();
  for (const auto& cls_def : dex.classes()) {
    for (const auto& m : cls_def.methods) {
      if (!m.code || m.code->insns.empty()) continue;
      const MethodId caller = dex.method_id(cls_def, m);
      const Cfg cfg = Cfg::build(*m.code);

      const auto& insns = m.code->insns;
      for (std::uint32_t i = 0; i < insns.size(); ++i) {
        const Instruction& insn = insns[i];
        if (insn.op != Opcode::kInvoke) continue;
        const MethodId declared = dex.method_id_at(insn.index);
        if (!is_framework_class_name(declared.class_name)) continue;

        MethodId resolved = declared;
        if (!db.defined_levels(declared)) {
          const auto res = hierarchy.resolve(
              declared.class_name, declared.name, declared.descriptor);
          if (res && res->declaring_class->from_framework) resolved = res->id;
        }
        if (!db.defined_levels(resolved)) continue;

        // The per-site backward pass (implemented as a dedicated dataflow
        // run whose result at this site is the backward-reachable guard
        // constraint).
        const GuardResult site_guards =
            analyze_guards(dex, *m.code, cfg, app_range, guards);
        const ApiInterval interval = site_guards.at(cfg, i);
        if (interval.empty()) continue;

        sites.push_back(ApiCallSite{caller, i, declared, resolved, interval});
      }
    }
  }
  return sites;
}

}  // namespace

CidAnalyzer::CidAnalyzer(const FrameworkRepository& repo, CidOptions options,
                         std::shared_ptr<const ApiDatabase> database)
    : repo_(&repo),
      options_(options),
      db_(database ? std::move(database) : shared_api_database(repo)) {}

AnalysisResult CidAnalyzer::analyze(const Apk& apk) {
  AnalysisResult result;
  const Stopwatch watch;

  if (apk.dex_loc() > options_.max_app_loc) {
    result.completed = false;
    result.failure_reason =
        "analysis did not finish within the 600s budget (app too large for "
        "whole-program loading)";
    result.usage.seconds = watch.seconds();
    return result;
  }

  const int level = FrameworkRepository::clamp_level(apk.manifest.target_sdk);
  // Eager, whole-world loading: every main-dex class plus the entire
  // framework model (secondary dexes are invisible to CID).
  EagerLoader loader{apk, repo_->image(level), /*include_secondary=*/false,
                     /*load_framework=*/true};
  ClassHierarchy hierarchy{loader};

  // "Creates a conditional call graph for each app to record method call
  // information": CID materializes control-flow structure for everything
  // it loaded — the whole app and the framework model.
  std::uint64_t graph_nodes = 0;
  const auto build_graphs = [&graph_nodes](const DexFile& dex) {
    for (const auto& cls : dex.classes())
      for (const auto& m : cls.methods)
        if (m.code && !m.code->insns.empty())
          graph_nodes += Cfg::build(*m.code).block_count();
  };
  build_graphs(apk.dexes.front());
  build_graphs(repo_->image(level));

  UsageModel model;
  model.api_calls = cid_scan(apk, hierarchy, *db_);

  AmdOptions amd_options;
  amd_options.detect_api = true;
  amd_options.detect_callbacks = false;
  amd_options.detect_permissions = false;
  amd_options.detect_forward = false;  // backward incompatibility only
  amd_options.detect_semantics = false;    // taxonomy predates SEM/SDC
  amd_options.detect_declarations = false;
  const Amd amd{*db_, amd_options};
  result.mismatches = amd.detect(apk.manifest, model);

  result.usage.seconds = watch.seconds();
  result.usage.peak_bytes = loader.memory().peak_bytes();
  result.usage.loaded_classes = loader.loaded_class_count();
  return result;
}

bool CidAnalyzer::detects(MismatchKind kind) const {
  return kind == MismatchKind::kApiInvocation;
}

}  // namespace saintdroid
