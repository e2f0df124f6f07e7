// AUM — API Usage Modeler (paper §III-A).
//
// Produces the usage model the detectors consume: every reachable API call
// site annotated with the guard interval it executes under (path-sensitive,
// context-aware), every override of a framework callback, and every use of
// a permission-requiring API. Exploration follows paper Algorithm 1:
// methods are pulled from a worklist, their classes loaded on demand
// through the ClassProvider (the CLVM), call targets resolved against the
// incrementally-built hierarchy, and late-bound classes discovered through
// load-class instructions are appended so that "every method in every such
// class is analyzed".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/guards.hpp"
#include "support/budget.hpp"
#include "core/arm.hpp"
#include "dex/apk.hpp"
#include "hierarchy/hierarchy.hpp"

namespace saintdroid {

/// One invocation of a framework API from app code.
struct ApiCallSite {
  MethodId caller;            ///< app method containing the call
  std::uint32_t insn_index = 0;
  MethodId declared_target;   ///< as written in the bytecode
  MethodId resolved_target;   ///< at the declaring framework class
  ApiInterval guard;          ///< levels the site may execute under
};

/// An app method overriding a framework-declared method.
struct CallbackOverride {
  MethodId app_method;
  MethodId framework_method;  ///< the overridden declaration
};

/// A call site whose resolved API (transitively) requires a permission.
struct PermissionUse {
  MethodId caller;
  std::uint32_t insn_index = 0;
  MethodId api;
  std::string permission;
  ApiInterval guard;
};

/// One recognized direct SDK_INT comparison in a reachable app method —
/// raw material for the vacuous-guard SDC lint (docs/DETECTORS.md §SDC).
struct GuardCheck {
  MethodId method;  ///< app method containing the comparison
  std::uint32_t insn_index = 0;
  CmpOp cmp = CmpOp::kEq;  ///< normalized: SDK_INT is the left operand
  std::int32_t literal = 0;
};

/// Everything the detectors need about one app.
struct UsageModel {
  std::vector<ApiCallSite> api_calls;
  std::vector<CallbackOverride> overrides;
  std::vector<PermissionUse> permission_uses;
  /// Every direct SDK_INT comparison the guard analysis recognized in a
  /// reachable method (deduplicated per site; empty when guard recognition
  /// is off).
  std::vector<GuardCheck> guard_checks;
  /// App methods the exploration visited (the call-graph node set of
  /// Algorithm 4 line 11).
  std::vector<MethodId> reachable_methods;
  /// True when any app class overrides onRequestPermissionsResult — the
  /// runtime-permission protocol check of Algorithm 4.
  bool handles_permission_results = false;
  /// True when any reachable method calls requestPermissions.
  bool requests_runtime_permissions = false;
  /// True when an analysis budget exhausted before exploration finished:
  /// the model is a valid under-approximation, not the full fixpoint.
  bool incomplete = false;
};

/// One app-internal call edge a class's methods pushed during exploration:
/// the callee as *declared* at the call site (re-resolved against the
/// hierarchy at replay time), the hull of every guard context it was pushed
/// under, and the minimum worklist depth. Enough to re-seed exploration of
/// the callee without re-analyzing the caller.
struct TraceEdge {
  MethodId callee;
  ApiInterval context;
  int depth = 0;
};

/// One late-binding load (kLoadClass / Class.forName) a class's methods
/// performed, with the minimum depth its target's methods were pushed at.
struct TraceLatebind {
  std::string type;  ///< slashed class name
  int depth = 0;
};

/// Everything one app class *did* to the rest of the analysis during a full
/// exploration, beyond the facts recorded in the UsageModel: which method
/// refs it resolved (resolution walks load classes), which framework walks
/// it rooted, which classes it late-bound, and which app-internal calls it
/// pushed. The incremental engine replays this record for classes whose dex
/// bytes did not change, reproducing the full run's loaded-class set (and
/// thus its memory/budget accounting — CLVM loads are memoized and never
/// released, so the accounting is a function of the loaded *set*) without
/// re-exploring the class.
struct ClassTrace {
  std::vector<MethodId> resolves;    ///< every resolve_ref target (deduped)
  std::vector<MethodId> walk_roots;  ///< declared ids whose resolution
                                     ///< rooted a framework walk
  std::vector<TraceLatebind> latebinds;
  std::vector<TraceEdge> edges;
  /// Whether this class's methods set requests_runtime_permissions.
  bool requests_runtime_permissions = false;

  void add_resolve(const MethodId& id);
  void add_walk_root(const MethodId& id);
  void add_latebind(const std::string& type, int depth);
  void add_edge(const MethodId& callee, ApiInterval context, int depth);

 private:
  // Dedup indexes, transient (rebuilt as a trace records; parsed traces are
  // replay-only and never record).
  std::unordered_set<MethodId> resolve_seen_;
  std::unordered_set<MethodId> walk_seen_;
  std::unordered_map<std::string, std::size_t> latebind_index_;
  std::unordered_map<MethodId, std::size_t> edge_index_;
};

/// Per-class exploration record of one full model() run, keyed by slashed
/// app class name (ordered for deterministic serialization).
struct ExplorationTrace {
  std::map<std::string, ClassTrace> classes;
};

/// Feature switches; SAINTDroid runs with everything on, the ablation bench
/// and the baselines turn features off.
struct AumOptions {
  GuardOptions guards;
  /// Propagate the call site's guard interval into app-internal callees
  /// (context sensitivity). Off reproduces CID's intraprocedural analysis.
  bool interprocedural_guards = true;
  /// Explore classes discovered through load-class (late binding).
  bool follow_late_binding = true;
  /// Summarize trivial app helper methods that test SDK_INT and return a
  /// boolean ("isAtLeastN()"), so branches on their result refine the
  /// interval like an inline comparison — the AndroidCompass helper-method
  /// guard idiom.
  bool helper_predicates = true;
  /// Walk into resolved framework methods' bodies, loading the classes
  /// they touch (bounded); models the paper's "beyond the first level"
  /// framework analysis and gives the lazy loader its realistic footprint.
  int framework_walk_depth = 2;
  /// Upper bound on app-internal recursion depth per entry point.
  int max_call_depth = 48;
};

/// Runs the modeler over one app. The hierarchy (and the provider behind
/// it) must outlive the returned model.
class Aum {
 public:
  /// `budget`, when provided, is charged one step per worklist pop (and
  /// threaded into each guard fixpoint); on exhaustion model() stops
  /// exploring and flags the model incomplete instead of throwing.
  Aum(ClassHierarchy& hierarchy, const ApiDatabase& db, AumOptions options,
      BudgetTracker* budget = nullptr);

  /// `record`, when provided, captures a per-class ExplorationTrace of the
  /// run (zero effect on the model itself).
  UsageModel model(const Apk& apk, ExplorationTrace* record = nullptr);

  /// One clean class's prior-run trace, by pointer into the caller's
  /// cached entry — the scope borrows, it never copies.
  struct CleanClass {
    const std::string* name = nullptr;
    const ClassTrace* trace = nullptr;
    /// False when none of the class's referenced app classes is a dirty
    /// target: no call edge can resolve into the dirty set and no
    /// late-binding target is dirty, so the seed pass skips the class
    /// outright. A clean class's symbolic references are unchanged from
    /// the cached run and every removed or added referent dirties its
    /// referrers, so the fresh fingerprint's ref list covers every trace
    /// callee and late-bound type.
    bool seed_candidate = true;
  };

  /// Scope of an incremental re-exploration: the dirty class set (slashed
  /// names) that must be re-analyzed, and the prior run's traces for the
  /// clean remainder.
  struct IncrementalScope {
    const std::unordered_set<std::string>* dirty = nullptr;
    /// Traces of every clean class (callers must exclude dirty names).
    std::span<const CleanClass> clean;
    /// Classes whose method resolution can land inside a dirty class —
    /// the class itself or an app-internal ancestor (super/interface
    /// chain) is dirty. A clean class's edge to any *other* callee
    /// resolves exactly as the prior run resolved it, so the seed pass
    /// skips those resolutions outright (the replay pass reproduces their
    /// load side effects from the recorded traces). When null, every edge
    /// is resolved.
    const std::unordered_set<std::string>* dirty_targets = nullptr;
  };

  /// Explores only the dirty region: the entry-point scan runs in full
  /// (overrides and the permission-protocol flag are recomputed, and every
  /// main-dex class is loaded exactly as model() loads it) but exploration
  /// roots are restricted to dirty classes, clean->dirty edges and
  /// late-bindings recorded in `scope.clean` are re-seeded, and after the
  /// fixpoint the clean classes' load side effects are replayed. The
  /// returned model carries facts for *dirty* classes only — the caller
  /// splices the cached clean-class facts in. `record` captures traces for
  /// the dirty classes. Check scope_violation() afterwards: when set, the
  /// dirty set failed to close over everything exploration reached and the
  /// result must be discarded in favor of a full run.
  UsageModel model_incremental(const Apk& apk, const IncrementalScope& scope,
                               ExplorationTrace* record = nullptr);

  /// True when the last model_incremental() run touched a class outside
  /// its dirty set (a closure bug or stale cache entry): its result is
  /// unusable and the caller must fall back to full analysis.
  bool scope_violation() const { return scope_violation_; }

 private:
  struct MethodWork {
    const LoadedClass* cls;
    const MethodDef* def;
    ApiInterval context;
    int depth;
  };

  /// Shared by model()/model_incremental(): resets per-run state, runs the
  /// eager entry-point scan (loads every main-dex class, records overrides
  /// and the permission-result flag), and pushes exploration roots — all of
  /// them, or only those of classes in `dirty` when given.
  void scan_entry_points(const Apk& apk, UsageModel& model,
                         const std::unordered_set<std::string>* dirty);
  void explore_method(const MethodWork& work, UsageModel& model);
  /// The framework walk from a resolved API: loads every class the API's
  /// body transitively invokes (to framework_walk_depth), as the runtime
  /// would, by recursing over the substrate's precomputed invoke edges and
  /// memoizing visited methods in a flat bitmap (walked_, indexed by
  /// MethodEntry::slot).
  void walk_api(const MethodResolution& res);
  void walk_edges(const FrameworkSubstrate::MethodEntry& me, int depth);
  const Cfg& cfg_for(const MethodDef& def);

  /// Cached identity + hierarchy resolution for a method-ref pool entry.
  /// Method refs are interned per container, so one entry serves every
  /// call site sharing the reference.
  struct RefResolution {
    MethodId declared;
    std::optional<MethodResolution> resolution;
    /// Helper-predicate summary: the levels over which the callee returns
    /// true, when it is a recognizable SDK-check helper (lazily computed —
    /// see predicate_for).
    bool predicate_computed = false;
    std::optional<ApiInterval> predicate;
  };
  const RefResolution& resolve_ref(const DexFile& dex, std::uint32_t ref_idx);

  /// Memoized helper-predicate summary for a method-ref pool entry:
  /// evaluates trivial SDK-test helper bodies concretely at every modelled
  /// level. nullopt when the callee is not such a helper.
  std::optional<ApiInterval> predicate_for(const DexFile& dex,
                                           std::uint32_t ref_idx);

  ClassHierarchy* hierarchy_;
  const ApiDatabase* db_;
  AumOptions options_;
  BudgetTracker* budget_ = nullptr;  // optional, not owned

  // Per-run state (reset by model()).
  std::unordered_map<const MethodDef*, std::unique_ptr<Cfg>> cfg_cache_;
  /// Widest context each method has been analyzed under, for memoization.
  std::unordered_map<const MethodDef*, ApiInterval> analyzed_;
  /// Dedupe/widen call-site records (hit only on context re-analysis):
  /// numeric site key (method identity + instruction index) -> index into
  /// the model's vectors; for permissions, small per-site lists.
  std::unordered_map<std::uint64_t, std::size_t> api_site_index_;
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::string, std::size_t>>>
      perm_site_index_;
  /// Sites already recorded in UsageModel::guard_checks (re-analysis under
  /// a widened context replays the same branches).
  std::unordered_set<std::uint64_t> guard_check_sites_;
  std::vector<std::uint8_t> walked_;  // by MethodEntry::slot
  /// Walk edges whose callee class is not in the substrate, already
  /// retried once (see walk_edges).
  std::unordered_set<MethodId> walked_unowned_;
  std::unordered_map<const DexFile*,
                     std::vector<std::unique_ptr<RefResolution>>>
      ref_cache_;
  std::vector<MethodWork> worklist_;

  // Incremental-analysis state (reset per run). record_ receives the
  // per-class traces; trace_cls_ is the entry of the class currently being
  // explored (nullptr when not recording or during clean-class replay).
  ExplorationTrace* record_ = nullptr;
  ClassTrace* trace_cls_ = nullptr;
  /// Dirty-set restriction for model_incremental(); nullptr in full runs.
  const std::unordered_set<std::string>* scope_ = nullptr;
  bool scope_violation_ = false;
};

/// The flat (whole-program, non-reachability) API usage scan: Lint's
/// analysis, and the facade's fallback for budget-exhausted runs. Every
/// main-dex method is analyzed independently under the app's manifest
/// range with intraprocedural `guards`, and each invoke whose *declared*
/// receiver is a framework method known to `db` becomes a call site — no
/// hierarchy resolution and no class loading, so the cost is linear in the
/// main dex. This finds mismatches in dead code (false alarms reachability
/// avoids) and misses guards placed in callers.
std::vector<ApiCallSite> flat_scan(const Apk& apk, const ApiDatabase& db,
                                   const GuardOptions& guards);

}  // namespace saintdroid
