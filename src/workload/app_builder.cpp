#include "workload/app_builder.hpp"

#include <algorithm>

#include "adf/permissions.hpp"
#include "support/errors.hpp"

namespace saintdroid {

namespace {

/// Class used for the statically-invisible runtime guard helper; it is
/// deliberately absent from every dex, modelling code generated only at
/// runtime (anonymous inner classes, paper §VI).
constexpr const char* kRuntimeCheckClass = "com/runtime/GeneratedCheck";

bool params_match(const std::vector<std::string>& a,
                  const std::vector<std::string>& b) {
  return a == b;
}

}  // namespace

AppBuilder::AppBuilder(std::string app_name, std::string package,
                       const FrameworkSpec& spec)
    : app_name_(std::move(app_name)), spec_(&spec) {
  manifest_.package = package;
  // Slash the dotted package for class names.
  package_path_ = std::move(package);
  std::replace(package_path_.begin(), package_path_.end(), '.', '/');
  main_activity_ = &main_dex_.add_class(package_path_ + "/MainActivity",
                                        "android/app/Activity");
}

AppBuilder& AppBuilder::sdk(int min_sdk, int target_sdk, int max_sdk) {
  SD_EXPECTS(min_sdk >= 1 && (max_sdk == 0 || max_sdk >= min_sdk));
  manifest_.min_sdk = min_sdk;
  manifest_.target_sdk = target_sdk;
  manifest_.max_sdk = max_sdk;
  return *this;
}

AppBuilder& AppBuilder::buildable(bool value) {
  manifest_.buildable = value;
  return *this;
}

AppBuilder& AppBuilder::request_permission(const std::string& permission) {
  if (!manifest_.requests_permission(permission))
    manifest_.permissions.push_back(permission);
  return *this;
}

const MethodSpec* AppBuilder::find_spec_method(const ApiUse& api) const {
  const ClassSpec* cls = spec_->find_class(api.declaring);
  if (!cls) return nullptr;
  for (const auto& m : cls->methods)
    if (m.name == api.name && params_match(m.params, api.params)) return &m;
  return nullptr;
}

const SemanticChangeSpec* AppBuilder::find_semantic_row(
    const ApiUse& api) const {
  for (const auto& row : spec_->semantic_changes)
    if (row.cls == api.declaring && row.name == api.name &&
        params_match(row.params, api.params))
      return &row;
  return nullptr;
}

const MethodSpec* AppBuilder::find_spec_callback(const CallbackUse& cb) const {
  const ClassSpec* cls = spec_->find_class(cb.framework_class);
  if (!cls) return nullptr;
  for (const auto& m : cls->methods)
    if (m.callback && m.name == cb.name && params_match(m.params, cb.params))
      return &m;
  return nullptr;
}

std::vector<std::string> AppBuilder::spec_permissions(const ApiUse& api) const {
  // Direct requirement plus the transitive walk through spec-internal
  // calls. This must mirror the ARM's permission mining *closure* — the
  // ARM propagates with no depth bound, so a truncated walk here would
  // ledger fewer permissions than the analysis detects (and let
  // demands_permission() miss a demand buried deep in the synthetic call
  // graph). The visited set is the real bound; the step cap is a safety
  // valve far above any spec's method count.
  std::vector<std::string> out;
  struct Frame {
    std::string cls, name;
    std::vector<std::string> params;
  };
  std::vector<Frame> stack{{api.declaring, api.name, api.params}};
  std::unordered_set<std::string> visited;
  int steps = 0;
  while (!stack.empty() && steps++ < (1 << 16)) {
    const Frame frame = std::move(stack.back());
    stack.pop_back();
    if (!visited.insert(frame.cls + "." + frame.name).second) continue;
    const ClassSpec* cls = spec_->find_class(frame.cls);
    if (!cls) continue;
    for (const auto& m : cls->methods) {
      if (m.name != frame.name || !params_match(m.params, frame.params))
        continue;
      if (!m.permission.empty() &&
          std::find(out.begin(), out.end(), m.permission) == out.end())
        out.push_back(m.permission);
      for (const auto& call : m.calls)
        stack.push_back(Frame{call.cls, call.name, call.params});
      break;
    }
  }
  return out;
}

MethodBuilder& AppBuilder::new_seed_method(Placement placement,
                                           std::string* out_class,
                                           std::string* out_method) {
  if (chain_slot_ >= 0) {
    // Chain slots bypass the seed counter entirely: class and method names
    // are functions of the slot index alone, so re-emitting every other
    // slot identically in the next version keeps their symbolic
    // fingerprints byte-stable no matter how this slot changed.
    SD_EXPECTS(placement == Placement::kReachable);
    SD_EXPECTS(!chain_slot_emitted_);
    chain_slot_emitted_ = true;
    const std::string cls_name = chain_slot_class(chain_slot_);
    auto& cls = main_dex_.add_class(cls_name);
    helper_calls_.emplace_back(cls_name, "run");
    *out_class = cls_name;
    *out_method = "run";
    return cls.add_method("run");
  }
  const int n = seed_counter_++;
  const std::string method_name = "seed" + std::to_string(n);
  switch (placement) {
    case Placement::kReachable: {
      *out_class = package_path_ + "/MainActivity";
      *out_method = method_name;
      reachable_roots_.push_back(method_name);
      return main_activity_->add_method(method_name);
    }
    case Placement::kDeadCode: {
      const std::string cls_name =
          package_path_ + "/util/Dead" + std::to_string(n);
      auto& cls = main_dex_.add_class(cls_name);
      *out_class = cls_name;
      *out_method = method_name;
      return cls.add_method(method_name);
    }
    case Placement::kSecondaryDex: {
      if (!secondary_dex_) secondary_dex_ = std::make_unique<DexBuilder>();
      const std::string cls_name =
          package_path_ + "/plugin/Plugin" + std::to_string(n);
      auto& cls = secondary_dex_->add_class(cls_name);
      plugin_classes_.push_back(cls_name);
      *out_class = cls_name;
      *out_method = method_name;
      return cls.add_method(method_name);
    }
    case Placement::kReflection: {
      // The host class is ordinary main-dex code, but nothing references
      // it except a Class.forName with its dotted name from an entry
      // point (emitted in build()).
      const std::string cls_name =
          package_path_ + "/dyn/Dyn" + std::to_string(n);
      auto& cls = main_dex_.add_class(cls_name);
      reflected_classes_.push_back(cls_name);
      *out_class = cls_name;
      *out_method = method_name;
      return cls.add_method(method_name);
    }
  }
  SD_EXPECTS(false);
  return main_activity_->add_method(method_name);  // unreachable
}

void AppBuilder::emit_call(MethodBuilder& mb, const ApiUse& api) {
  // Every framework invocation funnels through here, so this is the one
  // place to learn which permissions the app's calls demand (the set
  // demands_permission() reports). Mined once per distinct API.
  std::string key = api.declaring + "." + api.name + "(";
  for (const auto& p : api.params) key += p;
  key += ")";
  if (mined_call_keys_.insert(std::move(key)).second)
    for (const auto& permission : spec_permissions(api))
      demanded_permissions_.insert(permission);
  if (api.name == "<init>") {
    mb.new_instance(3, api.receiver);
    mb.invoke(InvokeKind::kDirect, api.receiver, api.name, api.return_type,
              api.params, {3});
    return;
  }
  mb.invoke(api.is_static ? InvokeKind::kStatic : InvokeKind::kVirtual,
            api.receiver, api.name, api.return_type, api.params);
}

std::pair<std::string, std::string> AppBuilder::emit_helper_predicate(
    CmpOp cmp, int literal) {
  const int n = seed_counter_++;
  const std::string cls_name = package_path_ + "/guard/Ver" + std::to_string(n);
  auto& cls = main_dex_.add_class(cls_name);
  // Static, no parameters, boolean return — the exact shape the AUM's
  // helper-predicate evaluator accepts (see Aum::predicate_for).
  auto& mb = cls.add_method("mayCall", "Z", {}, kAccPublic | kAccStatic);
  mb.sget_sdk_int(0);
  Label yes = mb.new_label();
  mb.if_lit(cmp, 0, literal, yes);
  mb.const_int(1, 0);
  mb.return_reg(1);
  mb.bind(yes);
  mb.const_int(1, 1);
  mb.return_reg(1);
  return {cls_name, "mayCall"};
}

MethodId AppBuilder::emit_guarded_call(const ApiUse& api, GuardMode guard,
                                       Placement placement,
                                       int protect_level) {
  std::string host_class;
  std::string host_method;

  if (guard == GuardMode::kCrossMethod) {
    // Guard in one method, call in another — in a non-component helper
    // class so that only context-sensitive exploration sees the guard.
    const int n = seed_counter_++;
    const std::string cls_name =
        package_path_ + "/logic/Helper" + std::to_string(n);
    auto& cls = main_dex_.add_class(cls_name);
    const std::string guard_name = "guarded" + std::to_string(n);
    const std::string impl_name = "impl" + std::to_string(n);

    auto& guard_mb = cls.add_method(guard_name);
    guard_mb.sget_sdk_int(0);
    Label skip = guard_mb.new_label();
    guard_mb.if_lit(CmpOp::kLt, 0, protect_level, skip);
    guard_mb.invoke_virtual(cls_name, impl_name);
    guard_mb.bind(skip);
    guard_mb.return_void();
    guard_sites_.push_back(GuardSite{MethodId{cls_name, guard_name, "()V"},
                                     CmpOp::kLt, protect_level});

    auto& impl_mb = cls.add_method(impl_name);
    emit_call(impl_mb, api);
    impl_mb.return_void();

    helper_calls_.emplace_back(cls_name, guard_name);
    return MethodId{cls_name, impl_name, "()V"};
  }

  MethodBuilder& mb = new_seed_method(placement, &host_class, &host_method);
  // Direct comparisons in the three local-guard shapes all reach the
  // analysis's check collection (dead code is never explored, so those
  // sites go unseen and stay out of the ledger too).
  const bool direct_comparison = guard == GuardMode::kLocal ||
                                 guard == GuardMode::kLocalViaField ||
                                 guard == GuardMode::kLocalViaRegister;
  if (direct_comparison && placement != Placement::kDeadCode)
    guard_sites_.push_back(GuardSite{MethodId{host_class, host_method, "()V"},
                                     CmpOp::kLt, protect_level});
  switch (guard) {
    case GuardMode::kNone:
      emit_call(mb, api);
      break;
    case GuardMode::kLocal: {
      mb.sget_sdk_int(0);
      Label skip = mb.new_label();
      mb.if_lit(CmpOp::kLt, 0, protect_level, skip);
      emit_call(mb, api);
      mb.bind(skip);
      break;
    }
    case GuardMode::kLocalViaField: {
      // Cache SDK_INT in an instance field, read it back, then compare —
      // the common "config object" idiom.
      mb.sget_sdk_int(0);
      mb.iput(0, 5, host_class, "cachedSdk", "I");
      mb.iget(1, 5, host_class, "cachedSdk", "I");
      Label skip = mb.new_label();
      mb.if_lit(CmpOp::kLt, 1, protect_level, skip);
      emit_call(mb, api);
      mb.bind(skip);
      break;
    }
    case GuardMode::kLocalViaRegister: {
      // The SDK_INT value and the threshold both travel through registers;
      // recognizing this guard requires register tracking (Lint's lexical
      // check gives up).
      mb.sget_sdk_int(0);
      mb.move(1, 0);
      mb.const_int(2, protect_level);
      Label skip = mb.new_label();
      mb.if_reg(CmpOp::kLt, 1, 2, skip);
      emit_call(mb, api);
      mb.bind(skip);
      break;
    }
    case GuardMode::kHidden: {
      // The check lives in a class generated only at runtime: statically
      // unresolvable, so no tool can prove the call protected.
      mb.const_int(1, protect_level);
      mb.invoke_static(kRuntimeCheckClass, "isAtLeast", "Z", {"I"}, {1});
      mb.move_result(0);
      Label skip = mb.new_label();
      mb.if_lit(CmpOp::kEq, 0, 0, skip);
      emit_call(mb, api);
      mb.bind(skip);
      break;
    }
    case GuardMode::kHelperMethod: {
      // Same shape as kHidden, but the helper is ordinary app code whose
      // body a helper-predicate-aware analysis can evaluate.
      const auto [guard_cls, guard_name] =
          emit_helper_predicate(CmpOp::kGe, protect_level);
      mb.invoke_static(guard_cls, guard_name, "Z");
      mb.move_result(0);
      Label skip = mb.new_label();
      mb.if_lit(CmpOp::kEq, 0, 0, skip);
      emit_call(mb, api);
      mb.bind(skip);
      break;
    }
    case GuardMode::kCrossMethod:
      SD_EXPECTS(false);  // handled above
      break;
  }
  mb.return_void();
  return MethodId{host_class, host_method, "()V"};
}

AppBuilder& AppBuilder::api_call(const ApiUse& api, GuardMode guard,
                                 Placement placement) {
  const MethodSpec* spec = find_spec_method(api);
  SD_EXPECTS(spec != nullptr);
  const Lifecycle life = spec->life;

  const MethodId location =
      emit_guarded_call(api, guard, placement, life.introduced);

  const ApiInterval range =
      manifest_.supported_range().intersect(ApiInterval::full());
  const bool statically_guarded = guard == GuardMode::kLocal ||
                                  guard == GuardMode::kLocalViaRegister ||
                                  guard == GuardMode::kLocalViaField ||
                                  guard == GuardMode::kCrossMethod ||
                                  guard == GuardMode::kHelperMethod;
  const bool runtime_guarded = guard == GuardMode::kHidden;
  const bool backward_issue =
      !statically_guarded && !runtime_guarded && range.lo() < life.introduced;
  const bool forward_issue =
      life.removed != 0 && range.hi() >= life.removed && !runtime_guarded;
  const bool live = placement != Placement::kDeadCode;

  SeededIssue issue;
  issue.kind = MismatchKind::kApiInvocation;
  issue.location = location;
  issue.subject = api.declared_id();
  issue.real = live && (backward_issue || forward_issue);
  if (!live)
    issue.tag = "dead_code";
  else if (runtime_guarded)
    issue.tag = "guarded_hidden";
  else if (guard == GuardMode::kCrossMethod)
    issue.tag = backward_issue || forward_issue ? "forward" : "guarded_cross_method";
  else if (statically_guarded)
    issue.tag = forward_issue          ? "forward"
                : guard == GuardMode::kLocal ? "guarded_local"
                : guard == GuardMode::kLocalViaField ? "guarded_field"
                : guard == GuardMode::kHelperMethod ? "guarded_helper"
                                             : "guarded_register";
  else if (placement == Placement::kSecondaryDex)
    issue.tag = "secondary_dex";
  else if (placement == Placement::kReflection)
    issue.tag = "reflection";
  else if (forward_issue && !backward_issue)
    issue.tag = "forward";
  else if (issue.real)
    issue.tag = "unguarded";
  else
    issue.tag = "safe";
  truth_.issues.push_back(std::move(issue));
  return *this;
}

AppBuilder& AppBuilder::inherited_api_call(const ApiUse& api,
                                           GuardMode guard) {
  // A fresh app subclass of the declaring framework class becomes the
  // declared receiver at the call site.
  const int n = seed_counter_++;
  const std::string widget =
      package_path_ + "/widget/W" + std::to_string(n);
  main_dex_.add_class(widget, api.declaring);

  ApiUse through_subclass = api;
  through_subclass.receiver = widget;
  api_call(through_subclass, guard, Placement::kReachable);
  // Re-tag: the interesting property of this seed is the app receiver.
  auto& issue = truth_.issues.back();
  if (issue.tag == "unguarded") issue.tag = "inherited_receiver";
  return *this;
}

AppBuilder& AppBuilder::callback_override(const CallbackUse& cb) {
  const MethodSpec* spec = find_spec_callback(cb);
  SD_EXPECTS(spec != nullptr);
  const ClassSpec* owner = spec_->find_class(cb.framework_class);
  SD_EXPECTS(owner != nullptr);

  const int n = seed_counter_++;
  const std::string cls_name = package_path_ + "/ui/Cb" + std::to_string(n);
  auto& cls = main_dex_.add_class(cls_name, cb.framework_class);
  auto& mb = cls.add_method(cb.name, "V", cb.params);
  mb.return_void();

  const ApiInterval range =
      manifest_.supported_range().intersect(ApiInterval::full());
  const Lifecycle life = spec->life;
  const bool backward_issue = range.lo() < life.introduced;
  const bool forward_issue = life.removed != 0 && range.hi() >= life.removed;

  SeededIssue issue;
  issue.kind = MismatchKind::kApiCallback;
  issue.location = MethodId{cls_name, cb.name, cb.descriptor()};
  issue.subject = cb.declared_id();
  issue.real = backward_issue || forward_issue;
  issue.tag = issue.real ? (backward_issue ? "unguarded" : "forward")
                         : "safe";
  truth_.issues.push_back(std::move(issue));
  return *this;
}

AppBuilder& AppBuilder::hidden_callback(const CallbackUse& cb) {
  const MethodSpec* spec = find_spec_callback(cb);
  SD_EXPECTS(spec != nullptr);
  const ApiInterval range =
      manifest_.supported_range().intersect(ApiInterval::full());
  const Lifecycle life = spec->life;

  const int n = seed_counter_++;
  SeededIssue issue;
  issue.kind = MismatchKind::kApiCallback;
  issue.location = MethodId{package_path_ + "/ui/Anon" + std::to_string(n),
                            cb.name, cb.descriptor()};
  issue.subject = cb.declared_id();
  issue.real = range.lo() < life.introduced ||
               (life.removed != 0 && range.hi() >= life.removed);
  issue.tag = "hidden_callback";
  truth_.issues.push_back(std::move(issue));
  return *this;
}

AppBuilder& AppBuilder::hidden_api_call(const ApiUse& api) {
  const MethodSpec* spec = find_spec_method(api);
  SD_EXPECTS(spec != nullptr);
  const ApiInterval range =
      manifest_.supported_range().intersect(ApiInterval::full());
  const Lifecycle life = spec->life;

  const int n = seed_counter_++;
  SeededIssue issue;
  issue.kind = MismatchKind::kApiInvocation;
  issue.location = MethodId{package_path_ + "/ui/Anon" + std::to_string(n),
                            "call", "()V"};
  issue.subject = api.declared_id();
  issue.real = range.lo() < life.introduced ||
               (life.removed != 0 && range.hi() >= life.removed);
  issue.tag = "hidden_site";
  truth_.issues.push_back(std::move(issue));
  return *this;
}

AppBuilder& AppBuilder::permission_use(const ApiUse& api, GuardMode guard) {
  const auto permissions = spec_permissions(api);
  SD_EXPECTS(!permissions.empty());

  MethodId location;
  if (guard == GuardMode::kLocal) {
    // For permission seeds, a local guard means "only use the API on
    // pre-runtime-permission devices": if (SDK_INT < 23) use(). The use is
    // then unreachable on any level where revocation/request mismatches
    // exist, so it is benign — and context-aware guard analysis proves it.
    std::string host_class;
    std::string host_method;
    MethodBuilder& mb =
        new_seed_method(Placement::kReachable, &host_class, &host_method);
    mb.sget_sdk_int(0);
    Label skip = mb.new_label();
    mb.if_lit(CmpOp::kGe, 0, kRuntimePermissionLevel, skip);
    emit_call(mb, api);
    mb.bind(skip);
    mb.return_void();
    location = MethodId{host_class, host_method, "()V"};
    guard_sites_.push_back(
        GuardSite{location, CmpOp::kGe, kRuntimePermissionLevel});
  } else {
    location = emit_guarded_call(api, guard, Placement::kReachable,
                                 kRuntimePermissionLevel);
  }

  for (const auto& permission : permissions) {
    request_permission(permission);
    permission_seeds_.push_back(
        PermissionSeed{location, api.declared_id(), permission, guard});
  }
  return *this;
}

AppBuilder& AppBuilder::implement_runtime_permission_protocol() {
  SD_EXPECTS(!protocol_implemented_);
  protocol_implemented_ = true;

  // The result callback override.
  auto& cb = main_activity_->add_method(
      "onRequestPermissionsResult", "V", {"I", "[Ljava/lang/String;", "[I"});
  cb.return_void();

  // A guarded runtime request from an entry-point method.
  auto& mb = main_activity_->add_method("initPermissions");
  mb.sget_sdk_int(0);
  Label skip = mb.new_label();
  mb.if_lit(CmpOp::kLt, 0, kRuntimePermissionLevel, skip);
  mb.invoke_virtual(package_path_ + "/MainActivity", "requestPermissions",
                    "V", {"[Ljava/lang/String;", "I"});
  mb.bind(skip);
  mb.return_void();
  reachable_roots_.push_back("initPermissions");
  guard_sites_.push_back(GuardSite{
      MethodId{package_path_ + "/MainActivity", "initPermissions", "()V"},
      CmpOp::kLt, kRuntimePermissionLevel});

  // With minSdk < 23 the override itself is a real APC mismatch — the
  // callback does not exist on older devices.
  const ApiInterval range =
      manifest_.supported_range().intersect(ApiInterval::full());
  SeededIssue issue;
  issue.kind = MismatchKind::kApiCallback;
  issue.location = MethodId{package_path_ + "/MainActivity",
                            "onRequestPermissionsResult",
                            "(I[Ljava/lang/String;[I)V"};
  issue.subject = MethodId{"android/app/Activity",
                           "onRequestPermissionsResult",
                           "(I[Ljava/lang/String;[I)V"};
  issue.real = range.lo() < kRuntimePermissionLevel;
  issue.tag = "protocol_override";
  truth_.issues.push_back(std::move(issue));
  return *this;
}

AppBuilder& AppBuilder::semantic_call(const ApiUse& api, GuardMode guard) {
  const SemanticChangeSpec* row = find_semantic_row(api);
  SD_EXPECTS(row != nullptr);
  SD_EXPECTS(guard == GuardMode::kNone || guard == GuardMode::kLocal ||
             guard == GuardMode::kHelperMethod);
  const ApiInterval range =
      manifest_.supported_range().intersect(ApiInterval::full());
  const ApiInterval window = row->levels().intersect(ApiInterval::full());

  // A direct inverse guard whose threshold the declared range never
  // crosses would itself be a vacuous-guard lint; the helper idiom's check
  // is not a direct SDK_INT comparison, so it stays out of the lint's view.
  if (guard == GuardMode::kLocal && range.lo() >= row->from_level)
    guard = GuardMode::kHelperMethod;

  std::string host_class;
  std::string host_method;
  MethodBuilder& mb =
      new_seed_method(Placement::kReachable, &host_class, &host_method);
  switch (guard) {
    case GuardMode::kNone:
      emit_call(mb, api);
      break;
    case GuardMode::kLocal: {
      // Inverse guard: only call while the behavior is still the old one.
      mb.sget_sdk_int(0);
      Label skip = mb.new_label();
      mb.if_lit(CmpOp::kGe, 0, row->from_level, skip);
      emit_call(mb, api);
      mb.bind(skip);
      guard_sites_.push_back(
          GuardSite{MethodId{host_class, host_method, "()V"}, CmpOp::kGe,
                    row->from_level});
      break;
    }
    case GuardMode::kHelperMethod: {
      const auto [guard_cls, guard_name] =
          emit_helper_predicate(CmpOp::kLt, row->from_level);
      mb.invoke_static(guard_cls, guard_name, "Z");
      mb.move_result(0);
      Label skip = mb.new_label();
      mb.if_lit(CmpOp::kEq, 0, 0, skip);
      emit_call(mb, api);
      mb.bind(skip);
      break;
    }
    default:
      SD_EXPECTS(false);
      break;
  }
  mb.return_void();

  const bool guarded = guard != GuardMode::kNone;
  SeededIssue issue;
  issue.kind = MismatchKind::kSemanticChange;
  issue.location = MethodId{host_class, host_method, "()V"};
  issue.subject = api.declared_id();
  issue.real = !guarded && !range.intersect(window).empty();
  issue.tag = !guarded ? (issue.real ? "sem_unguarded" : "sem_outside_range")
              : guard == GuardMode::kLocal ? "sem_guarded_local"
                                           : "sem_guarded_helper";
  truth_.issues.push_back(std::move(issue));
  return *this;
}

AppBuilder& AppBuilder::declare_unused_permission(
    const std::string& permission) {
  SD_EXPECTS(is_dangerous_permission(permission));
  SD_EXPECTS(!manifest_.requests_permission(permission));
  request_permission(permission);
  SeededIssue issue;
  issue.kind = MismatchKind::kSdkDeclaration;
  issue.subject = MethodId{"", "unused-permission", ""};
  issue.permission = permission;
  issue.real = true;
  issue.tag = "unused_permission";
  truth_.issues.push_back(std::move(issue));
  return *this;
}

AppBuilder& AppBuilder::vacuous_sdk_guard(bool always_true) {
  const ApiInterval range =
      manifest_.supported_range().intersect(ApiInterval::full());
  SD_EXPECTS(!range.empty());
  // `SDK_INT >= minSdk` holds on every supported level; `SDK_INT < minSdk`
  // on none. Either way the branch decides nothing.
  const CmpOp cmp = always_true ? CmpOp::kGe : CmpOp::kLt;
  const int literal = range.lo();

  std::string host_class;
  std::string host_method;
  MethodBuilder& mb =
      new_seed_method(Placement::kReachable, &host_class, &host_method);
  mb.sget_sdk_int(0);
  Label skip = mb.new_label();
  mb.if_lit(cmp, 0, literal, skip);
  mb.const_int(1, 1);
  mb.bind(skip);
  mb.return_void();

  // Ledgered by build()'s vacuous-guard derivation like every other
  // recorded comparison site — one-sided by construction, so the derived
  // row is guaranteed.
  guard_sites_.push_back(
      GuardSite{MethodId{host_class, host_method, "()V"}, cmp, literal});
  return *this;
}

void AppBuilder::claim_chain_slot(int slot) {
  SD_EXPECTS(slot >= 0);
  SD_EXPECTS(chain_slots_used_.insert(slot).second);
}

std::string AppBuilder::chain_slot_class(int slot) const {
  return package_path_ + "/chain/Slot" + std::to_string(slot);
}

AppBuilder& AppBuilder::begin_chain_slot(int slot) {
  SD_EXPECTS(chain_slot_ < 0);
  claim_chain_slot(slot);
  chain_slot_ = slot;
  chain_slot_emitted_ = false;
  return *this;
}

AppBuilder& AppBuilder::end_chain_slot() {
  // Exactly one seed must have landed in the slot — a primitive that never
  // reached new_seed_method (e.g. a kCrossMethod guard, which mints its
  // own helper class) would leave the slot class unmaterialized and the
  // onCreate wiring dangling.
  SD_EXPECTS(chain_slot_ >= 0 && chain_slot_emitted_);
  chain_slot_ = -1;
  return *this;
}

AppBuilder& AppBuilder::chain_tombstone(int slot) {
  SD_EXPECTS(chain_slot_ < 0);
  claim_chain_slot(slot);
  const std::string cls_name = chain_slot_class(slot);
  auto& mb = main_dex_.add_class(cls_name).add_method("run");
  mb.return_void();
  helper_calls_.emplace_back(cls_name, "run");
  return *this;
}

AppBuilder& AppBuilder::chain_callback_slot(int slot, const CallbackUse& cb,
                                            bool enabled) {
  SD_EXPECTS(chain_slot_ < 0);
  claim_chain_slot(slot);
  const MethodSpec* spec = find_spec_callback(cb);
  SD_EXPECTS(spec != nullptr);
  const std::string cls_name = chain_slot_class(slot);
  auto& cls = main_dex_.add_class(cls_name, cb.framework_class);
  if (!enabled) return *this;  // the subclass stays, the override goes
  auto& mb = cls.add_method(cb.name, "V", cb.params);
  mb.return_void();

  // Same ledger derivation as callback_override, minus the counter-named
  // host class.
  const ApiInterval range =
      manifest_.supported_range().intersect(ApiInterval::full());
  const Lifecycle life = spec->life;
  const bool backward_issue = range.lo() < life.introduced;
  const bool forward_issue = life.removed != 0 && range.hi() >= life.removed;

  SeededIssue issue;
  issue.kind = MismatchKind::kApiCallback;
  issue.location = MethodId{cls_name, cb.name, cb.descriptor()};
  issue.subject = cb.declared_id();
  issue.real = backward_issue || forward_issue;
  issue.tag = issue.real ? (backward_issue ? "unguarded" : "forward")
                         : "safe";
  truth_.issues.push_back(std::move(issue));
  return *this;
}

AppBuilder& AppBuilder::chain_dead_class(int slot, int salt) {
  const std::string cls_name = package_path_ + "/chain/Dead" +
                               std::to_string(slot) + "v" +
                               std::to_string(salt);
  auto& mb = main_dex_.add_class(cls_name).add_method("run");
  mb.const_int(0, salt);
  mb.return_void();
  return *this;
}

AppBuilder& AppBuilder::framework_breadth(int count) {
  const ApiInterval range =
      manifest_.supported_range().intersect(ApiInterval::full());
  // Breadth means *distinct classes*: each call targets a different
  // framework class (cycling only past the spec's supply), so a
  // library-heavy app drags hundreds of framework classes — and whatever
  // their bodies reach — into the analysis, like the Fig. 3 outliers do.
  const auto breadth = collect_breadth_apis(*spec_, range);
  SD_EXPECTS(!breadth.empty());

  const std::string method_name =
      "breadth" + std::to_string(seed_counter_++);
  auto& mb = main_activity_->add_method(method_name);
  for (int i = 0; i < count; ++i) emit_call(mb, breadth[i % breadth.size()]);
  mb.return_void();
  reachable_roots_.push_back(method_name);
  return *this;
}

AppBuilder& AppBuilder::pad_to(std::uint64_t target_loc, int live_stride) {
  SD_EXPECTS(live_stride >= 1);
  // Rough running size: each filler method contributes exactly its body.
  // Current content is estimated from emitted constructs.
  const std::uint64_t estimated_existing =
      static_cast<std::uint64_t>(seed_counter_) * 10 + 64;
  if (target_loc <= estimated_existing) return *this;
  std::uint64_t remaining = target_loc - estimated_existing;

  const ApiInterval range =
      manifest_.supported_range().intersect(ApiInterval::full());
  const auto safe = collect_safe_apis(*spec_, range);

  // Filler classes of 48 methods. Every live_stride-th class is wired into
  // the component's onCreate (live application logic); the rest model
  // bundled library code the app never calls — the dominant case in real APKs
  // (most of a typical APK's bytecode is unused library surface) and the
  // reason reachability-driven analysis beats whole-program scanning on
  // wall-clock (paper RQ3).
  while (remaining > 0) {
    const int filler_index = filler_counter_++;
    const std::string cls_name =
        package_path_ + "/fill/Filler" + std::to_string(filler_index);
    auto& cls = main_dex_.add_class(cls_name);
    auto& run = cls.add_method("run");
    constexpr int kMethodsPerClass = 48;
    for (int m = 0; m < kMethodsPerClass; ++m) {
      const std::string name = "f" + std::to_string(m);
      auto& mb = cls.add_method(name);
      // 12 instructions of benign arithmetic/branch/API mix.
      mb.const_int(0, m);
      mb.const_int(1, filler_index);
      mb.move(2, 0);
      Label join = mb.new_label();
      mb.if_reg(CmpOp::kLt, 2, 1, join);
      mb.const_int(3, 7);
      mb.move(4, 3);
      mb.bind(join);
      if (!safe.empty() && m % 4 == 0)
        emit_call(mb, safe[static_cast<std::size_t>(filler_index * 48 + m) %
                           safe.size()]);
      else
        mb.const_int(5, 1);
      mb.const_int(6, 2);
      mb.move(7, 6);
      mb.const_int(5, 9);
      mb.move(6, 5);
      mb.return_void();
      remaining = remaining > 12 ? remaining - 12 : 0;
      run.invoke_virtual(cls_name, name);
    }
    run.return_void();
    remaining = remaining > kMethodsPerClass ? remaining - kMethodsPerClass : 0;
    if (filler_index % live_stride == 0)
      helper_calls_.emplace_back(cls_name, "run");
  }
  return *this;
}

AppBuilder::Built AppBuilder::build() {
  SD_EXPECTS(!built_);
  built_ = true;

  // The component entry point reaching every live seed.
  auto& on_create =
      main_activity_->add_method("onCreate", "V", {"android/os/Bundle"});
  on_create.invoke_super("android/app/Activity", "onCreate", "V",
                         {"android/os/Bundle"});
  // Late-bound code is activated before the app's own logic runs, so a
  // crash in an early root cannot mask the plugin surface.
  for (const auto& plugin : plugin_classes_)
    on_create.load_class(0, plugin);
  for (const auto& reflected : reflected_classes_) {
    // Dotted name, as Java source would write it.
    std::string dotted = reflected;
    std::replace(dotted.begin(), dotted.end(), '/', '.');
    on_create.const_string(1, dotted);
    on_create.invoke_static("java/lang/Class", "forName", "java/lang/Class",
                            {"java/lang/String"}, {1});
  }
  for (const auto& root : reachable_roots_)
    on_create.invoke_virtual(package_path_ + "/MainActivity", root);
  for (const auto& [cls, method] : helper_calls_)
    on_create.invoke_virtual(cls, method);
  on_create.return_void();

  manifest_.components.push_back(
      Component{ComponentKind::kActivity, package_path_ + "/MainActivity"});

  // A self-contradictory declared range (the SDC range lint's subject) is
  // ledgered automatically — mirrors Amd::detect_declarations lint 1, so
  // corpus strata only need to declare the bad range. sdk() rejects
  // maxSdk < minSdk up front, leaving the two target-relative forms.
  if (manifest_.target_sdk < manifest_.min_sdk ||
      (manifest_.max_sdk != 0 && manifest_.max_sdk < manifest_.target_sdk)) {
    SeededIssue issue;
    issue.kind = MismatchKind::kSdkDeclaration;
    issue.subject = MethodId{"", "declared-range", ""};
    issue.real = true;
    issue.tag = "bad_range";
    truth_.issues.push_back(std::move(issue));
  }

  // Finalize permission seeds now that target SDK and protocol state are
  // known.
  const ApiInterval range =
      manifest_.supported_range().intersect(ApiInterval::full());
  const ApiInterval runtime_range =
      range.intersect(ApiInterval{kRuntimePermissionLevel, kMaxApiLevel});
  const bool targets_runtime =
      manifest_.target_sdk >= kRuntimePermissionLevel;
  for (const auto& seed : permission_seeds_) {
    SeededIssue issue;
    issue.kind = targets_runtime ? MismatchKind::kPermissionRequest
                                 : MismatchKind::kPermissionRevocation;
    issue.location = seed.location;
    issue.subject = seed.subject;
    issue.permission = seed.permission;
    const bool protected_by_protocol = targets_runtime && protocol_implemented_;
    const bool statically_guarded = seed.guard == GuardMode::kCrossMethod ||
                                    seed.guard == GuardMode::kLocal;
    const bool runtime_guarded = seed.guard == GuardMode::kHidden;
    issue.real = !runtime_range.empty() && !protected_by_protocol &&
                 !statically_guarded && !runtime_guarded;
    if (protected_by_protocol)
      issue.tag = "protocol_ok";
    else if (runtime_guarded)
      issue.tag = "guarded_hidden";
    else if (statically_guarded)
      issue.tag = seed.guard == GuardMode::kLocal ? "guarded_pre23"
                                                  : "guarded_cross_method";
    else if (runtime_range.empty())
      issue.tag = "pre23_only";
    else
      issue.tag = "unguarded";
    truth_.issues.push_back(std::move(issue));
  }

  // Vacuous-guard derivation: re-evaluate every recorded direct SDK_INT
  // comparison against the final declared range, exactly as lint 3 does.
  // A guard seeded as protection can still end up one-sided — a malformed
  // maxSdk narrows the range below its threshold — and the ledger must
  // agree with the lint that the comparison decides nothing. Skipped for
  // an empty declared range, mirroring the lint.
  if (!range.empty()) {
    for (const auto& site : guard_sites_) {
      int satisfied = 0;
      for (int level = range.lo(); level <= range.hi(); ++level)
        if (eval_cmp(site.cmp, level, site.literal)) ++satisfied;
      if (satisfied != 0 && satisfied != range.size()) continue;
      SeededIssue issue;
      issue.kind = MismatchKind::kSdkDeclaration;
      issue.location = site.method;
      issue.subject = MethodId{"android/os/Build$VERSION", "SDK_INT",
                               sdk_guard_descriptor(site.cmp, site.literal)};
      issue.real = true;
      issue.tag = "vacuous_guard";
      truth_.issues.push_back(std::move(issue));
    }
  }

  Built built;
  built.apk.name = app_name_;
  built.apk.manifest = std::move(manifest_);
  built.apk.dexes.push_back(main_dex_.build());
  if (secondary_dex_) built.apk.dexes.push_back(secondary_dex_->build());
  built.truth = std::move(truth_);
  return built;
}

}  // namespace saintdroid
