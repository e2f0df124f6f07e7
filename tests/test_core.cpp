// Tests for the AUM usage modeler, the AMD detectors (Algorithms 2-4) and
// the SaintDroid facade, over hand-seeded apps with known ledgers.
#include <gtest/gtest.h>

#include <unordered_set>

#include "adf/repository.hpp"
#include "core/saintdroid.hpp"
#include "workload/app_builder.hpp"

namespace saintdroid {
namespace {

namespace cat = catalog;

const FrameworkRepository& repo() { return FrameworkRepository::standard(); }

SaintDroid& tool() {
  static SaintDroid instance{repo()};
  return instance;
}

std::unordered_set<std::string> keys_of(const AnalysisResult& result) {
  std::unordered_set<std::string> keys;
  for (const auto& m : result.mismatches) keys.insert(match_key(m));
  return keys;
}

AppBuilder make_builder(const char* name, int min_sdk, int target_sdk) {
  AppBuilder b{name, std::string{"com.test."} + name, repo().spec()};
  b.sdk(min_sdk, target_sdk);
  return b;
}

// --- Algorithm 2: invocation mismatches ------------------------------------------

TEST(Amd, BackwardInvocationLevels) {
  auto b = make_builder("backward", 14, 27);
  b.api_call(cat::get_color_state_list());
  auto built = b.build();
  const auto result = tool().analyze(built.apk);
  ASSERT_EQ(result.count(MismatchKind::kApiInvocation), 1u);
  const Mismatch& m = result.mismatches[0];
  EXPECT_EQ(m.problem_levels, ApiInterval(14, 22));
  EXPECT_NE(m.note.find("introduced at API level 23"), std::string::npos);
}

TEST(Amd, ForwardInvocationLevels) {
  auto b = make_builder("forward", 14, 22);
  b.api_call(cat::http_client_execute());  // removed at 23; max unset -> 29
  auto built = b.build();
  const auto result = tool().analyze(built.apk);
  ASSERT_GE(result.count(MismatchKind::kApiInvocation), 1u);
  bool forward_found = false;
  for (const auto& m : result.mismatches)
    if (m.kind == MismatchKind::kApiInvocation &&
        m.problem_levels == ApiInterval(23, 29))
      forward_found = true;
  EXPECT_TRUE(forward_found);
}

TEST(Amd, MaxSdkLimitsForwardExposure) {
  auto b = make_builder("capped", 14, 22);
  b.sdk(14, 22, 22);  // maxSdk 22: the removed API is never exposed
  b.api_call(cat::http_client_execute());
  auto built = b.build();
  const auto result = tool().analyze(built.apk);
  EXPECT_EQ(result.count(MismatchKind::kApiInvocation), 0u);
}

TEST(Amd, GuardedCallIsSilent) {
  auto b = make_builder("guarded", 14, 27);
  b.api_call(cat::get_color_state_list(), GuardMode::kLocal);
  b.api_call(cat::get_color_state_list(), GuardMode::kLocalViaRegister);
  b.api_call(cat::get_color_state_list(), GuardMode::kCrossMethod);
  auto built = b.build();
  EXPECT_TRUE(tool().analyze(built.apk).mismatches.empty());
}

TEST(Amd, FieldCachedGuardIsSilent) {
  auto b = make_builder("fieldguard", 14, 27);
  b.api_call(cat::get_color_state_list(), GuardMode::kLocalViaField);
  auto built = b.build();
  EXPECT_TRUE(tool().analyze(built.apk).mismatches.empty());
  EXPECT_EQ(built.truth.issues[0].tag, "guarded_field");
}

TEST(Amd, HiddenGuardStillFlagged) {
  // The check lives in runtime-generated code; static analysis must
  // conservatively report (the paper's FP mechanism, §VI).
  auto b = make_builder("hidden", 14, 27);
  b.api_call(cat::get_color_state_list(), GuardMode::kHidden);
  auto built = b.build();
  EXPECT_EQ(tool().analyze(built.apk).count(MismatchKind::kApiInvocation),
            1u);
  EXPECT_EQ(built.truth.real_count(), 0u);  // ...and the ledger knows better
}

TEST(Aum, InheritedReceiverResolved) {
  auto b = make_builder("inherited", 14, 27);
  b.inherited_api_call(cat::get_color_state_list("android/view/View"));
  auto built = b.build();
  const auto result = tool().analyze(built.apk);
  ASSERT_EQ(result.count(MismatchKind::kApiInvocation), 1u);
  EXPECT_EQ(result.mismatches[0].subject.class_name,
            "android/content/Context");
}

TEST(Aum, SecondaryDexExplored) {
  auto b = make_builder("latebound", 14, 27);
  b.api_call(cat::get_color_state_list(), GuardMode::kNone,
             Placement::kSecondaryDex);
  auto built = b.build();
  ASSERT_EQ(built.apk.dexes.size(), 2u);
  EXPECT_EQ(tool().analyze(built.apk).count(MismatchKind::kApiInvocation),
            1u);
}

TEST(Aum, ReflectionTargetExplored) {
  // Class.forName("com.test....Dyn0") with a constant name: the paper's
  // conservative late-binding rule pulls the class into the analysis.
  auto b = make_builder("reflect", 14, 27);
  b.api_call(cat::get_color_state_list(), GuardMode::kNone,
             Placement::kReflection);
  auto built = b.build();
  EXPECT_EQ(tool().analyze(built.apk).count(MismatchKind::kApiInvocation),
            1u);
  ASSERT_EQ(built.truth.issues.size(), 1u);
  EXPECT_EQ(built.truth.issues[0].tag, "reflection");
}

TEST(Aum, ReflectionRespectsLateBindingSwitch) {
  auto b = make_builder("reflect2", 14, 27);
  b.api_call(cat::get_color_state_list(), GuardMode::kNone,
             Placement::kReflection);
  auto built = b.build();
  SaintDroidOptions options;
  options.aum.follow_late_binding = false;
  SaintDroid limited{repo(), options};
  EXPECT_EQ(limited.analyze(built.apk).count(MismatchKind::kApiInvocation),
            0u);
}

TEST(Aum, LateBindingCanBeDisabled) {
  auto b = make_builder("latebound2", 14, 27);
  b.api_call(cat::get_color_state_list(), GuardMode::kNone,
             Placement::kSecondaryDex);
  auto built = b.build();
  SaintDroidOptions options;
  options.aum.follow_late_binding = false;
  SaintDroid limited{repo(), options};
  EXPECT_EQ(limited.analyze(built.apk).count(MismatchKind::kApiInvocation),
            0u);
}

TEST(Aum, DeadCodeNotReached) {
  auto b = make_builder("dead", 14, 27);
  b.api_call(cat::get_color_state_list(), GuardMode::kNone,
             Placement::kDeadCode);
  auto built = b.build();
  EXPECT_TRUE(tool().analyze(built.apk).mismatches.empty());
}

TEST(Aum, InterproceduralContextCanBeDisabled) {
  auto b = make_builder("ctx", 14, 27);
  b.api_call(cat::get_color_state_list(), GuardMode::kCrossMethod);
  auto built = b.build();
  SaintDroidOptions options;
  options.aum.interprocedural_guards = false;
  SaintDroid intraprocedural{repo(), options};
  // Without context propagation the callee is analyzed under the full
  // range and the guarded call is (wrongly) flagged — CID's behaviour.
  EXPECT_EQ(
      intraprocedural.analyze(built.apk).count(MismatchKind::kApiInvocation),
      1u);
}

// --- Algorithm 3: callback mismatches ---------------------------------------------

TEST(Amd, CallbackBackward) {
  auto b = make_builder("apc", 14, 27);
  b.callback_override(cat::on_attach_context());
  auto built = b.build();
  const auto result = tool().analyze(built.apk);
  ASSERT_EQ(result.count(MismatchKind::kApiCallback), 1u);
  EXPECT_EQ(result.mismatches[0].problem_levels, ApiInterval(14, 22));
}

TEST(Amd, CallbackAliveEverywhereIsSilent) {
  auto b = make_builder("apc-safe", 14, 27);
  b.callback_override(cat::on_create_view());  // Fragment@11 < 14
  auto built = b.build();
  EXPECT_EQ(tool().analyze(built.apk).count(MismatchKind::kApiCallback), 0u);
}

TEST(Amd, CallbackAboveTargetStillDetected) {
  // onTopResumedActivityChanged@29 does not exist in the target-26 image;
  // Algorithm 3 consults the database across all levels.
  auto b = make_builder("apc-above", 14, 26);
  b.callback_override(cat::on_top_resumed_activity_changed());
  auto built = b.build();
  const auto result = tool().analyze(built.apk);
  ASSERT_EQ(result.count(MismatchKind::kApiCallback), 1u);
  EXPECT_EQ(result.mismatches[0].problem_levels, ApiInterval(14, 28));
}

TEST(Amd, PlainMethodOverrideIsNotCallbackMismatch) {
  // Overriding a non-callback framework method introduced later is not an
  // APC issue (the framework never invokes it).
  DexBuilder b;
  auto& cls = b.add_class("com/test/W", "android/view/View");
  cls.add_method("getForeground", "android/graphics/drawable/Drawable")
      .const_int(0, 0)
      .return_reg(0);
  Apk apk;
  apk.name = "plain-override";
  apk.manifest.package = "t";
  apk.manifest.min_sdk = 14;
  apk.manifest.target_sdk = 27;
  apk.dexes.push_back(b.build());
  EXPECT_EQ(tool().analyze(apk).count(MismatchKind::kApiCallback), 0u);
}

// --- Algorithm 4: permission mismatches -------------------------------------------

TEST(Amd, RequestMismatchWhenProtocolMissing) {
  auto b = make_builder("prm-request", 19, 26);
  b.permission_use(cat::camera_open());
  auto built = b.build();
  const auto result = tool().analyze(built.apk);
  ASSERT_EQ(result.count(MismatchKind::kPermissionRequest), 1u);
  const Mismatch& m = result.mismatches.back();
  EXPECT_EQ(m.permission, "android.permission.CAMERA");
  EXPECT_EQ(m.problem_levels, ApiInterval(23, 29));
}

TEST(Amd, ProtocolSuppressesRequestMismatch) {
  auto b = make_builder("prm-ok", 23, 26);
  b.implement_runtime_permission_protocol();
  b.permission_use(cat::camera_open());
  auto built = b.build();
  EXPECT_EQ(tool().analyze(built.apk).permission_count(), 0u);
}

TEST(Amd, RevocationMismatchForLegacyTargets) {
  auto b = make_builder("prm-revoke", 16, 22);
  b.permission_use(cat::resolver_insert());
  auto built = b.build();
  const auto result = tool().analyze(built.apk);
  ASSERT_EQ(result.count(MismatchKind::kPermissionRevocation), 1u);
  EXPECT_EQ(result.mismatches.back().permission,
            "android.permission.WRITE_EXTERNAL_STORAGE");
}

TEST(Amd, ProtocolDoesNotHelpLegacyTargets) {
  // Algorithm 4: targeting < 23 is itself the problem on >= 23 devices.
  auto b = make_builder("prm-legacy", 16, 22);
  b.implement_runtime_permission_protocol();
  b.permission_use(cat::camera_open());
  auto built = b.build();
  EXPECT_EQ(tool().analyze(built.apk).count(
                MismatchKind::kPermissionRevocation),
            1u);
}

TEST(Amd, Pre23OnlyUseIsSafe) {
  auto b = make_builder("prm-pre23", 16, 26);
  b.permission_use(cat::camera_open(), GuardMode::kLocal);  // use only < 23
  auto built = b.build();
  EXPECT_EQ(tool().analyze(built.apk).permission_count(), 0u);
}

TEST(Amd, MaxSdkBelow23IsSafe) {
  auto b = make_builder("prm-old", 16, 21);
  b.sdk(16, 21, 22);
  b.permission_use(cat::camera_open());
  auto built = b.build();
  EXPECT_EQ(tool().analyze(built.apk).permission_count(), 0u);
}

TEST(Amd, TransitivePermissionDetected) {
  auto b = make_builder("prm-deep", 19, 26);
  b.permission_use(cat::insert_image());  // transitive WRITE_EXTERNAL
  auto built = b.build();
  const auto result = tool().analyze(built.apk);
  ASSERT_EQ(result.count(MismatchKind::kPermissionRequest), 1u);
  EXPECT_EQ(result.mismatches.back().permission,
            "android.permission.WRITE_EXTERNAL_STORAGE");
}

TEST(Amd, OnePermissionReportedOnce) {
  auto b = make_builder("prm-dedupe", 19, 26);
  b.permission_use(cat::camera_open());
  // A second API guarded by the same permission.
  DexBuilder unused;  // (distinct seeds suffice: reuse another CAMERA API)
  auto built = b.build();
  const auto result = tool().analyze(built.apk);
  EXPECT_EQ(result.count(MismatchKind::kPermissionRequest), 1u);
}

// --- facade ------------------------------------------------------------------------

TEST(Facade, ReportsResourceUsage) {
  auto b = make_builder("usage", 14, 27);
  b.api_call(cat::get_color_state_list());
  b.pad_to(5000);
  auto built = b.build();
  const auto result = tool().analyze(built.apk);
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.usage.seconds, 0.0);
  EXPECT_GT(result.usage.peak_bytes, 0u);
  EXPECT_GT(result.usage.loaded_classes, 0u);
}

// The modelled memory accounting, pinned to its reference values: every
// journal row carries peak_bytes and loaded_classes, so the per-structure
// sizes the meter charges must not move when the decoded layout does.
TEST(Facade, MemoryAccountingIsPinned) {
  auto b = make_builder("pinned", 14, 27);
  b.api_call(cat::get_color_state_list());
  b.api_call(cat::get_color_state_list(), GuardMode::kNone,
             Placement::kSecondaryDex);
  b.pad_to(5000);
  const auto built = b.build();
  SaintDroidOptions eager_options;
  eager_options.lazy_loading = false;
  SaintDroid eager{repo(), eager_options};
  const auto lazy_result = tool().analyze(built.apk);
  const auto eager_result = eager.analyze(built.apk);
  EXPECT_EQ(lazy_result.usage.peak_bytes, 301818u);
  EXPECT_EQ(lazy_result.usage.loaded_classes, 32u);
  EXPECT_EQ(eager_result.usage.peak_bytes, 3552608u);
  EXPECT_EQ(eager_result.usage.loaded_classes, 2190u);
  EXPECT_EQ(built.apk.dexes[0].footprint_bytes(), 293441u);
}

TEST(Facade, EagerConfigurationLoadsMore) {
  auto b = make_builder("eager", 14, 27);
  b.api_call(cat::get_color_state_list());
  auto built = b.build();
  SaintDroidOptions eager_options;
  eager_options.lazy_loading = false;
  SaintDroid eager{repo(), eager_options};
  const auto lazy_result = tool().analyze(built.apk);
  const auto eager_result = eager.analyze(built.apk);
  EXPECT_GT(eager_result.usage.loaded_classes,
            4 * lazy_result.usage.loaded_classes);
  // Identical detections either way: loading strategy is a pure
  // performance trade (DESIGN.md decision 2).
  EXPECT_EQ(keys_of(eager_result), keys_of(lazy_result));
}

TEST(Facade, CapabilityMatrix) {
  EXPECT_TRUE(tool().detects(MismatchKind::kApiInvocation));
  EXPECT_TRUE(tool().detects(MismatchKind::kApiCallback));
  EXPECT_TRUE(tool().detects(MismatchKind::kPermissionRequest));
  EXPECT_TRUE(tool().detects(MismatchKind::kPermissionRevocation));
}

TEST(Report, TextRendering) {
  auto b = make_builder("text", 14, 27);
  b.api_call(cat::get_color_state_list());
  auto built = b.build();
  const auto result = tool().analyze(built.apk);
  const std::string text = result.to_text("text-app");
  EXPECT_NE(text.find("=== text-app ==="), std::string::npos);
  EXPECT_NE(text.find("[API]"), std::string::npos);
  EXPECT_NE(text.find("getColorStateList"), std::string::npos);
}

}  // namespace
}  // namespace saintdroid
