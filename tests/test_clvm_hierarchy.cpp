// Tests for the class-loading boundary (lazy CLVM vs eager loader) and the
// hierarchy analysis built on top of it.
#include <gtest/gtest.h>

#include "adf/repository.hpp"
#include "clvm/clvm.hpp"
#include "dex/builder.hpp"
#include "hierarchy/hierarchy.hpp"
#include "support/errors.hpp"

namespace saintdroid {
namespace {

const FrameworkRepository& small_repo() {
  static const FrameworkRepository repo{[] {
    FrameworkConfig cfg;
    cfg.bulk_classes = 80;
    return cfg;
  }()};
  return repo;
}

Apk make_app() {
  DexBuilder main;
  auto& widget = main.add_class("com/app/MyView", "android/view/View");
  auto& wm = widget.add_method("poke");
  wm.invoke_virtual("com/app/MyView", "setBackground", "V",
                    {"android/graphics/drawable/Drawable"});
  wm.return_void();
  auto& listener =
      main.add_class("com/app/Clicker", "java/lang/Object",
                     {"android/view/View$OnClickListener"});
  auto& lm = listener.add_method("onClick", "V", {"android/view/View"});
  lm.return_void();

  DexBuilder secondary;
  auto& plugin = secondary.add_class("com/app/plugin/P");
  plugin.add_method("run").return_void();

  Apk apk;
  apk.name = "loader-test";
  apk.manifest.package = "com.app";
  apk.manifest.min_sdk = 15;
  apk.manifest.target_sdk = 26;
  apk.dexes.push_back(main.build());
  apk.dexes.push_back(secondary.build());
  return apk;
}

// --- lazy loading ------------------------------------------------------------

TEST(Clvm, LoadsOnDemandOnly) {
  const Apk apk = make_app();
  ClassLoaderVm vm{apk, small_repo().substrate(26)};
  EXPECT_EQ(vm.loaded_class_count(), 0u);
  EXPECT_EQ(vm.memory().peak_bytes(), 0u);

  const LoadedClass* view = vm.load("android/view/View");
  ASSERT_NE(view, nullptr);
  EXPECT_TRUE(view->from_framework);
  EXPECT_EQ(vm.loaded_class_count(), 1u);
  const auto after_one = vm.memory().peak_bytes();
  EXPECT_GT(after_one, 0u);

  // Re-loading is free and returns the same object.
  EXPECT_EQ(vm.load("android/view/View"), view);
  EXPECT_EQ(vm.loaded_class_count(), 1u);
  EXPECT_EQ(vm.memory().peak_bytes(), after_one);
}

TEST(Clvm, AppClassesVisibleAcrossDexes) {
  const Apk apk = make_app();
  ClassLoaderVm vm{apk, small_repo().substrate(26),
                   /*include_secondary=*/true};
  const LoadedClass* plugin = vm.load("com/app/plugin/P");
  ASSERT_NE(plugin, nullptr);
  EXPECT_FALSE(plugin->from_framework);
}

TEST(Clvm, SecondaryDexHiddenWhenDisabled) {
  const Apk apk = make_app();
  ClassLoaderVm vm{apk, small_repo().substrate(26),
                   /*include_secondary=*/false};
  EXPECT_EQ(vm.load("com/app/plugin/P"), nullptr);
  EXPECT_NE(vm.load("com/app/MyView"), nullptr);
}

TEST(Clvm, UnknownClassIsNull) {
  const Apk apk = make_app();
  ClassLoaderVm vm{apk, small_repo().substrate(26)};
  EXPECT_EQ(vm.load("com/runtime/GeneratedCheck"), nullptr);
}

TEST(Clvm, FrameworkClassesAreTheSubstrates) {
  const Apk apk = make_app();
  const auto substrate = small_repo().substrate(26);
  ClassLoaderVm vm{apk, substrate};
  const LoadedClass* view = vm.load("android/view/View");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view, substrate->find_class("android/view/View"));
  EXPECT_EQ(vm.memory().peak_bytes(), view->footprint);
  // An app class of the same package is materialized privately.
  const LoadedClass* mine = vm.load("com/app/MyView");
  ASSERT_NE(mine, nullptr);
  EXPECT_FALSE(substrate->owns(*mine));
}

TEST(Clvm, RequiresSubstrate) {
  const Apk apk = make_app();
  EXPECT_THROW(ClassLoaderVm(apk, nullptr), ConfigError);
  EXPECT_THROW(ClassLoaderVm(apk, small_repo().image(26), true, nullptr,
                             nullptr, nullptr),
               ConfigError);
}

// --- eager loading --------------------------------------------------------------

TEST(EagerLoader, MaterializesWholeWorldUpFront) {
  const Apk apk = make_app();
  EagerLoader eager{apk, small_repo().image(26),
                    /*include_secondary=*/false, /*load_framework=*/true};
  const auto count = eager.loaded_class_count();
  EXPECT_GT(count, small_repo().image(26).classes().size() - 1);
  const auto peak = eager.memory().peak_bytes();
  // Loading afterwards adds nothing.
  EXPECT_NE(eager.load("android/view/View"), nullptr);
  EXPECT_EQ(eager.loaded_class_count(), count);
  EXPECT_EQ(eager.memory().peak_bytes(), peak);
  // Secondary dex excluded in CID mode.
  EXPECT_EQ(eager.load("com/app/plugin/P"), nullptr);
}

TEST(EagerLoader, CostsDominateLazyFootprint) {
  const Apk apk = make_app();
  EagerLoader eager{apk, small_repo().image(26), false, true};
  ClassLoaderVm lazy{apk, small_repo().substrate(26)};
  lazy.load("com/app/MyView");
  lazy.load("android/view/View");
  EXPECT_GT(eager.memory().peak_bytes(), 4 * lazy.memory().peak_bytes());
}

// --- hierarchy ---------------------------------------------------------------------

TEST(Hierarchy, ResolvesInheritedFrameworkMethod) {
  const Apk apk = make_app();
  ClassLoaderVm vm{apk, small_repo().substrate(26)};
  ClassHierarchy h{vm};
  const auto res = h.resolve("com/app/MyView", "setBackground",
                             "(Landroid/graphics/drawable/Drawable;)V");
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->id.class_name, "android/view/View");
  EXPECT_TRUE(res->declaring_class->from_framework);
}

TEST(Hierarchy, ResolvesThroughDeepChain) {
  const Apk apk = make_app();
  ClassLoaderVm vm{apk, small_repo().substrate(26)};
  ClassHierarchy h{vm};
  // Activity extends ContextThemeWrapper -> ContextWrapper -> Context.
  const auto res = h.resolve("android/app/Activity", "getColorStateList",
                             "(I)Landroid/content/res/ColorStateList;");
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->id.class_name, "android/content/Context");
}

TEST(Hierarchy, ResolutionFailsForUnknownMethod) {
  const Apk apk = make_app();
  ClassLoaderVm vm{apk, small_repo().substrate(26)};
  ClassHierarchy h{vm};
  EXPECT_FALSE(h.resolve("com/app/MyView", "noSuchMethod", "()V").has_value());
  EXPECT_FALSE(h.resolve("no/such/Class", "f", "()V").has_value());
}

TEST(Hierarchy, OverrideDetection) {
  const Apk apk = make_app();
  ClassLoaderVm vm{apk, small_repo().substrate(26)};
  ClassHierarchy h{vm};
  const LoadedClass* clicker = vm.load("com/app/Clicker");
  ASSERT_NE(clicker, nullptr);
  // onClick overrides the interface callback declaration.
  const auto res =
      h.overridden_framework_method(*clicker, clicker->def->methods[0]);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->id.class_name, "android/view/View$OnClickListener");
}

TEST(Hierarchy, AppOverrideShadowsFramework) {
  // If an app ancestor re-declares the method, it is not a framework
  // override (the app ancestor is what the subclass overrides).
  DexBuilder b;
  auto& base = b.add_class("com/app/Base", "android/view/View");
  base.add_method("onDraw", "V", {"android/graphics/Canvas"}).return_void();
  auto& derived = b.add_class("com/app/Derived", "com/app/Base");
  derived.add_method("onDraw", "V", {"android/graphics/Canvas"}).return_void();
  Apk apk;
  apk.name = "shadow";
  apk.manifest.package = "s";
  apk.manifest.min_sdk = 15;
  apk.dexes.push_back(b.build());

  ClassLoaderVm vm{apk, small_repo().substrate(26)};
  ClassHierarchy h{vm};
  const LoadedClass* d = vm.load("com/app/Derived");
  EXPECT_FALSE(
      h.overridden_framework_method(*d, d->def->methods[0]).has_value());
  // The base class, however, does override the framework method.
  const LoadedClass* base_cls = vm.load("com/app/Base");
  EXPECT_TRUE(
      h.overridden_framework_method(*base_cls, base_cls->def->methods[0])
          .has_value());
}

TEST(Hierarchy, SubtypeQueries) {
  const Apk apk = make_app();
  ClassLoaderVm vm{apk, small_repo().substrate(26)};
  ClassHierarchy h{vm};
  EXPECT_TRUE(h.is_subtype_of("com/app/MyView", "android/view/View"));
  EXPECT_TRUE(h.is_subtype_of("com/app/MyView", "java/lang/Object"));
  EXPECT_TRUE(
      h.is_subtype_of("com/app/Clicker", "android/view/View$OnClickListener"));
  EXPECT_FALSE(h.is_subtype_of("com/app/MyView", "android/app/Activity"));
  EXPECT_TRUE(h.is_subtype_of("x/Y", "x/Y"));  // reflexive even when unknown
}

TEST(Hierarchy, NearestFrameworkAncestor) {
  const Apk apk = make_app();
  ClassLoaderVm vm{apk, small_repo().substrate(26)};
  ClassHierarchy h{vm};
  const LoadedClass* anc = h.nearest_framework_ancestor("com/app/MyView");
  ASSERT_NE(anc, nullptr);
  EXPECT_EQ(anc->name, "android/view/View");
  EXPECT_EQ(h.nearest_framework_ancestor("no/such/Class"), nullptr);
}

TEST(Hierarchy, ResolutionDrivesLazyLoading) {
  // This is Algorithm 1 in miniature: a resolve() call pulls exactly the
  // ancestor chain into the VM, nothing else.
  const Apk apk = make_app();
  ClassLoaderVm vm{apk, small_repo().substrate(26)};
  ClassHierarchy h{vm};
  ASSERT_TRUE(h.resolve("android/app/Activity", "getColorStateList",
                        "(I)Landroid/content/res/ColorStateList;")
                  .has_value());
  // Activity + ContextThemeWrapper + ContextWrapper + Context == 4 loads.
  EXPECT_EQ(vm.loaded_class_count(), 4u);
}

}  // namespace
}  // namespace saintdroid
