// Tests for the framework substrate: curated lifecycle facts, per-level
// image emission, synthetic bulk determinism and the permission catalogue.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adf/image.hpp"
#include "adf/permissions.hpp"
#include "adf/repository.hpp"
#include "adf/spec.hpp"
#include "adf/synthetic.hpp"

namespace saintdroid {
namespace {

// --- lifecycle semantics ------------------------------------------------------

TEST(Lifecycle, ExistsAt) {
  const Lifecycle never_removed{11, 0};
  EXPECT_FALSE(never_removed.exists_at(10));
  EXPECT_TRUE(never_removed.exists_at(11));
  EXPECT_TRUE(never_removed.exists_at(kMaxApiLevel));
  const Lifecycle removed{8, 23};
  EXPECT_TRUE(removed.exists_at(8));
  EXPECT_TRUE(removed.exists_at(22));
  EXPECT_FALSE(removed.exists_at(23));
  EXPECT_EQ(removed.existence(), ApiInterval(8, 22));
}

// --- curated facts the paper's examples rely on -------------------------------

TEST(CuratedSpec, PaperFacts) {
  const FrameworkSpec spec = curated_framework_spec();
  const auto intro = [&](const char* cls, const char* method) {
    const MethodSpec* m = spec.find_method(cls, method);
    return m ? m->life.introduced : -1;
  };
  EXPECT_EQ(intro("android/content/Context", "getColorStateList"), 23);
  EXPECT_EQ(intro("android/app/Activity", "getFragmentManager"), 11);
  EXPECT_EQ(intro("android/view/View", "drawableHotspotChanged"), 21);
  EXPECT_EQ(intro("android/app/Activity", "onRequestPermissionsResult"), 23);
  EXPECT_EQ(intro("android/app/Activity", "requestPermissions"), 23);
  EXPECT_EQ(intro("android/app/NotificationChannel", "<init>"), 26);
  EXPECT_EQ(intro("android/view/View", "setBackground"), 16);
  EXPECT_EQ(intro("android/app/Service", "onTrimMemory"), 14);
  EXPECT_EQ(intro("android/widget/TextView", "setTextAppearance"), 23);
  EXPECT_EQ(intro("android/view/Window", "setStatusBarColor"), 21);
  EXPECT_EQ(intro("android/app/NotificationManager",
                  "createNotificationChannel"), 26);
  EXPECT_EQ(intro("android/net/ConnectivityManager", "getActiveNetwork"),
            23);
  EXPECT_EQ(intro("android/content/SharedPreferences$Editor", "apply"), 9);
  EXPECT_EQ(intro("java/lang/Class", "forName"), 2);
  // Fragment has both onAttach overloads with distinct lifecycles.
  const ClassSpec* fragment = spec.find_class("android/app/Fragment");
  ASSERT_NE(fragment, nullptr);
  int attach_11 = 0;
  int attach_23 = 0;
  for (const auto& m : fragment->methods) {
    if (m.name != "onAttach") continue;
    if (m.life.introduced == 11) ++attach_11;
    if (m.life.introduced == 23) ++attach_23;
  }
  EXPECT_EQ(attach_11, 1);
  EXPECT_EQ(attach_23, 1);
  // AndroidHttpClient was removed at 23 (forward incompatibility material).
  const ClassSpec* http = spec.find_class("android/net/http/AndroidHttpClient");
  ASSERT_NE(http, nullptr);
  EXPECT_EQ(http->life.removed, 23);
}

TEST(CuratedSpec, PermissionFacts) {
  const FrameworkSpec spec = curated_framework_spec();
  EXPECT_EQ(spec.find_method("android/hardware/Camera", "open")->permission,
            "android.permission.CAMERA");
  EXPECT_EQ(spec.find_method("android/content/ContentResolver", "insert")
                ->permission,
            "android.permission.WRITE_EXTERNAL_STORAGE");
  EXPECT_EQ(spec.find_method("android/bluetooth/le/BluetoothLeScanner",
                             "startScan")->permission,
            "android.permission.ACCESS_FINE_LOCATION");
  // insertImage has no direct permission but calls into insert.
  const MethodSpec* insert_image =
      spec.find_method("android/provider/MediaStore$Images$Media",
                       "insertImage");
  ASSERT_NE(insert_image, nullptr);
  EXPECT_TRUE(insert_image->permission.empty());
  ASSERT_FALSE(insert_image->calls.empty());
  EXPECT_EQ(insert_image->calls[0].name, "insert");
}

TEST(FrameworkNamespace, Classification) {
  EXPECT_TRUE(is_framework_class_name("android/app/Activity"));
  EXPECT_TRUE(is_framework_class_name("java/lang/Object"));
  EXPECT_TRUE(is_framework_class_name("android/synth/p3/C42"));
  // The support library ships inside APKs: app code.
  EXPECT_FALSE(is_framework_class_name("android/support/v4/app/ActivityCompat"));
  EXPECT_FALSE(is_framework_class_name("com/example/Main"));
}

// --- image emission -------------------------------------------------------------

TEST(Image, RespectsLifecycles) {
  const FrameworkSpec spec = curated_framework_spec();
  const DexFile at22 = emit_framework_image(spec, 22);
  const DexFile at23 = emit_framework_image(spec, 23);

  const auto has_method = [](const DexFile& dex, const char* cls,
                             const char* name) {
    const ClassDef* def = dex.find_class(cls);
    if (!def) return false;
    for (const auto& m : def->methods)
      if (dex.string_at(m.name) == name) return true;
    return false;
  };

  EXPECT_FALSE(has_method(at22, "android/content/Context",
                          "getColorStateList"));
  EXPECT_TRUE(has_method(at23, "android/content/Context",
                         "getColorStateList"));
  // AndroidHttpClient: present at 22, gone at 23.
  EXPECT_NE(at22.find_class("android/net/http/AndroidHttpClient"), nullptr);
  EXPECT_EQ(at23.find_class("android/net/http/AndroidHttpClient"), nullptr);
  // NotificationChannel only exists from 26.
  EXPECT_EQ(at23.find_class("android/app/NotificationChannel"), nullptr);
  const DexFile at26 = emit_framework_image(spec, 26);
  EXPECT_NE(at26.find_class("android/app/NotificationChannel"), nullptr);
}

TEST(Image, PermissionEnforcementIsRealBytecode) {
  const FrameworkSpec spec = curated_framework_spec();
  const DexFile image = emit_framework_image(spec, 23);
  const ClassDef* camera = image.find_class("android/hardware/Camera");
  ASSERT_NE(camera, nullptr);
  bool enforced = false;
  for (const auto& m : camera->methods) {
    if (image.string_at(m.name) != "open" || !m.code) continue;
    bool saw_const = false;
    for (const auto& insn : m.code->insns) {
      if (insn.op == Opcode::kConstString &&
          image.string_at(insn.index) == "android.permission.CAMERA")
        saw_const = true;
      if (insn.op == Opcode::kInvoke &&
          image.method_id_at(insn.index).name == kPermissionEnforcerMethod)
        enforced = saw_const;
    }
  }
  EXPECT_TRUE(enforced);
}

TEST(Image, CallbackDispatchersEmitted) {
  const FrameworkSpec spec = curated_framework_spec();
  const DexFile image = emit_framework_image(spec, 23);
  const ClassDef* view = image.find_class("android/view/View");
  ASSERT_NE(view, nullptr);
  bool dispatches_hotspot = false;
  for (const auto& m : view->methods) {
    if (image.string_at(m.name) != kCallbackDispatcherName || !m.code)
      continue;
    for (const auto& insn : m.code->insns)
      if (insn.op == Opcode::kInvoke &&
          image.method_id_at(insn.index).name == "drawableHotspotChanged")
        dispatches_hotspot = true;
  }
  EXPECT_TRUE(dispatches_hotspot);
}

// Property: every level's image is a valid container and round-trips.
class ImagePerLevel : public ::testing::TestWithParam<int> {};

TEST_P(ImagePerLevel, SerializesAndReparses) {
  FrameworkConfig cfg;
  cfg.bulk_classes = 60;  // keep the sweep fast
  const FrameworkSpec spec = build_framework_spec(cfg);
  const DexFile image = emit_framework_image(spec, GetParam());
  const auto bytes = image.serialize();
  const DexFile back = DexFile::parse(bytes);
  EXPECT_EQ(back.serialize(), bytes);
  EXPECT_GT(back.classes().size(), 20u);
}

INSTANTIATE_TEST_SUITE_P(Levels, ImagePerLevel,
                         ::testing::Range(kMinApiLevel, kMaxApiLevel + 1));

TEST(Image, MonotoneGrowthOverall) {
  FrameworkConfig cfg;
  cfg.bulk_classes = 200;
  const FrameworkSpec spec = build_framework_spec(cfg);
  // The framework mostly grows level over level (a few removals allowed).
  const auto count_at = [&](int level) {
    return emit_framework_image(spec, level).classes().size();
  };
  EXPECT_LT(count_at(2), count_at(15));
  EXPECT_LT(count_at(15), count_at(29));
}

// --- byte-identity pins ---------------------------------------------------------
//
// Digests of every level's serialized image, recorded once and never
// re-recorded: any change to emission order or content, however small,
// moves them.

// Levels 2..29, recorded from the DexBuilder-based emitter.
const std::vector<std::uint64_t> kPinnedDefault = {
    0x16def557cdd22da3ULL, 0x7c9554eea3926fbfULL, 0x736efc8376e05cf6ULL,
    0x51b4d252a8b1699fULL, 0xde340e2441ff3548ULL, 0xcbcd901d8f4f8cccULL,
    0xba34ca9ddd9a0eeeULL, 0xa5b87207d31a96a9ULL, 0xc20a3eda37871ed8ULL,
    0x228ea38e20408f07ULL, 0xce079999d304988cULL, 0xc13a3ccf8659ca1fULL,
    0x8b83ff2318d9c732ULL, 0xaa683810926e0bdeULL, 0xe6497b3a290da2bfULL,
    0x2bc87394651a4efaULL, 0x629563efe6cffc8bULL, 0x11e852be92309937ULL,
    0x12f3a8e3164f2242ULL, 0x2142df39ad6a873fULL, 0x829bc124009ca276ULL,
    0xf68356f7df3aa514ULL, 0x40ab079bc03864d5ULL, 0x5c9ce318b01d2babULL,
    0xe57061030125d476ULL, 0x52fa2dc11684f349ULL, 0x1325dfbdafd775daULL,
    0x92c43a9a63144734ULL,
};

const std::vector<std::uint64_t> kPinnedBulk60 = {
    0x4b2d3bae6eaae69dULL, 0xa089c9608a75af43ULL, 0xdb5e48050492e462ULL,
    0x45e732a0d525248aULL, 0xecce8e645a26d46aULL, 0xee2ecd2cc2a515a6ULL,
    0xfbd8d8de1218d7a2ULL, 0x3e9458f829750a4bULL, 0xa5bb2c2e3428c140ULL,
    0xfc0dfa4ff35eeb7bULL, 0xc8e25aa0df4b28b1ULL, 0x60a756e7e0088527ULL,
    0x2757730d36ba264aULL, 0x8acf46934cf44205ULL, 0xede6dae702e6f334ULL,
    0x83ba89626d2eed75ULL, 0xe673526a8268a02dULL, 0x3a0eabd2f3feb9e2ULL,
    0xb36aed2edf4f7dbbULL, 0x229255cfee07d58eULL, 0xdde5092010e337deULL,
    0xeaf60a67afdeb8b8ULL, 0x773eaf2790858db2ULL, 0x7c56540d1a11d29bULL,
    0x905bd8340d3c9021ULL, 0xfeb56b190d6f4e84ULL, 0xeb17967d2f260d10ULL,
    0x193fd44904728d25ULL,
};

const std::vector<std::uint64_t> kPinnedBulk200Seed999 = {
    0x633a0fa6ec55eb8eULL, 0x9004d020b510ebf8ULL, 0x890ce43a8f33f5e0ULL,
    0x1f0f49aee285a384ULL, 0xbab809105287668eULL, 0x150a2135cb1a6075ULL,
    0x0dc3d0e2b1bb8c53ULL, 0xc24be602783991d6ULL, 0x83d2ad35456740b1ULL,
    0x26c0dab2e26a1f22ULL, 0x5fa7f4f5f0759735ULL, 0x1bcd4ba78daf8ac7ULL,
    0xdf2bb396a54ea59aULL, 0x8dd00a2c86f31289ULL, 0xa3ee9ad12246583eULL,
    0xfd9c66972d7618f0ULL, 0x293092eecb26d5d0ULL, 0xfe40ed407c1e6b60ULL,
    0xc151ba5be1658b88ULL, 0x45c8401e3595c036ULL, 0xa3cc3ee8c5ec2d37ULL,
    0x489a1f2fdeee411bULL, 0x00a6ac3ae82493d1ULL, 0x90571eb11d899bcdULL,
    0xa6cb3a47005ecd2fULL, 0xc65c36bafe0402cbULL, 0x39bbeef2ed353736ULL,
    0xbea83bd9d0f8a0d8ULL,
};

const std::vector<std::uint64_t> kPinnedEdge = {
    0x0e2f86d6f6aaf5bcULL, 0xd51d676252617c56ULL, 0x08f2be01b4f5585fULL,
    0x08f2be01b4f5585fULL, 0x7ec7bc161388456cULL, 0x7ec7bc161388456cULL,
    0x7459bd9b18eb3529ULL, 0xe58bf9632b3e1699ULL, 0x404f9ebc7ab890e6ULL,
    0x404f9ebc7ab890e6ULL, 0x0b55aee31cce1dd4ULL, 0x0b55aee31cce1dd4ULL,
    0x7424b77c4d7a5512ULL, 0xf3e90cef8f3fad57ULL, 0xf3e90cef8f3fad57ULL,
    0xf3e90cef8f3fad57ULL, 0xf3e90cef8f3fad57ULL, 0xf3e90cef8f3fad57ULL,
    0xa870a3ef35ef9ca6ULL, 0xa870a3ef35ef9ca6ULL, 0xa870a3ef35ef9ca6ULL,
    0xa870a3ef35ef9ca6ULL, 0xa870a3ef35ef9ca6ULL, 0xa870a3ef35ef9ca6ULL,
    0xa870a3ef35ef9ca6ULL, 0xa870a3ef35ef9ca6ULL, 0xa870a3ef35ef9ca6ULL,
    0xa870a3ef35ef9ca6ULL,
};

std::uint64_t image_digest(const DexFile& image) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const std::uint8_t b : image.serialize()) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// One digest per level kMinApiLevel..kMaxApiLevel, in level order.
std::vector<std::uint64_t> level_digests(const FrameworkSpec& spec) {
  const FrameworkImagePlan plan{spec};
  std::vector<std::uint64_t> out;
  for (int level = kMinApiLevel; level <= kMaxApiLevel; ++level)
    out.push_back(image_digest(plan.emit(level)));
  return out;
}

void expect_pinned(const FrameworkSpec& spec,
                   const std::vector<std::uint64_t>& pinned) {
  const std::vector<std::uint64_t> actual = level_digests(spec);
  ASSERT_EQ(actual.size(), pinned.size());
  for (std::size_t i = 0; i < actual.size(); ++i)
    EXPECT_EQ(actual[i], pinned[i])
        << "level " << kMinApiLevel + static_cast<int>(i);
}

TEST(Image, EveryLevelIsPinned) {
  expect_pinned(build_framework_spec(FrameworkConfig{}), kPinnedDefault);
  FrameworkConfig small;
  small.bulk_classes = 60;
  expect_pinned(build_framework_spec(small), kPinnedBulk60);
  FrameworkConfig reseeded;
  reseeded.bulk_classes = 200;
  reseeded.seed = 999;
  expect_pinned(build_framework_spec(reseeded), kPinnedBulk200Seed999);
}

// A hand-written spec for the branches a generated corpus may never take,
// each of which decides what gets interned and in which order.
FrameworkSpec edge_case_spec() {
  const auto method = [](std::string name, std::string ret,
                         std::vector<std::string> params, Lifecycle life) {
    MethodSpec m;
    m.name = std::move(name);
    m.return_type = std::move(ret);
    m.params = std::move(params);
    m.life = life;
    return m;
  };
  const auto callback = [&](std::string name, std::vector<std::string> params,
                            Lifecycle life) {
    MethodSpec m = method(std::move(name), "V", std::move(params), life);
    m.callback = true;
    return m;
  };
  const auto call = [](std::string cls, std::string name, std::string ret,
                       std::vector<std::string> params, bool is_static) {
    return CallSpec{std::move(cls), std::move(name), std::move(ret),
                    std::move(params), is_static};
  };

  FrameworkSpec spec;
  // Root class: empty super.
  spec.classes.push_back({"java/lang/Object", "", {}, {2, 0}, false,
                          {method("<init>", "V", {}, {2, 0})}});

  // Alive only at 10..19; its overloads of `over` are alive at 10..14 (I)
  // and from 12 (J), so at 15..19 only the other signature is alive.
  spec.classes.push_back(
      {"edge/Dead", "java/lang/Object", {}, {10, 20}, false,
       {method("ping", "V", {}, {10, 0}), method("over", "V", {"I"}, {10, 15}),
        method("over", "V", {"J"}, {12, 0}),
        callback("onEvent", {"I"}, {10, 0})}});

  // Missing superclass: always degrades to Object. Its one method checks
  // a permission whose text is a class name interned later as a type,
  // calls into a missing class, a dead class and a half-dead overload set,
  // then returns a value.
  {
    MethodSpec m = method("compute", "I", {"J", "java/lang/String"}, {2, 0});
    m.permission = "edge/Zed";
    m.calls = {call("edge/Missing", "gone", "V", {}, false),
               call("edge/Dead", "ping", "V", {}, false),
               call("edge/Dead", "over", "V", {"I"}, false),
               call("edge/Base", "run", "V", {}, true),
               call("edge/Zed", "zap", "Z", {}, true)};
    spec.classes.push_back({"edge/OrphanMissing", "edge/Missing", {}, {2, 0},
                            false, {std::move(m)}});
  }

  // Superclass alive only at 10..19: Object elsewhere.
  spec.classes.push_back({"edge/OrphanDead", "edge/Dead", {}, {2, 0}, false,
                          {method("<init>", "V", {}, {2, 0})}});

  // Interface with the default (non-empty) super, which must be dropped.
  // Its permission and calls are ignored: interface methods are abstract.
  // The static dispatcher is added after, but lands before, the abstract
  // methods.
  {
    MethodSpec described = method("describe", "java/lang/String", {}, {6, 0});
    described.permission = "edge.permission.IGNORED";
    described.calls = {call("edge/Base", "run", "V", {}, true)};
    spec.classes.push_back(
        {"edge/Listener", "java/lang/Object", {}, {4, 0}, true,
         {callback("onFire", {"I"}, {4, 0}), std::move(described),
          callback("onLate", {}, {20, 0})}});
  }

  // Interface with an empty super, extending an interface dead at 2..3.
  spec.classes.push_back({"edge/EmptySuperIface", "", {"edge/Listener"},
                          {2, 0}, true,
                          {method("poll", "Z", {}, {2, 0})}});

  // Interface removed at 8: filtered out of implementers' lists after.
  spec.classes.push_back({"edge/DeadIface", "java/lang/Object", {}, {2, 8},
                          true, {method("old", "V", {}, {2, 0})}});

  {
    MethodSpec run = method("run", "V", {}, {2, 0});
    run.is_static = true;
    spec.classes.push_back(
        {"edge/Base", "java/lang/Object", {}, {2, 0}, false,
         {std::move(run), callback("onStart", {}, {2, 0}),
          method("later", "V", {}, {2, 12})}});
  }

  // Implements a live, a dead-from-8 and a missing interface.
  {
    MethodSpec fire = method("fire", "V", {}, {3, 0});
    fire.permission = "edge.permission.FIRE";
    fire.calls = {call("edge/Listener", "onFire", "V", {"I"}, false),
                  call("edge/Widget", "size", "I", {}, true)};
    MethodSpec size = method("size", "I", {}, {3, 0});
    size.is_static = true;
    spec.classes.push_back(
        {"edge/Widget", "edge/Base",
         {"edge/Listener", "edge/DeadIface", "edge/MissingIface"}, {3, 0},
         false,
         {method("<init>", "V", {}, {3, 0}),
          callback("onClick", {"edge/Widget"}, {3, 0}), std::move(fire),
          std::move(size)}});
  }

  // Duplicate class name: both definitions are emitted, but every lookup
  // (super, interface, call target) resolves to the first one.
  spec.classes.push_back({"edge/Dup", "java/lang/Object", {}, {2, 14}, false,
                          {method("x", "V", {}, {2, 0})}});
  spec.classes.push_back({"edge/Dup", "java/lang/Object", {}, {9, 0}, false,
                          {method("x", "I", {}, {9, 0}),
                           callback("y", {}, {9, 0})}});
  {
    MethodSpec use = method("use", "V", {}, {2, 0});
    use.calls = {call("edge/Dup", "x", "V", {}, false),
                 call("edge/Dup", "y", "V", {}, false)};
    spec.classes.push_back({"edge/DupChild", "edge/Dup", {}, {2, 0}, false,
                            {std::move(use)}});
  }

  {
    MethodSpec zap = method("zap", "Z", {}, {2, 0});
    zap.is_static = true;
    spec.classes.push_back(
        {"edge/Zed", "java/lang/Object", {}, {2, 0}, false, {std::move(zap)}});
  }
  return spec;
}

TEST(Image, EdgeBranchesArePinned) {
  const FrameworkSpec spec = edge_case_spec();
  expect_pinned(spec, kPinnedEdge);

  // Spot checks of the degradations the digests pin.
  const DexFile at5 = emit_framework_image(spec, 5);
  const ClassDef* orphan = at5.find_class("edge/OrphanDead");
  ASSERT_NE(orphan, nullptr);
  EXPECT_EQ(at5.type_name(orphan->super_type), "java/lang/Object");
  const ClassDef* widget = at5.find_class("edge/Widget");
  ASSERT_NE(widget, nullptr);
  ASSERT_EQ(widget->interfaces.size(), 2u);  // the missing one is dropped
  const ClassDef* listener = at5.find_class("edge/Listener");
  ASSERT_NE(listener, nullptr);
  EXPECT_EQ(listener->super_type, kNoIndex);
  ASSERT_FALSE(listener->methods.empty());
  EXPECT_EQ(at5.string_at(listener->methods.front().name),
            kCallbackDispatcherName);

  const DexFile at12 = emit_framework_image(spec, 12);
  EXPECT_EQ(at12.type_name(at12.find_class("edge/OrphanDead")->super_type),
            "edge/Dead");
  EXPECT_EQ(at12.find_class("edge/Widget")->interfaces.size(), 1u);
}

// --- synthetic bulk ---------------------------------------------------------------

TEST(Synthetic, DeterministicForSeed) {
  FrameworkConfig cfg;
  cfg.bulk_classes = 100;
  const DexFile a = emit_framework_image(build_framework_spec(cfg), 25);
  const DexFile b = emit_framework_image(build_framework_spec(cfg), 25);
  EXPECT_EQ(a.serialize(), b.serialize());
  cfg.seed = 999;
  const DexFile c = emit_framework_image(build_framework_spec(cfg), 25);
  EXPECT_NE(a.serialize(), c.serialize());
}

TEST(Synthetic, CallbacksAreVoid) {
  FrameworkConfig cfg;
  cfg.bulk_classes = 150;
  const FrameworkSpec spec = build_framework_spec(cfg);
  for (const auto& cls : spec.classes)
    for (const auto& m : cls.methods)
      if (m.callback) {
        EXPECT_EQ(m.return_type, "V") << cls.name << "." << m.name;
      }
}

TEST(Synthetic, MethodLifecyclesNestInClassLifecycles) {
  FrameworkConfig cfg;
  cfg.bulk_classes = 150;
  const FrameworkSpec spec = build_framework_spec(cfg);
  for (const auto& cls : spec.classes)
    for (const auto& m : cls.methods)
      EXPECT_GE(m.life.introduced, cls.life.introduced)
          << cls.name << "." << m.name;
}

// --- repository -------------------------------------------------------------------

TEST(Repository, CachesImages) {
  FrameworkConfig cfg;
  cfg.bulk_classes = 50;
  const FrameworkRepository repo{cfg};
  const DexFile& a = repo.image(20);
  const DexFile& b = repo.image(20);
  EXPECT_EQ(&a, &b);  // same cached object
  EXPECT_EQ(FrameworkRepository::clamp_level(1), kMinApiLevel);
  EXPECT_EQ(FrameworkRepository::clamp_level(99), kMaxApiLevel);
  EXPECT_EQ(FrameworkRepository::clamp_level(19), 19);
}

TEST(Repository, ClassIndexCoversImage) {
  // The level's substrate is the framework's class-name index.
  FrameworkConfig cfg;
  cfg.bulk_classes = 50;
  const FrameworkRepository repo{cfg};
  const DexFile& image = repo.image(24);
  const auto substrate = repo.substrate(24);
  EXPECT_EQ(substrate->class_count(), image.classes().size());
  EXPECT_NE(substrate->find_class("android/app/Activity"), nullptr);
}

// --- permissions -------------------------------------------------------------------

TEST(Permissions, CatalogueHas26Dangerous) {
  EXPECT_EQ(dangerous_permissions().size(), 26u);
  EXPECT_TRUE(is_dangerous_permission("android.permission.CAMERA"));
  EXPECT_TRUE(
      is_dangerous_permission("android.permission.WRITE_EXTERNAL_STORAGE"));
  EXPECT_FALSE(is_dangerous_permission("android.permission.INTERNET"));
  EXPECT_FALSE(is_dangerous_permission(""));
}

}  // namespace
}  // namespace saintdroid
