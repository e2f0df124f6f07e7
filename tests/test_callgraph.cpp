// Tests for the explicit call-graph builder.
#include <gtest/gtest.h>

#include "adf/repository.hpp"
#include "clvm/clvm.hpp"
#include "core/callgraph.hpp"
#include "workload/app_builder.hpp"

namespace saintdroid {
namespace {

namespace cat = catalog;

const FrameworkRepository& repo() { return FrameworkRepository::standard(); }

CallGraph graph_of(const Apk& apk) {
  const int level = FrameworkRepository::clamp_level(apk.manifest.target_sdk);
  static std::vector<std::unique_ptr<ClassLoaderVm>> keep_alive;
  const auto substrate = repo().substrate(level);
  keep_alive.push_back(std::make_unique<ClassLoaderVm>(apk, substrate));
  ClassHierarchy hierarchy{*keep_alive.back(), substrate.get()};
  return CallGraph::build(apk, hierarchy);
}

TEST(CallGraph, EntryPointsAndEdges) {
  AppBuilder b{"cg", "com.cg.app", repo().spec()};
  b.sdk(14, 27);
  b.api_call(cat::get_color_state_list());
  auto built = b.build();
  // Keep the apk alive for the graph's node lifetime.
  static Apk apk = std::move(built.apk);
  const CallGraph graph = graph_of(apk);

  // onCreate is an entry (component + override of Activity.onCreate).
  const auto on_create = graph.find(MethodId{
      "com/cg/app/MainActivity", "onCreate", "(Landroid/os/Bundle;)V"});
  ASSERT_NE(on_create, kNoIndex);
  EXPECT_TRUE(graph.nodes()[on_create].is_entry);

  // onCreate -> seed0 -> Context.getColorStateList (framework boundary).
  const auto seed = graph.find(MethodId{"com/cg/app/MainActivity", "seed0",
                                        "()V"});
  ASSERT_NE(seed, kNoIndex);
  const auto api = graph.find(MethodId{
      "android/content/Context", "getColorStateList",
      "(I)Landroid/content/res/ColorStateList;"});
  ASSERT_NE(api, kNoIndex);
  EXPECT_TRUE(graph.nodes()[api].is_framework);

  bool edge_entry_to_seed = false;
  bool edge_seed_to_api = false;
  for (const auto& e : graph.edges()) {
    if (e.caller == on_create && e.callee == seed) edge_entry_to_seed = true;
    if (e.caller == seed && e.callee == api) edge_seed_to_api = true;
  }
  EXPECT_TRUE(edge_entry_to_seed);
  EXPECT_TRUE(edge_seed_to_api);
  EXPECT_FALSE(graph.out_edges(seed).empty());
}

TEST(CallGraph, DeadCodeExcluded) {
  AppBuilder b{"cg-dead", "com.cg.dead", repo().spec()};
  b.sdk(14, 27);
  b.api_call(cat::get_color_state_list(), GuardMode::kNone,
             Placement::kDeadCode);
  auto built = b.build();
  static Apk apk = std::move(built.apk);
  const CallGraph graph = graph_of(apk);
  for (const auto& node : graph.nodes())
    EXPECT_EQ(node.id.class_name.find("/util/Dead"), std::string::npos);
}

TEST(CallGraph, LateBoundIncluded) {
  AppBuilder b{"cg-late", "com.cg.late", repo().spec()};
  b.sdk(14, 27);
  b.api_call(cat::get_color_state_list(), GuardMode::kNone,
             Placement::kSecondaryDex);
  auto built = b.build();
  static Apk apk = std::move(built.apk);
  const CallGraph graph = graph_of(apk);
  bool plugin_seen = false;
  for (const auto& node : graph.nodes())
    plugin_seen |= node.id.class_name.find("/plugin/") != std::string::npos;
  EXPECT_TRUE(plugin_seen);
}

TEST(CallGraph, UnresolvableBecomesBoundaryNode) {
  AppBuilder b{"cg-hidden", "com.cg.hidden", repo().spec()};
  b.sdk(14, 27);
  b.api_call(cat::get_color_state_list(), GuardMode::kHidden);
  auto built = b.build();
  static Apk apk = std::move(built.apk);
  const CallGraph graph = graph_of(apk);
  const auto check = graph.find(
      MethodId{"com/runtime/GeneratedCheck", "isAtLeast", "(I)Z"});
  ASSERT_NE(check, kNoIndex);
  EXPECT_TRUE(graph.nodes()[check].is_framework);  // terminal boundary
}

TEST(CallGraph, DotOutputWellFormed) {
  AppBuilder b{"cg-dot", "com.cg.dot", repo().spec()};
  b.sdk(14, 27);
  b.api_call(cat::get_color_state_list());
  auto built = b.build();
  static Apk apk = std::move(built.apk);
  const CallGraph graph = graph_of(apk);
  const std::string dot = graph.to_dot("cg-dot");
  EXPECT_EQ(dot.rfind("digraph", 0), 0u);
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);  // framework node
  EXPECT_NE(dot.find("style=bold"), std::string::npos);     // entry node
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

}  // namespace
}  // namespace saintdroid
