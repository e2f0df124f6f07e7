// Tests for CFG construction and the SDK_INT guard dataflow, including
// pointwise property checks of interval refinement against concrete
// comparison semantics.
#include <gtest/gtest.h>

#include "analysis/cfg.hpp"
#include "analysis/guards.hpp"
#include "dex/builder.hpp"
#include "support/rng.hpp"

namespace saintdroid {
namespace {

/// Builds a one-method dex and hands back (dex, code).
struct Fixture {
  DexFile dex;
  const MethodCode* code;
};

Fixture build_method(const std::function<void(MethodBuilder&)>& author) {
  DexBuilder b;
  auto& cls = b.add_class("t/T");
  auto& m = cls.add_method("f");
  m.registers(8);
  author(m);
  Fixture fx{b.build(), nullptr};
  fx.code = &*fx.dex.classes()[0].methods[0].code;
  return fx;
}

/// Number of successor edges (fallthrough or taken) entering `target`.
std::size_t in_degree(const Cfg& cfg, std::uint32_t target) {
  std::size_t n = 0;
  for (const BasicBlock& bb : cfg.blocks())
    n += (bb.fallthrough == target ? 1 : 0) + (bb.taken == target ? 1 : 0);
  return n;
}

// --- CFG ---------------------------------------------------------------------

TEST(Cfg, StraightLineIsOneBlock) {
  const Fixture fx = build_method([](MethodBuilder& m) {
    m.const_int(0, 1);
    m.const_int(1, 2);
    m.return_void();
  });
  const Cfg cfg = Cfg::build(*fx.code);
  ASSERT_EQ(cfg.block_count(), 1u);
  EXPECT_EQ(cfg.block(0).first, 0u);
  EXPECT_EQ(cfg.block(0).last, 2u);
  EXPECT_EQ(cfg.block(0).fallthrough, kNoBlock);
  EXPECT_EQ(cfg.block(0).taken, kNoBlock);
}

TEST(Cfg, DiamondShape) {
  const Fixture fx = build_method([](MethodBuilder& m) {
    Label else_branch = m.new_label();
    Label join = m.new_label();
    m.const_int(0, 5);                      // @0 block A
    m.if_lit(CmpOp::kLt, 0, 3, else_branch); // @1
    m.const_int(1, 1);                      // @2 block B (fallthrough)
    m.goto_(join);                          // @3
    m.bind(else_branch);
    m.const_int(1, 2);                      // @4 block C
    m.bind(join);
    m.return_void();                        // @5 block D
  });
  const Cfg cfg = Cfg::build(*fx.code);
  ASSERT_EQ(cfg.block_count(), 4u);
  const BasicBlock& a = cfg.block(cfg.block_of(0));
  const BasicBlock& b = cfg.block(cfg.block_of(2));
  const BasicBlock& c = cfg.block(cfg.block_of(4));
  const BasicBlock& d = cfg.block(cfg.block_of(5));
  EXPECT_EQ(a.fallthrough, cfg.block_of(2));
  EXPECT_EQ(a.taken, cfg.block_of(4));
  EXPECT_EQ(b.taken, cfg.block_of(5));
  EXPECT_EQ(c.fallthrough, cfg.block_of(5));
  EXPECT_EQ(in_degree(cfg, cfg.block_of(5)), 2u);
}

TEST(Cfg, LoopBackEdge) {
  const Fixture fx = build_method([](MethodBuilder& m) {
    Label top = m.new_label();
    Label out = m.new_label();
    m.bind(top);
    m.const_int(0, 1);            // @0
    m.if_lit(CmpOp::kEq, 0, 0, out);  // @1
    m.goto_(top);                 // @2
    m.bind(out);
    m.return_void();              // @3
  });
  const Cfg cfg = Cfg::build(*fx.code);
  const BasicBlock& loop = cfg.block(cfg.block_of(2));
  EXPECT_EQ(loop.taken, cfg.block_of(0));
  EXPECT_GT(in_degree(cfg, cfg.block_of(0)), 0u);
}

// Property: blocks partition the instruction sequence exactly once, in
// order, across randomly generated well-formed methods.
class CfgPartition : public ::testing::TestWithParam<int> {};

TEST_P(CfgPartition, BlocksPartitionInstructions) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  const Fixture fx = build_method([&rng](MethodBuilder& m) {
    const int body = static_cast<int>(rng.uniform(3, 40));
    // Bind-before-emit labels so every branch target is valid.
    for (int i = 0; i < body; ++i) {
      const double roll = rng.uniform01();
      if (roll < 0.2) {
        Label l = m.new_label();
        m.if_lit(CmpOp::kGe, 0, static_cast<int>(rng.uniform(2, 29)), l);
        m.const_int(1, i);
        m.bind(l);
      } else if (roll < 0.3) {
        m.sget_sdk_int(0);
      } else {
        m.const_int(static_cast<std::uint16_t>(rng.uniform(0, 7)), i);
      }
    }
    m.return_void();
  });
  const Cfg cfg = Cfg::build(*fx.code);
  std::uint32_t expected_first = 0;
  for (std::uint32_t bid = 0; bid < cfg.block_count(); ++bid) {
    const BasicBlock& block = cfg.block(bid);
    EXPECT_EQ(block.first, expected_first);
    EXPECT_GE(block.last, block.first);
    for (std::uint32_t i = block.first; i <= block.last; ++i)
      EXPECT_EQ(cfg.block_of(i), bid);
    expected_first = block.last + 1;
  }
  EXPECT_EQ(expected_first, fx.code->insns.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CfgPartition, ::testing::Range(1, 21));

// --- guard refinement properties ------------------------------------------------

class RefineProperty
    : public ::testing::TestWithParam<std::tuple<CmpOp, int>> {};

TEST_P(RefineProperty, PointwiseAgreesWithEval) {
  const auto [cmp, literal] = GetParam();
  const ApiInterval in{kMinApiLevel, kMaxApiLevel};
  const ApiInterval taken = refine_interval(in, cmp, literal);
  const ApiInterval fallthrough =
      refine_interval(in, negate_cmp(cmp), literal);
  for (int level = kMinApiLevel; level <= kMaxApiLevel; ++level) {
    const bool holds = eval_cmp(cmp, level, literal);
    // Soundness: any level satisfying the constraint is inside the refined
    // interval (refinement may over-approximate for != but never drops).
    if (holds) {
      EXPECT_TRUE(taken.contains(level)) << level;
    }
    if (!holds) {
      EXPECT_TRUE(fallthrough.contains(level)) << level;
    }
    // Every level survives on at least one edge.
    EXPECT_TRUE(taken.contains(level) || fallthrough.contains(level));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAndLiterals, RefineProperty,
    ::testing::Combine(::testing::Values(CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                         CmpOp::kLe, CmpOp::kGt, CmpOp::kGe),
                       ::testing::Values(2, 11, 23, 29, 0, 35)));

TEST(Refine, ExactForOrderedOps) {
  const ApiInterval in{10, 25};
  EXPECT_EQ(refine_interval(in, CmpOp::kGe, 23), ApiInterval(23, 25));
  EXPECT_EQ(refine_interval(in, CmpOp::kLt, 23), ApiInterval(10, 22));
  EXPECT_EQ(refine_interval(in, CmpOp::kGt, 25), ApiInterval::empty_interval());
  EXPECT_EQ(refine_interval(in, CmpOp::kEq, 11), ApiInterval(11, 11));
  // != at an endpoint trims exactly; in the middle it must keep everything.
  EXPECT_EQ(refine_interval(in, CmpOp::kNe, 10), ApiInterval(11, 25));
  EXPECT_EQ(refine_interval(in, CmpOp::kNe, 17), in);
}

// --- guard dataflow on real bytecode ---------------------------------------------

ApiInterval interval_at_invoke(const Fixture& fx, ApiInterval entry,
                               const GuardOptions& options = {}) {
  const Cfg cfg = Cfg::build(*fx.code);
  const GuardResult result =
      analyze_guards(fx.dex, *fx.code, cfg, entry, options);
  for (std::uint32_t i = 0; i < fx.code->insns.size(); ++i)
    if (fx.code->insns[i].op == Opcode::kInvoke) return result.at(cfg, i);
  ADD_FAILURE() << "no invoke found";
  return ApiInterval::empty_interval();
}

Fixture guarded_call(const std::function<void(MethodBuilder&, Label)>& guard) {
  return build_method([&guard](MethodBuilder& m) {
    Label skip = m.new_label();
    guard(m, skip);
    m.invoke_virtual("android/content/Context", "getColorStateList",
                     "android/content/res/ColorStateList", {"I"});
    m.bind(skip);
    m.return_void();
  });
}

TEST(Guards, LiteralGuardRefines) {
  const Fixture fx = guarded_call([](MethodBuilder& m, Label skip) {
    m.sget_sdk_int(0);
    m.if_lit(CmpOp::kLt, 0, 23, skip);
  });
  EXPECT_EQ(interval_at_invoke(fx, ApiInterval(14, 29)), ApiInterval(23, 29));
}

TEST(Guards, RegisterComparisonRefinesWithTracking) {
  const Fixture fx = guarded_call([](MethodBuilder& m, Label skip) {
    m.sget_sdk_int(0);
    m.move(1, 0);
    m.const_int(2, 23);
    m.if_reg(CmpOp::kLt, 1, 2, skip);
  });
  EXPECT_EQ(interval_at_invoke(fx, ApiInterval(14, 29)), ApiInterval(23, 29));
  GuardOptions lexical;
  lexical.track_registers = false;
  EXPECT_EQ(interval_at_invoke(fx, ApiInterval(14, 29), lexical),
            ApiInterval(14, 29));  // Lint-style recognition gives up
}

TEST(Guards, FieldCachedSdkIntRefines) {
  // this.cachedSdk = SDK_INT; if (this.cachedSdk >= 23) ...
  const Fixture fx = guarded_call([](MethodBuilder& m, Label skip) {
    m.sget_sdk_int(0);
    m.iput(0, 5, "t/T", "cachedSdk", "I");
    m.iget(1, 5, "t/T", "cachedSdk", "I");
    m.if_lit(CmpOp::kLt, 1, 23, skip);
  });
  EXPECT_EQ(interval_at_invoke(fx, ApiInterval(14, 29)), ApiInterval(23, 29));
  GuardOptions no_fields;
  no_fields.track_fields = false;
  EXPECT_EQ(interval_at_invoke(fx, ApiInterval(14, 29), no_fields),
            ApiInterval(14, 29));
}

TEST(Guards, FieldOverwrittenWithUnknownLosesFact) {
  const Fixture fx = guarded_call([](MethodBuilder& m, Label skip) {
    m.sget_sdk_int(0);
    m.iput(0, 5, "t/T", "cachedSdk", "I");
    m.invoke_static("com/runtime/GeneratedCheck", "isAtLeast", "Z", {"I"});
    m.move_result(2);
    m.iput(2, 5, "t/T", "cachedSdk", "I");  // clobbered with unknown
    m.iget(1, 5, "t/T", "cachedSdk", "I");
    m.if_lit(CmpOp::kLt, 1, 23, skip);
  });
  EXPECT_EQ(interval_at_invoke(fx, ApiInterval(14, 29)), ApiInterval(14, 29));
}

TEST(Guards, ReversedOperandsNormalize) {
  // if (23 > SDK_INT) skip  ==  execute when SDK_INT >= 23.
  const Fixture fx = guarded_call([](MethodBuilder& m, Label skip) {
    m.const_int(1, 23);
    m.sget_sdk_int(0);
    m.if_reg(CmpOp::kGt, 1, 0, skip);
  });
  EXPECT_EQ(interval_at_invoke(fx, ApiInterval(14, 29)), ApiInterval(23, 29));
}

TEST(Guards, UnknownConditionDoesNotRefine) {
  const Fixture fx = guarded_call([](MethodBuilder& m, Label skip) {
    m.invoke_static("com/runtime/GeneratedCheck", "isAtLeast", "Z", {"I"});
    m.move_result(0);
    m.if_lit(CmpOp::kEq, 0, 0, skip);
  });
  EXPECT_EQ(interval_at_invoke(fx, ApiInterval(14, 29)), ApiInterval(14, 29));
}

TEST(Guards, SgetOfOtherFieldIsNotSdkInt) {
  const Fixture fx = guarded_call([](MethodBuilder& m, Label skip) {
    m.sget(0, "com/app/Config", "level", "I");
    m.if_lit(CmpOp::kLt, 0, 23, skip);
  });
  EXPECT_EQ(interval_at_invoke(fx, ApiInterval(14, 29)), ApiInterval(14, 29));
}

TEST(Guards, JoinTakesHull) {
  // One path checks >= 21, the other >= 26; after the join only the hull
  // [21,29] is sound.
  const Fixture fx = build_method([](MethodBuilder& m) {
    Label other = m.new_label();
    Label ret = m.new_label();
    Label ret2 = m.new_label();
    m.const_int(3, 1);
    m.if_lit(CmpOp::kEq, 3, 0, other);
    m.sget_sdk_int(0);
    m.if_lit(CmpOp::kLt, 0, 21, ret);
    m.goto_(ret2);
    m.bind(other);
    m.sget_sdk_int(0);
    m.if_lit(CmpOp::kLt, 0, 26, ret);
    m.bind(ret2);
    m.invoke_virtual("android/view/View", "setElevation", "V", {"F"});
    m.bind(ret);
    m.return_void();
  });
  EXPECT_EQ(interval_at_invoke(fx, ApiInterval(14, 29)), ApiInterval(21, 29));
}

TEST(Guards, ContradictoryGuardsYieldEmpty) {
  const Fixture fx = build_method([](MethodBuilder& m) {
    Label skip = m.new_label();
    m.sget_sdk_int(0);
    m.if_lit(CmpOp::kLt, 0, 23, skip);   // continue only >= 23
    m.if_lit(CmpOp::kGe, 0, 20, skip);   // continue only < 20: impossible
    m.invoke_virtual("android/view/View", "invalidate");
    m.bind(skip);
    m.return_void();
  });
  EXPECT_TRUE(interval_at_invoke(fx, ApiInterval(14, 29)).empty());
}

TEST(Guards, NarrowEntryContextPropagates) {
  // Interprocedural context: the same body analyzed under a caller's
  // narrowed interval reports the narrowed range at the (unguarded) site.
  const Fixture fx = build_method([](MethodBuilder& m) {
    m.invoke_virtual("android/content/Context", "getColorStateList",
                     "android/content/res/ColorStateList", {"I"});
    m.return_void();
  });
  EXPECT_EQ(interval_at_invoke(fx, ApiInterval(23, 29)), ApiInterval(23, 29));
}

TEST(Guards, DisabledOptionIgnoresGuards) {
  const Fixture fx = guarded_call([](MethodBuilder& m, Label skip) {
    m.sget_sdk_int(0);
    m.if_lit(CmpOp::kLt, 0, 23, skip);
  });
  GuardOptions off;
  off.enabled = false;
  EXPECT_EQ(interval_at_invoke(fx, ApiInterval(14, 29), off),
            ApiInterval(14, 29));
}

TEST(Guards, LoopTerminatesAndStaysSound) {
  const Fixture fx = build_method([](MethodBuilder& m) {
    Label top = m.new_label();
    Label out = m.new_label();
    m.sget_sdk_int(0);
    m.bind(top);
    m.if_lit(CmpOp::kLt, 0, 21, out);
    m.invoke_virtual("android/view/View", "setElevation", "V", {"F"});
    m.goto_(top);
    m.bind(out);
    m.return_void();
  });
  EXPECT_EQ(interval_at_invoke(fx, ApiInterval(14, 29)), ApiInterval(21, 29));
}

}  // namespace
}  // namespace saintdroid
