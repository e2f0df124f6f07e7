// Tests for the dominator analysis, including a brute-force property
// check of dominance over generated CFGs.
#include <gtest/gtest.h>

#include <deque>
#include <functional>

#include "analysis/dominators.hpp"
#include "dex/builder.hpp"
#include "support/rng.hpp"

namespace saintdroid {
namespace {

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

/// Brute-force dominance: a dominates b iff removing a disconnects b from
/// the entry.
bool dominates_brute(const Cfg& cfg, std::uint32_t a, std::uint32_t b) {
  if (a == b) return true;
  if (a == Cfg::entry()) return true;  // the entry dominates everything
  std::vector<bool> seen(cfg.block_count(), false);
  std::deque<std::uint32_t> queue{Cfg::entry()};
  seen[Cfg::entry()] = true;
  while (!queue.empty()) {
    const auto block = queue.front();
    queue.pop_front();
    if (block == b) return false;  // reached b while avoiding a
    for (const std::uint32_t next :
         {cfg.block(block).fallthrough, cfg.block(block).taken}) {
      if (next == kNoBlock || next == a || seen[next]) continue;
      seen[next] = true;
      queue.push_back(next);
    }
  }
  return true;  // b unreachable without a
}

bool reachable(const Cfg& cfg, std::uint32_t target) {
  std::vector<bool> seen(cfg.block_count(), false);
  std::deque<std::uint32_t> queue{Cfg::entry()};
  seen[Cfg::entry()] = true;
  while (!queue.empty()) {
    const auto block = queue.front();
    queue.pop_front();
    if (block == target) return true;
    for (const std::uint32_t next :
         {cfg.block(block).fallthrough, cfg.block(block).taken}) {
      if (next == kNoBlock || seen[next]) continue;
      seen[next] = true;
      queue.push_back(next);
    }
  }
  return false;
}

TEST(Dominators, StraightLine) {
  const Fixture fx = build_method([](MethodBuilder& m) {
    m.const_int(0, 1);
    m.return_void();
  });
  const Cfg cfg = Cfg::build(*fx.code);
  const Dominators dom = Dominators::compute(cfg);
  EXPECT_EQ(dom.idom(Cfg::entry()), kNoBlock);
  EXPECT_TRUE(dom.dominates(0, 0));
}

TEST(Dominators, DiamondJoinDominatedByFork) {
  const Fixture fx = build_method([](MethodBuilder& m) {
    Label other = m.new_label();
    Label join = m.new_label();
    m.const_int(0, 5);
    m.if_lit(CmpOp::kLt, 0, 3, other);  // block A (fork)
    m.const_int(1, 1);                  // block B
    m.goto_(join);
    m.bind(other);
    m.const_int(1, 2);                  // block C
    m.bind(join);
    m.return_void();                    // block D (join)
  });
  const Cfg cfg = Cfg::build(*fx.code);
  const Dominators dom = Dominators::compute(cfg);
  const std::uint32_t fork = cfg.block_of(0);
  const std::uint32_t join = cfg.block_of(
      static_cast<std::uint32_t>(fx.code->insns.size() - 1));
  EXPECT_EQ(dom.idom(join), fork);  // neither branch arm dominates the join
  EXPECT_TRUE(dom.dominates(fork, join));
  EXPECT_FALSE(dom.dominates(cfg.block_of(2), join));
}

class DominatorProperty : public ::testing::TestWithParam<int> {};

TEST_P(DominatorProperty, AgreesWithBruteForce) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 77 + 5};
  const Fixture fx = build_method([&rng](MethodBuilder& m) {
    const int chunks = static_cast<int>(rng.uniform(2, 8));
    std::vector<Label> joins;
    for (int c = 0; c < chunks; ++c) {
      Label skip = m.new_label();
      m.const_int(0, c);
      m.if_lit(CmpOp::kGe, 0, static_cast<int>(rng.uniform(2, 29)), skip);
      m.const_int(1, c);
      if (rng.chance(0.3)) {
        Label early = m.new_label();
        m.goto_(early);
        m.bind(early);
      }
      m.bind(skip);
    }
    m.return_void();
  });
  const Cfg cfg = Cfg::build(*fx.code);
  const Dominators dom = Dominators::compute(cfg);
  for (std::uint32_t a = 0; a < cfg.block_count(); ++a) {
    for (std::uint32_t b = 0; b < cfg.block_count(); ++b) {
      if (!reachable(cfg, b)) continue;  // dominance defined on reachable
      EXPECT_EQ(dom.dominates(a, b), dominates_brute(cfg, a, b))
          << "a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominatorProperty, ::testing::Range(1, 16));

}  // namespace
}  // namespace saintdroid
