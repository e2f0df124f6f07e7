#include "analysis/dominators.hpp"

#include <algorithm>

#include "support/errors.hpp"

namespace saintdroid {

namespace {

/// Reverse postorder over the CFG from the entry; unreached blocks keep
/// order kNoBlock.
std::vector<std::uint32_t> reverse_postorder(const Cfg& cfg,
                                             std::vector<std::uint32_t>& rpo) {
  const auto n = static_cast<std::uint32_t>(cfg.block_count());
  rpo.assign(n, kNoBlock);
  std::vector<std::uint32_t> postorder;
  postorder.reserve(n);
  std::vector<std::uint8_t> state(n, 0);  // 0 unseen, 1 open, 2 done
  std::vector<std::pair<std::uint32_t, int>> stack{{Cfg::entry(), 0}};
  state[Cfg::entry()] = 1;
  while (!stack.empty()) {
    auto& [block, phase] = stack.back();
    const BasicBlock& bb = cfg.block(block);
    const std::uint32_t succs[2] = {bb.fallthrough, bb.taken};
    bool descended = false;
    while (phase < 2) {
      const std::uint32_t next = succs[phase++];
      if (next == kNoBlock || state[next] != 0) continue;
      state[next] = 1;
      stack.emplace_back(next, 0);
      descended = true;
      break;
    }
    if (descended) continue;
    if (phase >= 2) {
      state[block] = 2;
      postorder.push_back(block);
      stack.pop_back();
    }
  }
  // Assign reverse-postorder numbers.
  std::vector<std::uint32_t> order(postorder.rbegin(), postorder.rend());
  for (std::uint32_t i = 0; i < order.size(); ++i) rpo[order[i]] = i;
  return order;
}

}  // namespace

Dominators Dominators::compute(const Cfg& cfg) {
  Dominators dom;
  const auto n = static_cast<std::uint32_t>(cfg.block_count());
  dom.idom_.assign(n, kNoBlock);
  const std::vector<std::uint32_t> order = reverse_postorder(cfg, dom.order_);
  std::vector<std::vector<std::uint32_t>> preds(n);
  for (std::uint32_t b = 0; b < n; ++b) {
    const BasicBlock& bb = cfg.block(b);
    for (const std::uint32_t next : {bb.fallthrough, bb.taken})
      if (next != kNoBlock) preds[next].push_back(b);
  }

  const auto intersect = [&dom](std::uint32_t a, std::uint32_t b) {
    // Walk up the (partially built) dominator tree using RPO numbers.
    while (a != b) {
      while (dom.order_[a] > dom.order_[b]) a = dom.idom_[a];
      while (dom.order_[b] > dom.order_[a]) b = dom.idom_[b];
    }
    return a;
  };

  dom.idom_[Cfg::entry()] = Cfg::entry();
  bool changed = true;
  while (changed) {
    changed = false;
    for (const std::uint32_t block : order) {
      if (block == Cfg::entry()) continue;
      std::uint32_t new_idom = kNoBlock;
      for (const std::uint32_t pred : preds[block]) {
        if (dom.order_[pred] == kNoBlock) continue;  // unreachable pred
        if (dom.idom_[pred] == kNoBlock) continue;   // not yet processed
        new_idom = new_idom == kNoBlock ? pred : intersect(pred, new_idom);
      }
      if (new_idom != kNoBlock && dom.idom_[block] != new_idom) {
        dom.idom_[block] = new_idom;
        changed = true;
      }
    }
  }
  // Canonical form: the entry has no immediate dominator.
  dom.idom_[Cfg::entry()] = kNoBlock;
  return dom;
}

bool Dominators::dominates(std::uint32_t a, std::uint32_t b) const {
  SD_EXPECTS(a < idom_.size() && b < idom_.size());
  while (b != kNoBlock) {
    if (a == b) return true;
    b = idom_[b];
  }
  return false;
}

}  // namespace saintdroid
