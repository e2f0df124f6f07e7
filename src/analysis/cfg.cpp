#include "analysis/cfg.hpp"

#include <algorithm>

#include "support/errors.hpp"

namespace saintdroid {

Cfg Cfg::build(const MethodCode& code) {
  SD_EXPECTS(!code.insns.empty());
  const auto n = static_cast<std::uint32_t>(code.insns.size());

  // Mark leaders.
  std::vector<bool> leader(n, false);
  leader[0] = true;
  for (std::uint32_t i = 0; i < n; ++i) {
    const Instruction& insn = code.insns[i];
    if (insn.is_branch()) {
      leader[insn.target] = true;
      if (i + 1 < n) leader[i + 1] = true;
    } else if (insn.is_terminator() && i + 1 < n) {
      leader[i + 1] = true;
    }
  }

  Cfg cfg;
  cfg.insn_to_block_.resize(n);

  // Carve blocks.
  for (std::uint32_t i = 0; i < n;) {
    BasicBlock block;
    block.first = i;
    const auto id = static_cast<std::uint32_t>(cfg.blocks_.size());
    cfg.insn_to_block_[i] = id;
    std::uint32_t j = i;
    while (j + 1 < n && !leader[j + 1] && !code.insns[j].is_terminator() &&
           code.insns[j].op != Opcode::kIfCmp) {
      ++j;
      cfg.insn_to_block_[j] = id;
    }
    block.last = j;
    cfg.blocks_.push_back(block);
    i = j + 1;
  }

  // Wire successors.
  const auto block_count = static_cast<std::uint32_t>(cfg.blocks_.size());
  for (std::uint32_t b = 0; b < block_count; ++b) {
    BasicBlock& block = cfg.blocks_[b];
    const Instruction& last = code.insns[block.last];
    switch (last.op) {
      case Opcode::kIfCmp:
        block.taken = cfg.insn_to_block_[last.target];
        if (block.last + 1 < n)
          block.fallthrough = cfg.insn_to_block_[block.last + 1];
        break;
      case Opcode::kGoto:
        block.taken = cfg.insn_to_block_[last.target];
        break;
      case Opcode::kReturnVoid:
      case Opcode::kReturn:
      case Opcode::kThrow:
        break;  // no successors
      default:
        if (block.last + 1 < n)
          block.fallthrough = cfg.insn_to_block_[block.last + 1];
        break;
    }
  }

  return cfg;
}

}  // namespace saintdroid
