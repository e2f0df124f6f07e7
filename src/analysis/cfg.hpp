// Control-flow graph construction over SDEX method bodies.
//
// Blocks are maximal straight-line instruction runs; leaders are the entry,
// every branch target, and every instruction following a branch. A block
// ending in if-cmp has two distinguished successors (fallthrough = the
// comparison was false, taken = true), which is what lets the guard
// analysis refine the API interval differently along each edge.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dex/dexfile.hpp"

namespace saintdroid {

inline constexpr std::uint32_t kNoBlock = 0xffffffffu;

struct BasicBlock {
  std::uint32_t first = 0;  ///< index of the first instruction
  std::uint32_t last = 0;   ///< index of the last instruction (inclusive)
  std::uint32_t fallthrough = kNoBlock;  ///< next block when not taken
  std::uint32_t taken = kNoBlock;        ///< branch target block (if-cmp/goto)

  bool ends_in_conditional(const MethodCode& code) const {
    return code.insns[last].op == Opcode::kIfCmp;
  }
};

class Cfg {
 public:
  /// Builds the CFG for a non-empty method body.
  static Cfg build(const MethodCode& code);

  std::span<const BasicBlock> blocks() const { return blocks_; }
  const BasicBlock& block(std::uint32_t id) const { return blocks_[id]; }
  std::size_t block_count() const { return blocks_.size(); }

  /// Block containing instruction `insn_index`.
  std::uint32_t block_of(std::uint32_t insn_index) const {
    return insn_to_block_[insn_index];
  }

  /// Entry block id (always 0 for a non-empty body).
  static constexpr std::uint32_t entry() { return 0; }

 private:
  std::vector<BasicBlock> blocks_;
  std::vector<std::uint32_t> insn_to_block_;
};

}  // namespace saintdroid
