#include "analysis/guards.hpp"

#include <deque>
#include <unordered_map>

#include "dex/ids.hpp"
#include "support/errors.hpp"

namespace saintdroid {

CmpOp negate_cmp(CmpOp cmp) {
  switch (cmp) {
    case CmpOp::kEq: return CmpOp::kNe;
    case CmpOp::kNe: return CmpOp::kEq;
    case CmpOp::kLt: return CmpOp::kGe;
    case CmpOp::kLe: return CmpOp::kGt;
    case CmpOp::kGt: return CmpOp::kLe;
    case CmpOp::kGe: return CmpOp::kLt;
  }
  SD_EXPECTS(false);
  return CmpOp::kEq;
}

ApiInterval refine_interval(ApiInterval in, CmpOp cmp, std::int32_t literal) {
  if (in.empty()) return in;
  switch (cmp) {
    case CmpOp::kLt:
      return in.intersect(ApiInterval{kMinApiLevel, literal - 1});
    case CmpOp::kLe:
      return in.intersect(ApiInterval{kMinApiLevel, literal});
    case CmpOp::kGt:
      return in.intersect(ApiInterval{literal + 1, kMaxApiLevel});
    case CmpOp::kGe:
      return in.intersect(ApiInterval{literal, kMaxApiLevel});
    case CmpOp::kEq:
      return in.intersect(ApiInterval{literal, literal});
    case CmpOp::kNe:
      // {SDK_INT != k} is not contiguous unless k is an endpoint.
      if (literal == in.lo()) return ApiInterval{in.lo() + 1, in.hi()};
      if (literal == in.hi()) return ApiInterval{in.lo(), in.hi() - 1};
      return in;  // sound over-approximation
  }
  SD_EXPECTS(false);
  return in;
}

namespace {

struct BlockState {
  ApiInterval interval = ApiInterval::empty_interval();
  std::vector<RegFact> regs;
  // Facts about instance fields (keyed by field-ref pool index),
  // object-insensitive. Small: only fields assigned interesting facts.
  std::unordered_map<std::uint32_t, RegFact> fields;
  bool reached = false;
};

/// Join of register facts: keep only agreements. Returns whether `into`
/// changed.
bool join_regs(std::vector<RegFact>& into, const std::vector<RegFact>& from) {
  bool changed = false;
  for (std::size_t i = 0; i < into.size(); ++i) {
    if (into[i] == from[i] || into[i] == RegFact::unknown()) continue;
    into[i] = RegFact::unknown();
    changed = true;
  }
  return changed;
}

/// Join of field facts: keep only entries present and equal on both sides.
void join_fields(std::unordered_map<std::uint32_t, RegFact>& into,
                 const std::unordered_map<std::uint32_t, RegFact>& from) {
  for (auto it = into.begin(); it != into.end();) {
    const auto other = from.find(it->first);
    if (other == from.end() || !(other->second == it->second))
      it = into.erase(it);
    else
      ++it;
  }
}

}  // namespace

GuardResult analyze_guards(const DexFile& dex, const MethodCode& code,
                           const Cfg& cfg, ApiInterval entry,
                           const GuardOptions& options,
                           BudgetTracker* budget,
                           const SdkPredicateLookup* predicates) {
  const auto block_count = cfg.block_count();
  std::vector<BlockState> in_states(block_count);
  const std::size_t reg_count = code.register_count;

  in_states[Cfg::entry()].interval = entry;
  in_states[Cfg::entry()].regs.assign(reg_count, RegFact::unknown());
  in_states[Cfg::entry()].reached = true;

  std::deque<std::uint32_t> worklist{Cfg::entry()};
  std::vector<bool> queued(block_count, false);
  queued[Cfg::entry()] = true;

  // Caps iterations; the lattice is finite so this is belt-and-braces
  // against transfer-function bugs rather than a semantic limit.
  std::size_t iterations = 0;
  const std::size_t iteration_cap = block_count * 64 + 1024;

  const auto propagate =
      [&](std::uint32_t to, ApiInterval interval,
          const std::vector<RegFact>& regs,
          const std::unordered_map<std::uint32_t, RegFact>& fields) {
        BlockState& dst = in_states[to];
        bool changed = false;
        if (!dst.reached) {
          dst.interval = interval;
          dst.regs = regs;
          dst.fields = fields;
          dst.reached = true;
          changed = true;
        } else {
          const ApiInterval merged = dst.interval.hull(interval);
          if (!(merged == dst.interval)) {
            dst.interval = merged;
            changed = true;
          }
          if (join_regs(dst.regs, regs)) changed = true;
          const std::size_t field_count_before = dst.fields.size();
          join_fields(dst.fields, fields);
          if (dst.fields.size() != field_count_before) changed = true;
        }
        if (changed && !queued[to]) {
          worklist.push_back(to);
          queued[to] = true;
        }
      };

  // Transfer through one block body, mutating regs/fields in place. A
  // pending helper-predicate fact set at kInvoke is consumed by the
  // immediately following kMoveResult (Dalvik's move-result adjacency).
  const auto transfer_body = [&](const BasicBlock& block,
                                 std::vector<RegFact>& regs,
                                 std::unordered_map<std::uint32_t, RegFact>&
                                     fields) {
    std::optional<ApiInterval> pending_predicate;
    for (std::uint32_t i = block.first; i <= block.last; ++i) {
      const Instruction& insn = code.insns[i];
      switch (insn.op) {
        case Opcode::kConst:
          if (insn.reg_a < regs.size())
            regs[insn.reg_a] = RegFact::constant(insn.literal);
          break;
        case Opcode::kMove:
          if (insn.reg_a < regs.size() && insn.reg_b < regs.size())
            regs[insn.reg_a] = options.track_registers
                                   ? regs[insn.reg_b]
                                   : RegFact::unknown();
          break;
        case Opcode::kSget:
          if (insn.reg_a < regs.size()) {
            const FieldId field = dex.field_id_at(insn.index);
            regs[insn.reg_a] = field == kSdkIntField ? RegFact::sdk_int()
                                                     : RegFact::unknown();
          }
          break;
        case Opcode::kIput:
          // Cache into an instance field (object-insensitive).
          if (options.track_fields && insn.reg_a < regs.size() &&
              regs[insn.reg_a].kind != RegFact::Kind::kUnknown)
            fields[insn.index] = regs[insn.reg_a];
          else
            fields.erase(insn.index);
          break;
        case Opcode::kIget:
          if (insn.reg_a < regs.size()) {
            const auto it = fields.find(insn.index);
            regs[insn.reg_a] = options.track_fields && it != fields.end()
                                   ? it->second
                                   : RegFact::unknown();
          }
          break;
        case Opcode::kInvoke:
          if (options.enabled && options.track_registers &&
              predicates != nullptr)
            pending_predicate = (*predicates)(insn.index);
          break;
        case Opcode::kMoveResult:
          if (insn.reg_a < regs.size())
            regs[insn.reg_a] = pending_predicate
                                   ? RegFact::predicate(*pending_predicate)
                                   : RegFact::unknown();
          break;
        case Opcode::kConstString:
        case Opcode::kNewInstance:
        case Opcode::kLoadClass:
          if (insn.reg_a < regs.size())
            regs[insn.reg_a] = RegFact::unknown();
          break;
        default:
          break;
      }
      if (insn.op != Opcode::kInvoke) pending_predicate.reset();
    }
  };

  // What a block's terminal branch tells us about the level axis.
  struct EdgeSplit {
    ApiInterval taken;
    ApiInterval fall;
    bool direct = false;  // recognized "SDK_INT <cmp> literal"
    CmpOp cmp = CmpOp::kEq;
    std::int32_t literal = 0;
  };
  // The contiguous complement of a predicate's true-range, when it has one
  // (the range touches an end of the modelled axis); nullopt otherwise.
  const auto complement = [](ApiInterval p) -> std::optional<ApiInterval> {
    if (p.empty()) return ApiInterval::full();
    const bool at_lo = p.lo() <= kMinApiLevel;
    const bool at_hi = p.hi() >= kMaxApiLevel;
    if (at_lo && at_hi) return ApiInterval::empty_interval();
    if (at_lo) return ApiInterval{p.hi() + 1, kMaxApiLevel};
    if (at_hi) return ApiInterval{kMinApiLevel, p.lo() - 1};
    return std::nullopt;
  };
  const auto split_edges = [&](const BasicBlock& block, ApiInterval interval,
                               const std::vector<RegFact>& regs) {
    EdgeSplit split{interval, interval};
    const Instruction& last = code.insns[block.last];
    if (!options.enabled || last.op != Opcode::kIfCmp) return split;
    const auto fact_of = [&](std::uint16_t reg) {
      return reg < regs.size() ? regs[reg] : RegFact::unknown();
    };
    const RegFact lhs = fact_of(last.reg_a);
    // Normalize to the form "SDK_INT <cmp> literal".
    CmpOp cmp = last.cmp;
    std::int32_t literal = 0;
    bool recognized = false;
    if (lhs.kind == RegFact::Kind::kSdkInt) {
      if (last.cmp_with_literal) {
        literal = last.literal;
        recognized = true;
      } else if (options.track_registers) {
        const RegFact rhs = fact_of(last.reg_b);
        if (rhs.kind == RegFact::Kind::kConst) {
          literal = rhs.value;
          recognized = true;
        }
      }
    } else if (!last.cmp_with_literal && options.track_registers &&
               lhs.kind == RegFact::Kind::kConst) {
      const RegFact rhs = fact_of(last.reg_b);
      if (rhs.kind == RegFact::Kind::kSdkInt) {
        // k <cmp> SDK_INT  ==  SDK_INT <mirrored cmp> k
        literal = lhs.value;
        switch (last.cmp) {
          case CmpOp::kLt: cmp = CmpOp::kGt; break;
          case CmpOp::kLe: cmp = CmpOp::kGe; break;
          case CmpOp::kGt: cmp = CmpOp::kLt; break;
          case CmpOp::kGe: cmp = CmpOp::kLe; break;
          default: break;  // eq/ne are symmetric
        }
        recognized = true;
      }
    }
    if (recognized) {
      split.taken = refine_interval(interval, cmp, literal);
      split.fall = refine_interval(interval, negate_cmp(cmp), literal);
      split.direct = true;
      split.cmp = cmp;
      split.literal = literal;
      return split;
    }
    // Helper-predicate branch: the boolean result of an SDK-check helper
    // compared against zero ("if (isAtLeastN()) ..." compiles to a
    // zero-test of the returned flag).
    if (lhs.kind == RegFact::Kind::kPredicate &&
        (last.cmp == CmpOp::kEq || last.cmp == CmpOp::kNe)) {
      const bool vs_zero =
          last.cmp_with_literal
              ? last.literal == 0
              : fact_of(last.reg_b) == RegFact::constant(0);
      if (vs_zero) {
        const ApiInterval true_levels = lhs.predicate_levels();
        const auto false_levels = complement(true_levels);
        // kNe takes the branch when the helper returned true.
        const bool taken_is_true = last.cmp == CmpOp::kNe;
        ApiInterval& true_edge = taken_is_true ? split.taken : split.fall;
        ApiInterval& false_edge = taken_is_true ? split.fall : split.taken;
        true_edge = interval.intersect(true_levels);
        if (false_levels) false_edge = interval.intersect(*false_levels);
      }
    }
    return split;
  };

  // Per-visit working state, reused across visits so the fixpoint does
  // not allocate a register vector per block visit.
  std::vector<RegFact> regs;
  std::unordered_map<std::uint32_t, RegFact> fields;
  while (!worklist.empty() && iterations++ < iteration_cap) {
    if (budget && !budget->allow_step()) {
      // Budget exhausted mid-fixpoint: degrade soundly by widening every
      // block to the entry context — guards stop refining, call sites
      // stay visible, and the caller flags the report incomplete.
      GuardResult widened;
      widened.block_intervals.assign(block_count, entry);
      return widened;
    }
    const auto b = worklist.front();
    worklist.pop_front();
    queued[b] = false;

    const BasicBlock& block = cfg.block(b);
    ApiInterval interval = in_states[b].interval;
    regs = in_states[b].regs;
    fields = in_states[b].fields;

    transfer_body(block, regs, fields);
    const EdgeSplit split = split_edges(block, interval, regs);

    if (block.taken != kNoBlock)
      propagate(block.taken, split.taken, regs, fields);
    if (block.fallthrough != kNoBlock)
      propagate(block.fallthrough, split.fall, regs, fields);
  }

  GuardResult result;
  result.block_intervals.reserve(block_count);
  for (const auto& state : in_states)
    result.block_intervals.push_back(
        state.reached ? state.interval : ApiInterval::empty_interval());

  // Post-fixpoint replay over reached blocks: re-run each body transfer on
  // the final in-state and record every recognized direct SDK_INT
  // comparison, in block (= instruction) order. Replaying after the
  // fixpoint — rather than collecting during it — sees each branch exactly
  // once, with its final register facts.
  if (options.enabled) {
    for (std::uint32_t b = 0; b < block_count; ++b) {
      if (!in_states[b].reached) continue;
      const BasicBlock& block = cfg.block(b);
      if (code.insns[block.last].op != Opcode::kIfCmp) continue;
      regs = in_states[b].regs;
      fields = in_states[b].fields;
      transfer_body(block, regs, fields);
      const EdgeSplit split = split_edges(block, in_states[b].interval, regs);
      if (split.direct)
        result.checks.push_back({block.last, split.cmp, split.literal});
    }
  }
  return result;
}

}  // namespace saintdroid
