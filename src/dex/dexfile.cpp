#include "dex/dexfile.hpp"

#include <unordered_map>

#include "support/bytes.hpp"
#include "support/errors.hpp"
#include "support/faults.hpp"

namespace saintdroid {

namespace {

constexpr std::uint32_t kMagic = 0x58454453;  // "SDEX" little-endian
constexpr std::uint32_t kVersion = 1;

// Encoded opcode layouts. Each instruction starts with one opcode byte;
// operands follow in a fixed per-opcode order using ULEB128 for indices and
// SLEB128 for literals.
void encode_insn(ByteWriter& w, const Instruction& insn) {
  w.u8(static_cast<std::uint8_t>(insn.op));
  switch (insn.op) {
    case Opcode::kNop:
    case Opcode::kReturnVoid:
      break;
    case Opcode::kConst:
      w.uleb(insn.reg_a);
      w.sleb(insn.literal);
      break;
    case Opcode::kConstString:
    case Opcode::kSget:
    case Opcode::kSput:
    case Opcode::kNewInstance:
    case Opcode::kLoadClass:
      w.uleb(insn.reg_a);
      w.uleb(insn.index);
      break;
    case Opcode::kMove:
      w.uleb(insn.reg_a);
      w.uleb(insn.reg_b);
      break;
    case Opcode::kIget:
    case Opcode::kIput:
      w.uleb(insn.reg_a);
      w.uleb(insn.reg_b);
      w.uleb(insn.index);
      break;
    case Opcode::kIfCmp:
      w.u8(static_cast<std::uint8_t>(insn.cmp));
      w.u8(insn.cmp_with_literal ? 1 : 0);
      w.uleb(insn.reg_a);
      if (insn.cmp_with_literal)
        w.sleb(insn.literal);
      else
        w.uleb(insn.reg_b);
      w.uleb(insn.target);
      break;
    case Opcode::kGoto:
      w.uleb(insn.target);
      break;
    case Opcode::kInvoke:
      w.u8(static_cast<std::uint8_t>(insn.invoke_kind));
      w.uleb(insn.index);
      w.uleb(insn.args.size());
      for (const auto reg : insn.args) w.uleb(reg);
      break;
    case Opcode::kMoveResult:
    case Opcode::kThrow:
    case Opcode::kReturn:
      w.uleb(insn.reg_a);
      break;
  }
}

// Decodes one instruction straight into a new element of `out`.
void decode_insn(ByteReader& r, std::vector<Instruction>& out) {
  const auto raw_op = r.u8();
  if (raw_op > static_cast<std::uint8_t>(Opcode::kReturn))
    throw ParseError("unknown opcode " + std::to_string(raw_op));
  Instruction& insn = out.emplace_back();
  insn.op = static_cast<Opcode>(raw_op);
  switch (insn.op) {
    case Opcode::kNop:
    case Opcode::kReturnVoid:
      break;
    case Opcode::kConst:
      insn.reg_a = static_cast<std::uint16_t>(r.uleb());
      insn.literal = static_cast<std::int32_t>(r.sleb());
      break;
    case Opcode::kConstString:
    case Opcode::kSget:
    case Opcode::kSput:
    case Opcode::kNewInstance:
    case Opcode::kLoadClass:
      insn.reg_a = static_cast<std::uint16_t>(r.uleb());
      insn.index = static_cast<std::uint32_t>(r.uleb());
      break;
    case Opcode::kMove:
      insn.reg_a = static_cast<std::uint16_t>(r.uleb());
      insn.reg_b = static_cast<std::uint16_t>(r.uleb());
      break;
    case Opcode::kIget:
    case Opcode::kIput:
      insn.reg_a = static_cast<std::uint16_t>(r.uleb());
      insn.reg_b = static_cast<std::uint16_t>(r.uleb());
      insn.index = static_cast<std::uint32_t>(r.uleb());
      break;
    case Opcode::kIfCmp: {
      const auto raw_cmp = r.u8();
      if (raw_cmp > static_cast<std::uint8_t>(CmpOp::kGe))
        throw ParseError("unknown comparison op");
      insn.cmp = static_cast<CmpOp>(raw_cmp);
      insn.cmp_with_literal = r.u8() != 0;
      insn.reg_a = static_cast<std::uint16_t>(r.uleb());
      if (insn.cmp_with_literal)
        insn.literal = static_cast<std::int32_t>(r.sleb());
      else
        insn.reg_b = static_cast<std::uint16_t>(r.uleb());
      insn.target = static_cast<std::uint32_t>(r.uleb());
      break;
    }
    case Opcode::kGoto:
      insn.target = static_cast<std::uint32_t>(r.uleb());
      break;
    case Opcode::kInvoke: {
      const auto raw_kind = r.u8();
      if (raw_kind > static_cast<std::uint8_t>(InvokeKind::kInterface))
        throw ParseError("unknown invoke kind");
      insn.invoke_kind = static_cast<InvokeKind>(raw_kind);
      insn.index = static_cast<std::uint32_t>(r.uleb());
      const auto argc = r.uleb();
      if (argc > 255) throw ParseError("invoke with too many arguments");
      insn.args.reserve(argc);
      for (std::uint64_t i = 0; i < argc; ++i)
        insn.args.push_back(static_cast<std::uint16_t>(r.uleb()));
      break;
    }
    case Opcode::kMoveResult:
    case Opcode::kThrow:
    case Opcode::kReturn:
      insn.reg_a = static_cast<std::uint16_t>(r.uleb());
      break;
  }
}

}  // namespace

const std::string& DexFile::string_at(std::uint32_t idx) const {
  SD_EXPECTS(idx < strings_.size());
  return strings_[idx];
}

const std::string& DexFile::type_name(std::uint32_t idx) const {
  SD_EXPECTS(idx < types_.size());
  return strings_[types_[idx]];
}

const Proto& DexFile::proto_at(std::uint32_t idx) const {
  SD_EXPECTS(idx < protos_.size());
  return protos_[idx];
}

const MethodRef& DexFile::method_ref_at(std::uint32_t idx) const {
  SD_EXPECTS(idx < method_refs_.size());
  return method_refs_[idx];
}

const FieldRef& DexFile::field_ref_at(std::uint32_t idx) const {
  SD_EXPECTS(idx < field_refs_.size());
  return field_refs_[idx];
}

std::string DexFile::descriptor_of(std::uint32_t proto_idx) const {
  const Proto& proto = proto_at(proto_idx);
  // Primitive type names are single letters, array types arrive already in
  // descriptor form ("[Ljava/lang/String;"), and reference types get L...;
  const auto append_type = [this](std::string& out, std::uint32_t idx) {
    const std::string& name = type_name(idx);
    if (name.size() == 1 || name.front() == '[')
      out += name;
    else {
      out += 'L';
      out += name;
      out += ';';
    }
  };
  std::string out = "(";
  for (const auto param : proto.param_types) append_type(out, param);
  out += ')';
  append_type(out, proto.return_type);
  return out;
}

MethodId DexFile::method_id(const MethodRef& ref) const {
  MethodId id;
  id.class_name = type_name(ref.class_type);
  id.name = string_at(ref.name);
  // Locate the proto index to build the descriptor. MethodRef stores the
  // proto pool index directly.
  id.descriptor = descriptor_of(ref.proto);
  return id;
}

MethodId DexFile::method_id_at(std::uint32_t method_ref_idx) const {
  return method_id(method_ref_at(method_ref_idx));
}

FieldId DexFile::field_id(const FieldRef& ref) const {
  FieldId id;
  id.class_name = type_name(ref.class_type);
  id.name = string_at(ref.name);
  id.type = type_name(ref.type);
  return id;
}

FieldId DexFile::field_id_at(std::uint32_t field_ref_idx) const {
  return field_id(field_ref_at(field_ref_idx));
}

MethodId DexFile::method_id(const ClassDef& cls, const MethodDef& method) const {
  MethodId id;
  id.class_name = type_name(cls.type);
  id.name = string_at(method.name);
  id.descriptor = descriptor_of(method.proto);
  return id;
}

const ClassDef* DexFile::find_class(std::string_view internal_name) const {
  for (const auto& cls : class_defs_)
    if (type_name(cls.type) == internal_name) return &cls;
  return nullptr;
}

std::uint64_t DexFile::instruction_count() const {
  std::uint64_t n = 0;
  for (const auto& cls : class_defs_)
    for (const auto& m : cls.methods)
      if (m.code) n += m.code->insns.size();
  return n;
}

std::uint64_t DexFile::footprint_bytes() const {
  namespace size = modelled_size;
  std::uint64_t bytes = 0;
  for (const auto& s : strings_) bytes += s.size() + size::kString;
  bytes += types_.size() * sizeof(std::uint32_t);
  for (const auto& p : protos_)
    bytes += size::kProto + p.param_types.size() * sizeof(std::uint32_t);
  bytes += method_refs_.size() * size::kMethodRef;
  bytes += field_refs_.size() * size::kFieldRef;
  for (const auto& cls : class_defs_) {
    bytes += size::kClassDef + cls.interfaces.size() * sizeof(std::uint32_t);
    for (const auto& m : cls.methods) {
      bytes += size::kMethodDef;
      if (m.code) {
        bytes += size::kMethodCode;
        for (const auto& insn : m.code->insns)
          bytes += size::kInstruction +
                   insn.args.size() * sizeof(std::uint16_t);
      }
    }
  }
  return bytes;
}

std::vector<std::uint8_t> DexFile::serialize() const {
  ByteWriter w;
  w.u32(kMagic);
  w.u32(kVersion);

  w.uleb(strings_.size());
  for (const auto& s : strings_) w.str(s);

  w.uleb(types_.size());
  for (const auto t : types_) w.uleb(t);

  w.uleb(protos_.size());
  for (const auto& p : protos_) {
    w.uleb(p.return_type);
    w.uleb(p.param_types.size());
    for (const auto t : p.param_types) w.uleb(t);
  }

  w.uleb(method_refs_.size());
  for (const auto& m : method_refs_) {
    w.uleb(m.class_type);
    w.uleb(m.name);
    w.uleb(m.proto);
  }

  w.uleb(field_refs_.size());
  for (const auto& f : field_refs_) {
    w.uleb(f.class_type);
    w.uleb(f.name);
    w.uleb(f.type);
  }

  w.uleb(class_defs_.size());
  for (const auto& cls : class_defs_) {
    w.uleb(cls.type);
    w.uleb(cls.super_type == kNoIndex ? 0 : cls.super_type + 1);
    w.uleb(cls.interfaces.size());
    for (const auto i : cls.interfaces) w.uleb(i);
    w.uleb(cls.access_flags);
    w.uleb(cls.methods.size());
    for (const auto& m : cls.methods) {
      w.uleb(m.name);
      w.uleb(m.proto);
      w.uleb(m.access_flags);
      w.u8(m.code ? 1 : 0);
      if (m.code) {
        w.uleb(m.code->register_count);
        w.uleb(m.code->insns.size());
        for (const auto& insn : m.code->insns) encode_insn(w, insn);
      }
    }
  }
  return w.take();
}

DexFile DexFile::parse(std::span<const std::uint8_t> bytes) {
  SD_FAULT_POINT("dex.parse");
  ByteReader r{bytes};
  if (r.u32() != kMagic) throw ParseError("bad SDEX magic");
  if (r.u32() != kVersion) throw ParseError("unsupported SDEX version");

  DexFile dex;

  const auto string_count = r.count();
  dex.strings_.reserve(string_count);
  for (std::uint64_t i = 0; i < string_count; ++i)
    dex.strings_.push_back(r.str());

  const auto type_count = r.count();
  dex.types_.reserve(type_count);
  for (std::uint64_t i = 0; i < type_count; ++i)
    dex.types_.push_back(static_cast<std::uint32_t>(r.uleb()));

  const auto proto_count = r.count();
  dex.protos_.reserve(proto_count);
  for (std::uint64_t i = 0; i < proto_count; ++i) {
    Proto& p = dex.protos_.emplace_back();
    p.return_type = static_cast<std::uint32_t>(r.uleb());
    const auto params = r.count();
    p.param_types.reserve(params);
    for (std::uint64_t j = 0; j < params; ++j)
      p.param_types.push_back(static_cast<std::uint32_t>(r.uleb()));
  }

  const auto method_count = r.count();
  dex.method_refs_.reserve(method_count);
  for (std::uint64_t i = 0; i < method_count; ++i) {
    MethodRef& m = dex.method_refs_.emplace_back();
    m.class_type = static_cast<std::uint32_t>(r.uleb());
    m.name = static_cast<std::uint32_t>(r.uleb());
    m.proto = static_cast<std::uint32_t>(r.uleb());
  }

  const auto field_count = r.count();
  dex.field_refs_.reserve(field_count);
  for (std::uint64_t i = 0; i < field_count; ++i) {
    FieldRef& f = dex.field_refs_.emplace_back();
    f.class_type = static_cast<std::uint32_t>(r.uleb());
    f.name = static_cast<std::uint32_t>(r.uleb());
    f.type = static_cast<std::uint32_t>(r.uleb());
  }

  // Class defs, methods and instructions are decoded in place in their
  // final containers.
  const auto class_count = r.count();
  dex.class_defs_.reserve(class_count);
  for (std::uint64_t i = 0; i < class_count; ++i) {
    ClassDef& cls = dex.class_defs_.emplace_back();
    cls.type = static_cast<std::uint32_t>(r.uleb());
    const auto super_plus_one = r.uleb();
    cls.super_type = super_plus_one == 0
                         ? kNoIndex
                         : static_cast<std::uint32_t>(super_plus_one - 1);
    const auto iface_count = r.count();
    cls.interfaces.reserve(iface_count);
    for (std::uint64_t j = 0; j < iface_count; ++j)
      cls.interfaces.push_back(static_cast<std::uint32_t>(r.uleb()));
    cls.access_flags = static_cast<std::uint32_t>(r.uleb());
    const auto method_defs = r.count();
    cls.methods.reserve(method_defs);
    for (std::uint64_t j = 0; j < method_defs; ++j) {
      MethodDef& m = cls.methods.emplace_back();
      m.name = static_cast<std::uint32_t>(r.uleb());
      m.proto = static_cast<std::uint32_t>(r.uleb());
      m.access_flags = static_cast<std::uint32_t>(r.uleb());
      if (r.u8() != 0) {
        MethodCode& code = m.code.emplace();
        code.register_count = static_cast<std::uint16_t>(r.uleb());
        const auto insns = r.count();
        code.insns.reserve(insns);
        for (std::uint64_t k = 0; k < insns; ++k) decode_insn(r, code.insns);
      }
    }
  }

  if (!r.at_end()) throw ParseError("trailing bytes after class defs");
  dex.validate();
  return dex;
}

void DexFile::validate() const {
  const auto check = [](bool ok, const char* what) {
    if (!ok) throw ParseError(what);
  };

  for (const auto t : types_)
    check(t < strings_.size(), "type name index out of range");
  for (const auto& p : protos_) {
    check(p.return_type < types_.size(), "proto return type out of range");
    for (const auto t : p.param_types)
      check(t < types_.size(), "proto param type out of range");
  }
  for (const auto& m : method_refs_) {
    check(m.class_type < types_.size(), "method ref class out of range");
    check(m.name < strings_.size(), "method ref name out of range");
    check(m.proto < protos_.size(), "method ref proto out of range");
  }
  for (const auto& f : field_refs_) {
    check(f.class_type < types_.size(), "field ref class out of range");
    check(f.name < strings_.size(), "field ref name out of range");
    check(f.type < types_.size(), "field ref type out of range");
  }
  for (const auto& cls : class_defs_) {
    check(cls.type < types_.size(), "class type out of range");
    check(cls.super_type == kNoIndex || cls.super_type < types_.size(),
          "superclass type out of range");
    for (const auto i : cls.interfaces)
      check(i < types_.size(), "interface type out of range");
    for (const auto& m : cls.methods) {
      check(m.name < strings_.size(), "method name out of range");
      check(m.proto < protos_.size(), "method proto out of range");
      if (!m.code) continue;
      const auto insn_count = m.code->insns.size();
      for (const auto& insn : m.code->insns) {
        switch (insn.op) {
          case Opcode::kConstString:
            check(insn.index < strings_.size(), "string index out of range");
            break;
          case Opcode::kSget:
          case Opcode::kSput:
          case Opcode::kIget:
          case Opcode::kIput:
            check(insn.index < field_refs_.size(),
                  "field ref index out of range");
            break;
          case Opcode::kInvoke:
            check(insn.index < method_refs_.size(),
                  "method ref index out of range");
            break;
          case Opcode::kNewInstance:
          case Opcode::kLoadClass:
            check(insn.index < types_.size(), "type index out of range");
            break;
          case Opcode::kIfCmp:
          case Opcode::kGoto:
            check(insn.target < insn_count, "branch target out of range");
            break;
          default:
            break;
        }
      }
    }
  }
}

}  // namespace saintdroid
