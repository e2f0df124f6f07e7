// The SDEX container: pools, class definitions, and (de)serialization.
//
// An SDEX file mirrors the structure of a Dalvik DEX file at the level the
// compatibility analyses care about: a string pool, a type pool (indices
// into strings), a prototype pool (return + parameter types), method and
// field reference pools, and a list of class definitions whose methods
// carry register-based code. All cross-references are pool indices and are
// range-validated during parse, so a DexFile that exists is well-formed.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dex/ids.hpp"
#include "dex/instruction.hpp"

namespace saintdroid {

/// Sentinel "no index" value for optional pool references (e.g. the
/// superclass of java/lang/Object).
inline constexpr std::uint32_t kNoIndex = 0xffffffffu;

// Method/class access flags (subset of the Dalvik set that the analyses
// consult).
inline constexpr std::uint32_t kAccPublic = 0x0001;
inline constexpr std::uint32_t kAccPrivate = 0x0002;
inline constexpr std::uint32_t kAccProtected = 0x0004;
inline constexpr std::uint32_t kAccStatic = 0x0008;
inline constexpr std::uint32_t kAccInterface = 0x0200;
inline constexpr std::uint32_t kAccAbstract = 0x0400;
inline constexpr std::uint32_t kAccNative = 0x0100;
inline constexpr std::uint32_t kAccSynthetic = 0x1000;

/// Modelled in-memory sizes, in bytes, that the memory meter charges per
/// decoded structure (DexFile::footprint_bytes, class_footprint_bytes).
/// They are the x86-64 libstdc++ layout sizes the model was calibrated on,
/// fixed rather than taken from sizeof, so the peak_bytes in every journal
/// row stays put when the decoded layout or the toolchain changes.
namespace modelled_size {
inline constexpr std::uint64_t kInstruction = 48;
inline constexpr std::uint64_t kMethodCode = 32;
inline constexpr std::uint64_t kMethodDef = 56;
inline constexpr std::uint64_t kClassDef = 64;
inline constexpr std::uint64_t kProto = 32;
inline constexpr std::uint64_t kMethodRef = 12;
inline constexpr std::uint64_t kFieldRef = 12;
inline constexpr std::uint64_t kString = 32;  ///< std::string, excluding text
}  // namespace modelled_size

/// Method prototype: return type + parameter types, as type-pool indices.
struct Proto {
  std::uint32_t return_type = kNoIndex;
  std::vector<std::uint32_t> param_types;
};

/// Symbolic reference to a method of some class (possibly external).
struct MethodRef {
  std::uint32_t class_type = kNoIndex;  ///< type pool index
  std::uint32_t name = kNoIndex;        ///< string pool index
  std::uint32_t proto = kNoIndex;       ///< proto pool index
};

/// Symbolic reference to a field of some class.
struct FieldRef {
  std::uint32_t class_type = kNoIndex;
  std::uint32_t name = kNoIndex;
  std::uint32_t type = kNoIndex;  ///< type pool index of the field type
};

/// Executable body of a method.
struct MethodCode {
  std::uint16_t register_count = 0;
  std::vector<Instruction> insns;
};

/// A method definition inside a class def.
struct MethodDef {
  std::uint32_t name = kNoIndex;   ///< string pool index
  std::uint32_t proto = kNoIndex;  ///< proto pool index
  std::uint32_t access_flags = kAccPublic;
  std::optional<MethodCode> code;  ///< absent for abstract/native methods
};

/// A class definition.
struct ClassDef {
  std::uint32_t type = kNoIndex;        ///< type pool index of this class
  std::uint32_t super_type = kNoIndex;  ///< kNoIndex for root classes
  std::vector<std::uint32_t> interfaces;
  std::uint32_t access_flags = kAccPublic;
  std::vector<MethodDef> methods;
};

/// An immutable, validated SDEX container.
///
/// Construct through DexBuilder (authoring), FrameworkImagePlan (framework
/// images) or parse() (decoding bytes); all paths produce the same
/// in-memory form, and serialize() ∘ parse() round-trips exactly.
class DexFile {
 public:
  // -- pool access ---------------------------------------------------------
  const std::string& string_at(std::uint32_t idx) const;
  /// Slashed internal name of the type at `idx`.
  const std::string& type_name(std::uint32_t idx) const;
  const Proto& proto_at(std::uint32_t idx) const;
  const MethodRef& method_ref_at(std::uint32_t idx) const;
  const FieldRef& field_ref_at(std::uint32_t idx) const;

  std::span<const ClassDef> classes() const { return class_defs_; }

  std::size_t string_count() const { return strings_.size(); }
  std::size_t type_count() const { return types_.size(); }
  std::size_t proto_count() const { return protos_.size(); }
  std::size_t method_ref_count() const { return method_refs_.size(); }
  std::size_t field_ref_count() const { return field_refs_.size(); }

  // -- symbolic resolution helpers ------------------------------------------
  /// Builds the JVM descriptor string "(..)ret" for a proto pool entry.
  std::string descriptor_of(std::uint32_t proto_idx) const;

  /// Full identity of a method reference.
  MethodId method_id(const MethodRef& ref) const;
  MethodId method_id_at(std::uint32_t method_ref_idx) const;

  /// Full identity of a field reference.
  FieldId field_id(const FieldRef& ref) const;
  FieldId field_id_at(std::uint32_t field_ref_idx) const;

  /// Identity of a method *definition* inside a given class def.
  MethodId method_id(const ClassDef& cls, const MethodDef& method) const;

  /// Finds a class def by internal name; nullptr when absent.
  const ClassDef* find_class(std::string_view internal_name) const;

  // -- size metrics ----------------------------------------------------------
  /// Total instruction count across all method bodies; our stand-in for
  /// "lines of Dex code" when sizing apps (paper §IV-A).
  std::uint64_t instruction_count() const;

  /// Approximate in-memory footprint in bytes (used by the memory meter).
  std::uint64_t footprint_bytes() const;

  // -- (de)serialization -----------------------------------------------------
  std::vector<std::uint8_t> serialize() const;

  /// Decodes and fully validates a container; throws ParseError on any
  /// structural defect.
  static DexFile parse(std::span<const std::uint8_t> bytes);

 private:
  friend class DexBuilder;
  friend class DexParser;
  friend class FrameworkImagePlan;

  void validate() const;

  std::vector<std::string> strings_;
  std::vector<std::uint32_t> types_;  // indices into strings_
  std::vector<Proto> protos_;
  std::vector<MethodRef> method_refs_;
  std::vector<FieldRef> field_refs_;
  std::vector<ClassDef> class_defs_;
};

}  // namespace saintdroid
