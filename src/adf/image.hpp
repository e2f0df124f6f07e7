// Per-level framework image emission.
//
// Given the framework spec and an API level, emits the framework as it
// exists at that level into a single SDEX container: only classes and
// methods alive at the level are present, permission enforcement appears as
// real bytecode (const-string + enforcePermission call), framework-internal
// calls appear as invoke instructions, and every class with callbacks gets
// a dispatcher method that virtually invokes them — the signal ARM mines
// for automatic callback discovery.
//
// Emission is split in two. FrameworkImagePlan compiles the spec once:
// every string, type, proto and method reference gets a dense global id,
// and every liveness question an image asks (is this class, superclass,
// interface, call target alive?) is resolved to a bitmask over levels.
// emit(level) is then one linear pass that maps global ids to the level's
// pool indices through dense arrays, assigning them in first-use order.
// That order is the contract: each level's image is byte-identical to the
// one the DexBuilder-based emitter produced (tests/test_adf.cpp pins the
// digests).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "adf/spec.hpp"
#include "dex/dexfile.hpp"

namespace saintdroid {

/// A framework spec compiled for per-level image emission. Immutable after
/// construction; emit() keeps all per-level state local, so any number of
/// threads may emit different levels concurrently.
class FrameworkImagePlan {
 public:
  /// Compiles `spec`. The plan refers to the spec's strings, so `spec`
  /// must outlive the plan.
  explicit FrameworkImagePlan(const FrameworkSpec& spec);
  explicit FrameworkImagePlan(const FrameworkSpec&& spec) = delete;

  /// Emits the framework image for `level` (must be within the modelled
  /// range). Deterministic: equal inputs produce identical containers.
  DexFile emit(int level) const;

 private:
  /// Bit L is set iff the element exists at API level L.
  using LevelMask = std::uint32_t;

  struct ProtoIds {
    std::uint32_t return_type;  ///< type id
    std::uint32_t first_param;  ///< start of the param type ids in params_
    std::uint32_t param_count;
  };
  struct MethodRefIds {
    std::uint32_t class_type;  ///< type id
    std::uint32_t name;        ///< string id
    std::uint32_t proto;       ///< proto id
  };
  struct Iface {
    LevelMask live;
    std::uint32_t type;
  };
  struct Call {
    LevelMask live;  ///< target class and a same-signature method alive
    std::uint32_t method_ref;
    InvokeKind kind;
  };
  struct Method {
    LevelMask live;
    std::uint32_t name;   ///< string id
    std::uint32_t proto;  ///< proto id
    std::uint32_t access_flags;
    std::uint32_t permission;  ///< string id, kNoIndex for none
    std::uint32_t self_ref;    ///< this method's ref id; callbacks only
    std::uint32_t first_call;  ///< start of this method's calls in calls_
    std::uint32_t call_count;
    bool callback;
    bool returns_void;
  };
  struct Class {
    LevelMask live;
    LevelMask super_live;  ///< where the declared superclass is alive
    std::uint32_t type;
    std::uint32_t super;  ///< declared super type id; kNoIndex for none
    std::uint32_t access_flags;
    std::uint32_t first_iface;
    std::uint32_t iface_count;
    std::uint32_t first_method;
    std::uint32_t method_count;
    bool is_interface;
  };

  // Global pools, indexed by global id.
  std::vector<std::string_view> strings_;
  std::vector<std::uint32_t> type_names_;  ///< type id -> string id
  std::vector<ProtoIds> protos_;
  std::vector<std::uint32_t> params_;  ///< proto param type ids, flattened
  std::vector<MethodRefIds> method_refs_;
  // The spec, in spec order, with liveness resolved.
  std::vector<Class> classes_;
  std::vector<Iface> ifaces_;
  std::vector<Method> methods_;
  std::vector<Call> calls_;
  std::uint32_t object_type_ = kNoIndex;
  std::uint32_t enforcer_ref_ = kNoIndex;
  std::uint32_t dispatcher_name_ = kNoIndex;
  std::uint32_t dispatcher_proto_ = kNoIndex;
};

/// Emits the framework image for `level` (must be within the modelled
/// range): FrameworkImagePlan{spec}.emit(level).
DexFile emit_framework_image(const FrameworkSpec& spec, int level);

}  // namespace saintdroid
