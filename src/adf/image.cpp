#include "adf/image.hpp"

#include <array>
#include <span>
#include <string>
#include <unordered_map>

#include "support/errors.hpp"

namespace saintdroid {

namespace {

static_assert(kMaxApiLevel < 32, "a LevelMask holds one bit per level");

std::uint32_t level_mask(const Lifecycle& life) {
  std::uint32_t mask = 0;
  for (int level = kMinApiLevel; level <= kMaxApiLevel; ++level)
    if (life.exists_at(level)) mask |= 1u << level;
  return mask;
}

/// Exact hash key over a sequence of global ids (no separators to collide).
std::string id_key(std::span<const std::uint32_t> ids) {
  return std::string(reinterpret_cast<const char*>(ids.data()),
                     ids.size() * sizeof(std::uint32_t));
}

/// One level's global id -> pool index map, assigned densely in first-use
/// order.
struct Remap {
  explicit Remap(std::size_t global_count) : index(global_count, kNoIndex) {}

  /// Assigns `id` the next pool index; true only on its first use.
  bool first_use(std::uint32_t id) {
    if (index[id] != kNoIndex) return false;
    index[id] = static_cast<std::uint32_t>(order.size());
    order.push_back(id);
    return true;
  }

  std::vector<std::uint32_t> index;  ///< global id -> pool index
  std::vector<std::uint32_t> order;  ///< pool index -> global id
};

/// The permission enforcer's parameter list. Static: the plan keeps views
/// of every string it interns.
const std::vector<std::string>& enforcer_params() {
  static const std::vector<std::string> params{"java/lang/String"};
  return params;
}

}  // namespace

FrameworkImagePlan::FrameworkImagePlan(const FrameworkSpec& spec) {
  std::unordered_map<std::string_view, std::uint32_t> string_ids;
  std::unordered_map<std::string_view, std::uint32_t> type_ids;
  std::unordered_map<std::string, std::uint32_t> proto_ids;
  std::unordered_map<std::string, std::uint32_t> method_ids;

  const auto string_id = [&](std::string_view s) {
    const auto [it, fresh] = string_ids.try_emplace(
        s, static_cast<std::uint32_t>(strings_.size()));
    if (fresh) strings_.push_back(s);
    return it->second;
  };
  const auto type_id = [&](std::string_view name) {
    const auto [it, fresh] = type_ids.try_emplace(
        name, static_cast<std::uint32_t>(type_names_.size()));
    if (fresh) type_names_.push_back(string_id(name));
    return it->second;
  };
  const auto proto_id = [&](std::string_view return_type,
                            const std::vector<std::string>& params) {
    std::vector<std::uint32_t> ids{type_id(return_type)};
    for (const auto& p : params) ids.push_back(type_id(p));
    const auto [it, fresh] = proto_ids.try_emplace(
        id_key(ids), static_cast<std::uint32_t>(protos_.size()));
    if (fresh) {
      protos_.push_back({ids.front(),
                         static_cast<std::uint32_t>(params_.size()),
                         static_cast<std::uint32_t>(params.size())});
      params_.insert(params_.end(), ids.begin() + 1, ids.end());
    }
    return it->second;
  };
  const auto method_ref_id = [&](std::string_view cls, std::string_view name,
                                 std::string_view return_type,
                                 const std::vector<std::string>& params) {
    const MethodRefIds ref{type_id(cls), string_id(name),
                           proto_id(return_type, params)};
    const std::array<std::uint32_t, 3> ids{ref.class_type, ref.name,
                                           ref.proto};
    const auto [it, fresh] = method_ids.try_emplace(
        id_key(ids), static_cast<std::uint32_t>(method_refs_.size()));
    if (fresh) method_refs_.push_back(ref);
    return it->second;
  };

  // Name lookups resolve to the first class of that name, as a spec with a
  // duplicated class is read everywhere else.
  std::unordered_map<std::string_view, const ClassSpec*> by_name;
  by_name.reserve(spec.classes.size());
  for (const auto& cls : spec.classes) by_name.emplace(cls.name, &cls);
  const auto class_live = [&](const std::string& name) -> LevelMask {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0 : level_mask(it->second->life);
  };
  // A call's target is alive where its class and some method of the same
  // name and parameters (any return type) both are.
  const auto call_live = [&](const CallSpec& call) -> LevelMask {
    const auto it = by_name.find(call.cls);
    if (it == by_name.end()) return 0;
    LevelMask methods = 0;
    for (const auto& m : it->second->methods)
      if (m.name == call.name && m.params == call.params)
        methods |= level_mask(m.life);
    return level_mask(it->second->life) & methods;
  };

  object_type_ = type_id("java/lang/Object");
  enforcer_ref_ = method_ref_id(kPermissionEnforcerClass,
                                kPermissionEnforcerMethod, "V",
                                enforcer_params());
  dispatcher_name_ = string_id(kCallbackDispatcherName);
  dispatcher_proto_ = proto_id("V", {});

  classes_.reserve(spec.classes.size());
  for (const auto& cls : spec.classes) {
    Class& c = classes_.emplace_back();
    c.live = level_mask(cls.life);
    c.type = type_id(cls.name);
    c.is_interface = cls.is_interface;
    // A class can outlive its declared superclass in a mis-specified spec;
    // emit() degrades it to Object where the superclass is dead.
    c.super = cls.is_interface || cls.super.empty() ? kNoIndex
                                                    : type_id(cls.super);
    c.super_live = c.super == kNoIndex ? 0 : class_live(cls.super);
    c.access_flags =
        kAccPublic | (cls.is_interface ? kAccInterface | kAccAbstract : 0);

    c.first_iface = static_cast<std::uint32_t>(ifaces_.size());
    for (const auto& iface : cls.interfaces)
      ifaces_.push_back({class_live(iface), type_id(iface)});
    c.iface_count = static_cast<std::uint32_t>(ifaces_.size()) - c.first_iface;

    c.first_method = static_cast<std::uint32_t>(methods_.size());
    for (const auto& m : cls.methods) {
      Method& mp = methods_.emplace_back();
      mp.live = level_mask(m.life);
      mp.name = string_id(m.name);
      mp.proto = proto_id(m.return_type, m.params);
      mp.callback = m.callback;
      mp.returns_void = m.return_type == "V";
      mp.self_ref = m.callback ? method_ref_id(cls.name, m.name,
                                               m.return_type, m.params)
                               : kNoIndex;
      mp.first_call = static_cast<std::uint32_t>(calls_.size());
      mp.permission = kNoIndex;
      if (cls.is_interface) {
        // Interface methods are abstract: no permission check, no calls.
        mp.access_flags = kAccPublic | kAccAbstract;
      } else {
        mp.access_flags = kAccPublic | (m.is_static ? kAccStatic : 0);
        if (!m.permission.empty()) mp.permission = string_id(m.permission);
        for (const auto& call : m.calls)
          calls_.push_back(
              {call_live(call),
               method_ref_id(call.cls, call.name, call.return_type,
                             call.params),
               call.is_static ? InvokeKind::kStatic : InvokeKind::kVirtual});
      }
      mp.call_count = static_cast<std::uint32_t>(calls_.size()) - mp.first_call;
    }
    c.method_count =
        static_cast<std::uint32_t>(methods_.size()) - c.first_method;
  }
}

DexFile FrameworkImagePlan::emit(int level) const {
  SD_EXPECTS(level >= kMinApiLevel && level <= kMaxApiLevel);
  const LevelMask at = 1u << level;

  // Interning mirrors DexBuilder: a type's first use interns its name, a
  // proto's its return then parameter types, a method ref's its class,
  // name and proto — so each pool fills in the same first-use order.
  Remap strings{strings_.size()};
  Remap types{type_names_.size()};
  Remap protos{protos_.size()};
  Remap refs{method_refs_.size()};
  const auto intern_string = [&](std::uint32_t id) {
    strings.first_use(id);
    return strings.index[id];
  };
  const auto intern_type = [&](std::uint32_t id) {
    if (types.first_use(id)) strings.first_use(type_names_[id]);
    return types.index[id];
  };
  const auto intern_proto = [&](std::uint32_t id) {
    if (protos.first_use(id)) {
      const ProtoIds& p = protos_[id];
      intern_type(p.return_type);
      for (std::uint32_t i = 0; i < p.param_count; ++i)
        intern_type(params_[p.first_param + i]);
    }
    return protos.index[id];
  };
  const auto intern_method = [&](std::uint32_t id) {
    if (refs.first_use(id)) {
      const MethodRefIds& ref = method_refs_[id];
      intern_type(ref.class_type);
      intern_string(ref.name);
      intern_proto(ref.proto);
    }
    return refs.index[id];
  };

  DexFile dex;
  std::size_t live_classes = 0;
  for (const Class& c : classes_) live_classes += (c.live & at) != 0;
  dex.class_defs_.reserve(live_classes);

  std::vector<const Method*> callbacks;
  for (const Class& c : classes_) {
    if (!(c.live & at)) continue;
    ClassDef& def = dex.class_defs_.emplace_back();
    def.type = intern_type(c.type);
    if (c.super != kNoIndex)
      def.super_type = intern_type(c.super_live & at ? c.super : object_type_);
    def.access_flags = c.access_flags;

    const std::span<const Iface> ifaces{ifaces_.data() + c.first_iface,
                                        c.iface_count};
    std::size_t live_ifaces = 0;
    for (const Iface& iface : ifaces) live_ifaces += (iface.live & at) != 0;
    def.interfaces.reserve(live_ifaces);
    for (const Iface& iface : ifaces)
      if (iface.live & at) def.interfaces.push_back(intern_type(iface.type));

    const std::span<const Method> methods{methods_.data() + c.first_method,
                                          c.method_count};
    std::size_t live_methods = 0;
    bool dispatches = false;
    for (const Method& m : methods)
      if (m.live & at) {
        ++live_methods;
        dispatches |= m.callback;
      }
    def.methods.reserve(live_methods + (dispatches ? 1 : 0));
    // An interface's dispatcher is its one concrete method: it is interned
    // after the abstract methods but listed before them.
    if (c.is_interface && dispatches) def.methods.emplace_back();

    callbacks.clear();
    for (const Method& m : methods) {
      if (!(m.live & at)) continue;
      if (m.callback) callbacks.push_back(&m);
      MethodDef& md = def.methods.emplace_back();
      md.name = intern_string(m.name);
      md.proto = intern_proto(m.proto);
      md.access_flags = m.access_flags;
      if (c.is_interface) continue;

      const std::span<const Call> calls{calls_.data() + m.first_call,
                                        m.call_count};
      std::size_t insn_count =
          (m.permission != kNoIndex ? 2 : 0) + (m.returns_void ? 1 : 2);
      for (const Call& call : calls) insn_count += (call.live & at) != 0;
      MethodCode& code = md.code.emplace();
      code.register_count = 4;
      code.insns.reserve(insn_count);
      if (m.permission != kNoIndex) {
        code.insns.push_back(
            Instruction::const_string(0, intern_string(m.permission)));
        code.insns.push_back(Instruction::invoke(
            InvokeKind::kStatic, intern_method(enforcer_ref_), {0}));
      }
      for (const Call& call : calls)  // skips targets the level lacks
        if (call.live & at)
          code.insns.push_back(
              Instruction::invoke(call.kind, intern_method(call.method_ref)));
      if (m.returns_void) {
        code.insns.push_back(Instruction::return_void());
      } else {
        code.insns.push_back(Instruction::const_int(1, 0));
        code.insns.push_back(Instruction::return_reg(1));
      }
    }

    // Dispatcher: the framework-side invocations of this class's callbacks.
    // For interfaces the dispatch is an invoke-interface from a synthetic
    // static method (mirroring how e.g. View internals call
    // OnClickListener.onClick).
    if (dispatches) {
      MethodDef& md =
          c.is_interface ? def.methods.front() : def.methods.emplace_back();
      md.name = intern_string(dispatcher_name_);
      md.proto = intern_proto(dispatcher_proto_);
      md.access_flags =
          kAccPublic | kAccSynthetic | (c.is_interface ? kAccStatic : 0);
      MethodCode& code = md.code.emplace();
      code.register_count = 2;
      code.insns.reserve(callbacks.size() + 1);
      const InvokeKind kind =
          c.is_interface ? InvokeKind::kInterface : InvokeKind::kVirtual;
      for (const Method* cb : callbacks)
        code.insns.push_back(
            Instruction::invoke(kind, intern_method(cb->self_ref)));
      code.insns.push_back(Instruction::return_void());
    }
  }

  // Every pool index is assigned; materialize the pools at their exact sizes.
  dex.strings_.reserve(strings.order.size());
  for (const std::uint32_t id : strings.order)
    dex.strings_.emplace_back(strings_[id]);
  dex.types_.reserve(types.order.size());
  for (const std::uint32_t id : types.order)
    dex.types_.push_back(strings.index[type_names_[id]]);
  dex.protos_.reserve(protos.order.size());
  for (const std::uint32_t id : protos.order) {
    const ProtoIds& p = protos_[id];
    Proto& out = dex.protos_.emplace_back();
    out.return_type = types.index[p.return_type];
    out.param_types.reserve(p.param_count);
    for (std::uint32_t i = 0; i < p.param_count; ++i)
      out.param_types.push_back(types.index[params_[p.first_param + i]]);
  }
  dex.method_refs_.reserve(refs.order.size());
  for (const std::uint32_t id : refs.order) {
    const MethodRefIds& ref = method_refs_[id];
    dex.method_refs_.push_back({types.index[ref.class_type],
                                strings.index[ref.name],
                                protos.index[ref.proto]});
  }

  dex.validate();
  return dex;
}

DexFile emit_framework_image(const FrameworkSpec& spec, int level) {
  return FrameworkImagePlan{spec}.emit(level);
}

}  // namespace saintdroid
