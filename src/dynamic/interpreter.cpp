#include "dynamic/interpreter.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "adf/permissions.hpp"
#include "adf/spec.hpp"
#include "clvm/clvm.hpp"
#include "hierarchy/hierarchy.hpp"

namespace saintdroid {

std::string CrashEvent::to_string() const {
  std::ostringstream out;
  if (kind == Kind::kNoSuchMethod)
    out << "NoSuchMethodError: " << missing_api.to_string() << " in "
        << location.to_string() << " @" << insn_index;
  else
    out << "SecurityException: " << permission << " in "
        << location.to_string() << " @" << insn_index;
  return out.str();
}

namespace {

constexpr const char* kRuntimeCheckClass = "com/runtime/GeneratedCheck";
constexpr std::uint64_t kStepLimit = 500'000;
constexpr int kDepthLimit = 64;

/// A runtime value: integers, string constants and opaque object refs.
struct Value {
  enum class Kind : std::uint8_t { kInt = 0, kString, kObject, kNull };
  Kind kind = Kind::kNull;
  std::int64_t i = 0;
  std::string s;    // kString
  std::string cls;  // kObject: dynamic class name

  static Value integer(std::int64_t v) { return {Kind::kInt, v, {}, {}}; }
  static Value string(std::string v) {
    return {Kind::kString, 0, std::move(v), {}};
  }
  static Value object(std::string class_name) {
    return {Kind::kObject, 0, {}, std::move(class_name)};
  }
};

/// Thrown to unwind the interpreter's call stack on a simulated crash.
struct CrashSignal {
  CrashEvent event;
};

std::string descriptor_of_spec(const MethodSpec& m) {
  const auto append_type = [](std::string& out, const std::string& name) {
    if (name.size() == 1 || name.front() == '[')
      out += name;
    else
      out += "L" + name + ";";
  };
  std::string out = "(";
  for (const auto& p : m.params) append_type(out, p);
  out += ")";
  append_type(out, m.return_type);
  return out;
}

}  // namespace

struct Interpreter::Impl {
  const Apk* apk;
  const FrameworkRepository* repo;

  // Per-run state.
  const DeviceConfig* device = nullptr;
  std::unique_ptr<ClassLoaderVm> vm;
  std::unique_ptr<ClassHierarchy> hierarchy;
  ExecutionResult result;
  std::unordered_map<std::string, Value> fields;  // object-insensitive store
  std::unordered_set<std::string> granted;
  std::unordered_set<const MethodDef*> activated;
  std::unordered_set<std::string> crash_keys;
  bool runtime_request_issued = false;

  Impl(const Apk& a, const FrameworkRepository& r) : apk(&a), repo(&r) {}

  // --- permission machinery --------------------------------------------------

  void install_grants() {
    granted.clear();
    // Install-time model: everything requested is granted below 23; on a
    // >= 23 device an app targeting <= 22 keeps its install-time grants
    // unless the user revokes them.
    const bool runtime_device = device->level >= kRuntimePermissionLevel;
    const bool runtime_target =
        apk->manifest.target_sdk >= kRuntimePermissionLevel;
    for (const auto& p : apk->manifest.permissions) {
      if (!runtime_device) {
        granted.insert(p);
        continue;
      }
      if (!is_dangerous_permission(p)) {
        granted.insert(p);
        continue;
      }
      if (!runtime_target && !device->user_revokes_dangerous)
        granted.insert(p);
      // runtime_target: dangerous permissions start ungranted.
    }
  }

  void enforce(const std::string& permission, const MethodId& where,
               std::uint32_t insn) {
    if (!is_dangerous_permission(permission)) return;  // normal perms: granted
    if (!apk->manifest.requests_permission(permission)) {
      // Undeclared use fails at any level (Listing 3's crash).
      throw CrashSignal{CrashEvent{CrashEvent::Kind::kSecurityException,
                                   where, insn, {}, permission}};
    }
    if (!granted.contains(permission))
      throw CrashSignal{CrashEvent{CrashEvent::Kind::kSecurityException,
                                   where, insn, {}, permission}};
  }

  void handle_runtime_request() {
    runtime_request_issued = true;
    if (!device->user_grants_requests) return;
    for (const auto& p : apk->manifest.permissions)
      if (is_dangerous_permission(p)) granted.insert(p);
  }

  // --- spec-side callback classification ---------------------------------------

  /// Finds the framework callback this app method overrides in the spec,
  /// walking through app-level intermediate classes; nullptr when none.
  const MethodSpec* spec_callback(const LoadedClass& cls,
                                  const MethodDef& method,
                                  std::string* declaring) const {
    const std::string& name = cls.dex->string_at(method.name);
    const std::string descriptor = cls.dex->descriptor_of(method.proto);
    std::string current = cls.super_name;
    for (int hops = 0; hops < 64 && !current.empty(); ++hops) {
      if (const ClassSpec* spec_cls = repo->spec().find_class(current)) {
        for (const auto& m : spec_cls->methods)
          if (m.callback && m.name == name &&
              descriptor_of_spec(m) == descriptor) {
            *declaring = current;
            return &m;
          }
        current = spec_cls->super;
        continue;
      }
      // App-level intermediate: follow its declared superclass.
      const auto loc = apk->find_class(current);
      if (!loc.class_def) break;
      current = loc.class_def->super_type == kNoIndex
                    ? ""
                    : apk->dexes[loc.dex_index].type_name(
                          loc.class_def->super_type);
    }
    return nullptr;
  }

  // --- execution -----------------------------------------------------------------

  void activate_class(const LoadedClass& cls) {
    for (const auto& m : cls.def->methods) {
      if (!activated.insert(&m).second) continue;
      try {
        execute(cls, m, 0);
      } catch (const CrashSignal& crash) {
        record(crash.event);
      }
    }
  }

  void record(const CrashEvent& event) {
    std::string key = std::to_string(static_cast<int>(event.kind)) + "|" +
                      event.location.to_string() + "|" +
                      std::to_string(event.insn_index) + "|" +
                      event.missing_api.to_string() + "|" + event.permission;
    if (crash_keys.insert(std::move(key)).second)
      result.crashes.push_back(event);
  }

  Value execute(const LoadedClass& cls, const MethodDef& method, int depth) {
    if (!method.code || method.code->insns.empty()) return {};
    if (depth > kDepthLimit) return {};

    const DexFile& dex = *cls.dex;
    const MethodId self = dex.method_id(*cls.def, method);
    std::vector<Value> regs(method.code->register_count);
    Value last_result;
    const auto& insns = method.code->insns;

    const auto reg = [&regs](std::uint16_t r) -> Value& {
      static Value scratch;
      return r < regs.size() ? regs[r] : scratch;
    };

    std::uint32_t pc = 0;
    while (pc < insns.size()) {
      if (++result.steps > kStepLimit) {
        result.step_limit_hit = true;
        return {};
      }
      const Instruction& insn = insns[pc];
      switch (insn.op) {
        case Opcode::kNop:
          break;
        case Opcode::kConst:
          reg(insn.reg_a) = Value::integer(insn.literal);
          break;
        case Opcode::kConstString:
          reg(insn.reg_a) = Value::string(dex.string_at(insn.index));
          break;
        case Opcode::kMove:
          reg(insn.reg_a) = reg(insn.reg_b);
          break;
        case Opcode::kSget: {
          const FieldId field = dex.field_id_at(insn.index);
          reg(insn.reg_a) = field == kSdkIntField
                                ? Value::integer(device->level)
                                : Value::integer(0);
          break;
        }
        case Opcode::kSput:
          break;  // static app state is not modelled
        case Opcode::kIput:
          fields[dex.field_id_at(insn.index).to_string()] = reg(insn.reg_a);
          break;
        case Opcode::kIget: {
          const auto it = fields.find(dex.field_id_at(insn.index).to_string());
          reg(insn.reg_a) = it != fields.end() ? it->second : Value{};
          break;
        }
        case Opcode::kIfCmp: {
          const std::int64_t lhs = reg(insn.reg_a).i;
          const std::int64_t rhs =
              insn.cmp_with_literal ? insn.literal : reg(insn.reg_b).i;
          if (eval_cmp(insn.cmp, lhs, rhs)) {
            pc = insn.target;
            continue;
          }
          break;
        }
        case Opcode::kGoto:
          pc = insn.target;
          continue;
        case Opcode::kNewInstance:
          // Resolution is deferred to the constructor invoke, so that a
          // missing class crashes with the constructor as the subject.
          reg(insn.reg_a) = Value::object(dex.type_name(insn.index));
          break;
        case Opcode::kLoadClass: {
          const std::string type = dex.type_name(insn.index);
          reg(insn.reg_a) = Value::object("java/lang/Class");
          if (const LoadedClass* loaded = hierarchy->load(type);
              loaded && !loaded->from_framework)
            activate_class(*loaded);
          break;
        }
        case Opcode::kThrow:
          return {};  // app-raised exception: abort the method quietly
        case Opcode::kReturnVoid:
          return {};
        case Opcode::kReturn:
          return reg(insn.reg_a);
        case Opcode::kMoveResult:
          reg(insn.reg_a) = last_result;
          break;
        case Opcode::kInvoke:
          last_result = invoke(self, dex, insn, pc, reg, depth);
          break;
      }
      ++pc;
    }
    return {};
  }

  Value invoke(const MethodId& self, const DexFile& dex,
               const Instruction& insn, std::uint32_t pc,
               const std::function<Value&(std::uint16_t)>& reg, int depth) {
    const MethodId declared = dex.method_id_at(insn.index);

    // Runtime-generated guard helper: it exists at runtime and answers
    // truthfully, which is exactly why statically-flagged sites behind it
    // never actually crash.
    if (declared.class_name == kRuntimeCheckClass) {
      const std::int64_t threshold =
          insn.args.empty() ? 0 : reg(insn.args.front()).i;
      return Value::integer(device->level >= threshold ? 1 : 0);
    }
    // Reflection: activate the named class (plugin surface).
    if (declared.class_name == "java/lang/Class" &&
        declared.name == "forName") {
      if (!insn.args.empty() &&
          reg(insn.args.front()).kind == Value::Kind::kString) {
        std::string type = reg(insn.args.front()).s;
        std::replace(type.begin(), type.end(), '.', '/');
        if (const LoadedClass* loaded = hierarchy->load(type);
            loaded && !loaded->from_framework)
          activate_class(*loaded);
      }
      return Value::object("java/lang/Class");
    }
    // Framework permission enforcement.
    if (declared.class_name == kPermissionEnforcerClass &&
        declared.name == kPermissionEnforcerMethod) {
      if (!insn.args.empty() &&
          reg(insn.args.front()).kind == Value::Kind::kString)
        enforce(reg(insn.args.front()).s, self, pc);
      return {};
    }
    // The runtime permission dialog.
    if (declared.name == "requestPermissions") handle_runtime_request();

    const auto resolution = hierarchy->resolve(
        declared.class_name, declared.name, declared.descriptor);
    if (!resolution) {
      const bool class_known =
          hierarchy.get() && hierarchy->load(declared.class_name) != nullptr;
      if (is_framework_class_name(declared.class_name) || class_known) {
        // The receiver class exists on this device (or is platform
        // namespace) but the method does not: the mismatch crash.
        throw CrashSignal{CrashEvent{CrashEvent::Kind::kNoSuchMethod, self,
                                     pc, declared, {}}};
      }
      return Value::integer(0);  // external/unknown code: no-op
    }
    if (!resolution->method->code) return {};
    return execute(*resolution->declaring_class, *resolution->method,
                   depth + 1);
  }

  ExecutionResult run(const DeviceConfig& config) {
    DeviceConfig clamped = config;
    clamped.level = FrameworkRepository::clamp_level(config.level);
    device = &clamped;

    result = {};
    result.device_level = clamped.level;
    fields.clear();
    activated.clear();
    crash_keys.clear();
    runtime_request_issued = false;

    const auto substrate = repo->substrate(clamped.level);
    vm = std::make_unique<ClassLoaderVm>(*apk, substrate);
    hierarchy = std::make_unique<ClassHierarchy>(*vm, substrate.get());
    install_grants();

    // The framework-driven surface: component methods and dispatched
    // callbacks. Overrides of callbacks absent at this level are recorded
    // as skipped — the APC mismatch materialized. Lifecycle entry points
    // (onCreate) run first, mirroring the framework's driving order, so
    // that e.g. runtime-permission requests issued during creation precede
    // later permission uses.
    struct Entry {
      const LoadedClass* cls;
      const MethodDef* def;
      bool lifecycle_first;
    };
    std::vector<Entry> entries;

    const DexFile& main_dex = apk->dexes.front();
    for (const auto& cls_def : main_dex.classes()) {
      const LoadedClass* cls =
          hierarchy->load(main_dex.type_name(cls_def.type));
      if (!cls || cls->from_framework) continue;
      const bool is_component = [&] {
        for (const auto& c : apk->manifest.components)
          if (c.class_name == cls->name) return true;
        return false;
      }();
      for (const auto& m : cls->def->methods) {
        std::string declaring;
        const MethodSpec* cb = spec_callback(*cls, m, &declaring);
        if (cb && !cb->life.exists_at(clamped.level)) {
          result.skipped_callbacks.push_back(SkippedCallback{
              cls->dex->method_id(*cls->def, m),
              MethodId{declaring, cb->name, descriptor_of_spec(*cb)}});
          continue;  // the framework never dispatches it here
        }
        if (!is_component && !cb) continue;  // not framework-invoked
        const bool lifecycle =
            is_component && cls->dex->string_at(m.name) == "onCreate";
        entries.push_back(Entry{cls, &m, lifecycle});
      }
    }
    std::stable_partition(entries.begin(), entries.end(),
                          [](const Entry& e) { return e.lifecycle_first; });
    for (const auto& entry : entries) {
      if (!activated.insert(entry.def).second) continue;
      try {
        execute(*entry.cls, *entry.def, 0);
      } catch (const CrashSignal& crash) {
        record(crash.event);
      }
    }
    device = nullptr;
    return std::move(result);
  }
};

Interpreter::Interpreter(const Apk& apk, const FrameworkRepository& repo)
    : impl_(std::make_unique<Impl>(apk, repo)) {}

Interpreter::~Interpreter() = default;

ExecutionResult Interpreter::run(const DeviceConfig& device) {
  return impl_->run(device);
}

}  // namespace saintdroid
