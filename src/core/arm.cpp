#include "core/arm.hpp"

#include <algorithm>
#include <deque>
#include <future>
#include <tuple>
#include <utility>
#include <vector>

#include "support/bytes.hpp"
#include "support/thread_pool.hpp"

#include "adf/spec.hpp"
#include "core/semantics.hpp"

namespace saintdroid {

namespace {

/// Direct permission enforcement: a const-string that reaches an
/// enforcePermission call within the same body. Our emitted framework puts
/// the two adjacent, but the miner tracks the register to stay robust.
std::vector<std::string> mine_direct_permissions(const DexFile& dex,
                                                 const MethodCode& code) {
  std::vector<std::string> perms;
  std::unordered_map<std::uint16_t, std::string> string_regs;
  for (const auto& insn : code.insns) {
    if (insn.op == Opcode::kConstString) {
      string_regs[insn.reg_a] = dex.string_at(insn.index);
    } else if (insn.op == Opcode::kInvoke) {
      const MethodId target = dex.method_id_at(insn.index);
      if (target.class_name == kPermissionEnforcerClass &&
          target.name == kPermissionEnforcerMethod && !insn.args.empty()) {
        const auto it = string_regs.find(insn.args.front());
        if (it != string_regs.end()) perms.push_back(it->second);
      }
    }
  }
  return perms;
}

/// Everything one level's scan contributes, in scan order, with no shared
/// state touched — the unit of work a pool worker produces. Deduplication
/// and map insertion happen only at merge time, on the calling thread, in
/// level order, so the mined database is bit-for-bit independent of how
/// many workers scanned.
struct MethodScan {
  MethodId id;
  bool dispatcher = false;
  std::vector<MethodId> callback_targets;  ///< dispatcher bodies only
  std::vector<std::string> direct_perms;   ///< raw, pre-dedup
  std::vector<MethodId> callees;           ///< instruction order, pre-dedup
};

struct LevelPartial {
  std::vector<std::string> class_names;
  std::vector<MethodScan> methods;
};

LevelPartial scan_level(const DexFile& image) {
  LevelPartial out;
  for (const auto& cls : image.classes()) {
    out.class_names.push_back(image.type_name(cls.type));
    for (const auto& m : cls.methods) {
      MethodScan scan;
      scan.id = image.method_id(cls, m);
      scan.dispatcher = scan.id.name == kCallbackDispatcherName;
      if (m.code) {
        if (scan.dispatcher) {
          // Callback mining: dispatcher bodies list the methods the
          // framework invokes on subclasses.
          for (const auto& insn : m.code->insns)
            if (insn.op == Opcode::kInvoke &&
                (insn.invoke_kind == InvokeKind::kVirtual ||
                 insn.invoke_kind == InvokeKind::kInterface))
              scan.callback_targets.push_back(image.method_id_at(insn.index));
        } else {
          // Permission mining: direct enforcement plus reverse call edges.
          scan.direct_perms = mine_direct_permissions(image, *m.code);
          for (const auto& insn : m.code->insns) {
            if (insn.op != Opcode::kInvoke) continue;
            MethodId callee = image.method_id_at(insn.index);
            if (callee.class_name == kPermissionEnforcerClass) continue;
            scan.callees.push_back(std::move(callee));
          }
        }
      }
      out.methods.push_back(std::move(scan));
    }
  }
  return out;
}

}  // namespace

ApiDatabase ApiDatabase::mine(const FrameworkRepository& repo, int jobs) {
  ApiDatabase db;

  // Union call graph across levels for transitive permission propagation.
  std::unordered_map<MethodId, std::vector<MethodId>> callers_of;
  std::unordered_map<MethodId, std::vector<std::string>> direct_perms;

  // Folds one level's partial into the database with exactly the insertion
  // sequence the serial miner used, so even unordered-map iteration orders
  // (which the permission closure below observes) match a serial mine.
  const auto merge_level = [&](int level, LevelPartial partial) {
    for (auto& name : partial.class_names)
      db.classes_.insert(std::move(name));
    for (auto& scan : partial.methods) {
      if (!scan.dispatcher) {
        db.presence_[scan.id] |= std::uint32_t{1} << level;
        db.method_names_[scan.id.class_name].insert(scan.id.name);
      } else {
        for (auto& target : scan.callback_targets)
          db.callbacks_.insert(std::move(target));
      }
      if (!scan.direct_perms.empty()) {
        auto& slot = direct_perms[scan.id];
        for (auto& p : scan.direct_perms) {
          if (std::find(slot.begin(), slot.end(), p) == slot.end())
            slot.push_back(std::move(p));
        }
      }
      for (auto& callee : scan.callees) {
        auto& callers = callers_of[callee];
        if (std::find(callers.begin(), callers.end(), scan.id) ==
            callers.end())
          callers.push_back(scan.id);
      }
    }
  };

  if (jobs <= 0) jobs = static_cast<int>(ThreadPool::default_workers());
  constexpr int kLevels = kMaxApiLevel - kMinApiLevel + 1;
  if (jobs > kLevels) jobs = kLevels;

  if (jobs <= 1) {
    for (int level = kMinApiLevel; level <= kMaxApiLevel; ++level)
      merge_level(level, scan_level(repo.image(level)));
  } else {
    // One task per level: workers scan (and, on a cold repository, build)
    // level images concurrently; the calling thread merges completed
    // partials strictly in level order. An image-build failure surfaces at
    // the lowest failing level's get(), matching the serial pass.
    ThreadPool pool{static_cast<std::size_t>(jobs)};
    std::vector<std::future<LevelPartial>> scans;
    scans.reserve(kLevels);
    for (int level = kMinApiLevel; level <= kMaxApiLevel; ++level)
      scans.push_back(pool.submit(
          [&repo, level] { return scan_level(repo.image(level)); }));
    for (int level = kMinApiLevel; level <= kMaxApiLevel; ++level)
      merge_level(level,
                  scans[static_cast<std::size_t>(level - kMinApiLevel)].get());
  }

  // Transitive closure: propagate each required permission backwards along
  // call edges (a caller requires what its callees require).
  std::deque<std::pair<MethodId, std::string>> worklist;
  for (const auto& [method, perms] : direct_perms)
    for (const auto& p : perms) worklist.emplace_back(method, p);
  std::unordered_map<MethodId, std::vector<std::string>> required =
      std::move(direct_perms);
  while (!worklist.empty()) {
    auto [method, perm] = std::move(worklist.front());
    worklist.pop_front();
    const auto it = callers_of.find(method);
    if (it == callers_of.end()) continue;
    for (const auto& caller : it->second) {
      auto& slot = required[caller];
      if (std::find(slot.begin(), slot.end(), perm) != slot.end()) continue;
      slot.push_back(perm);
      worklist.emplace_back(caller, perm);
    }
  }
  db.permissions_ = std::move(required);

  // The curated semantic-change table rides alongside the signature data.
  db.semantics_ = std::make_shared<const SemanticTable>(
      mine_semantic_table(repo.spec()));

  return db;
}

std::vector<std::uint8_t> ApiDatabase::serialize() const {
  ByteWriter w;
  w.u32(0x42444153);  // "SADB"
  w.u32(1);           // version

  // Canonical ordering so equal databases serialize identically.
  const auto sorted_methods = [](const auto& map) {
    std::vector<const MethodId*> keys;
    keys.reserve(map.size());
    for (const auto& [id, value] : map) keys.push_back(&id);
    std::sort(keys.begin(), keys.end(),
              [](const MethodId* a, const MethodId* b) {
                return std::tie(a->class_name, a->name, a->descriptor) <
                       std::tie(b->class_name, b->name, b->descriptor);
              });
    return keys;
  };
  const auto write_id = [&w](const MethodId& id) {
    w.str(id.class_name);
    w.str(id.name);
    w.str(id.descriptor);
  };

  w.uleb(presence_.size());
  for (const MethodId* id : sorted_methods(presence_)) {
    write_id(*id);
    w.u32(presence_.at(*id));
  }

  std::vector<const MethodId*> callbacks;
  callbacks.reserve(callbacks_.size());
  for (const auto& id : callbacks_) callbacks.push_back(&id);
  std::sort(callbacks.begin(), callbacks.end(),
            [](const MethodId* a, const MethodId* b) {
              return std::tie(a->class_name, a->name, a->descriptor) <
                     std::tie(b->class_name, b->name, b->descriptor);
            });
  w.uleb(callbacks.size());
  for (const MethodId* id : callbacks) write_id(*id);

  w.uleb(permissions_.size());
  for (const MethodId* id : sorted_methods(permissions_)) {
    write_id(*id);
    const auto& perms = permissions_.at(*id);
    std::vector<std::string> sorted_perms(perms.begin(), perms.end());
    std::sort(sorted_perms.begin(), sorted_perms.end());
    w.uleb(sorted_perms.size());
    for (const auto& p : sorted_perms) w.str(p);
  }

  std::vector<std::string> classes(classes_.begin(), classes_.end());
  std::sort(classes.begin(), classes.end());
  w.uleb(classes.size());
  for (const auto& c : classes) w.str(c);
  return w.take();
}

ApiDatabase ApiDatabase::parse(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  if (r.u32() != 0x42444153) throw ParseError("bad API database magic");
  if (r.u32() != 1) throw ParseError("unsupported API database version");

  const auto read_id = [&r] {
    MethodId id;
    id.class_name = r.str();
    id.name = r.str();
    id.descriptor = r.str();
    return id;
  };

  ApiDatabase db;
  const auto presence_count = r.count();
  db.presence_.reserve(presence_count);
  for (std::uint64_t i = 0; i < presence_count; ++i) {
    MethodId id = read_id();
    const std::uint32_t bits = r.u32();
    db.method_names_[id.class_name].insert(id.name);
    db.presence_.emplace(std::move(id), bits);
  }
  const auto callback_count = r.count();
  for (std::uint64_t i = 0; i < callback_count; ++i)
    db.callbacks_.insert(read_id());
  const auto perm_count = r.count();
  for (std::uint64_t i = 0; i < perm_count; ++i) {
    MethodId id = read_id();
    const auto n = r.count();
    std::vector<std::string> perms;
    perms.reserve(n);
    for (std::uint64_t j = 0; j < n; ++j) perms.push_back(r.str());
    db.permissions_.emplace(std::move(id), std::move(perms));
  }
  const auto class_count = r.count();
  for (std::uint64_t i = 0; i < class_count; ++i)
    db.classes_.insert(r.str());
  if (!r.at_end()) throw ParseError("trailing bytes after API database");
  return db;
}

bool ApiDatabase::contains(const MethodId& method, int level) const {
  const auto it = presence_.find(method);
  if (it == presence_.end()) return false;
  return (it->second >> level) & 1u;
}

std::optional<ApiInterval> ApiDatabase::defined_levels(
    const MethodId& method) const {
  const auto it = presence_.find(method);
  if (it == presence_.end()) return std::nullopt;
  const std::uint32_t bits = it->second;
  int lo = -1;
  int hi = -1;
  for (int level = kMinApiLevel; level <= kMaxApiLevel; ++level) {
    if ((bits >> level) & 1u) {
      if (lo < 0) lo = level;
      hi = level;
    }
  }
  if (lo < 0) return std::nullopt;
  return ApiInterval{lo, hi};
}

bool ApiDatabase::is_callback(const MethodId& method) const {
  return callbacks_.contains(method);
}

const std::vector<std::string>& ApiDatabase::permissions_for(
    const MethodId& method) const {
  static const std::vector<std::string> kNone;
  const auto it = permissions_.find(method);
  return it == permissions_.end() ? kNone : it->second;
}

bool ApiDatabase::is_known_class(const std::string& name) const {
  return classes_.contains(name);
}

bool ApiDatabase::class_has_method_named(const std::string& cls,
                                         const std::string& name) const {
  const auto it = method_names_.find(cls);
  return it != method_names_.end() && it->second.contains(name);
}

const ApiDatabase& standard_api_database() {
  static const ApiDatabase db =
      ApiDatabase::mine(FrameworkRepository::standard());
  return db;
}

std::shared_ptr<const ApiDatabase> shared_api_database(
    const FrameworkRepository& repo) {
  if (&repo == &FrameworkRepository::standard()) {
    // Aliasing handle: the static database outlives every caller, so the
    // handle carries no ownership.
    return std::shared_ptr<const ApiDatabase>{std::shared_ptr<const void>{},
                                              &standard_api_database()};
  }
  return std::make_shared<const ApiDatabase>(ApiDatabase::mine(repo));
}

}  // namespace saintdroid
