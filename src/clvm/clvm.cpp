#include "clvm/clvm.hpp"

#include "support/errors.hpp"
#include "support/faults.hpp"

namespace saintdroid {

std::uint64_t class_footprint_bytes(const DexFile& dex, const ClassDef& cls) {
  namespace size = modelled_size;
  std::uint64_t bytes =
      size::kClassDef + cls.interfaces.size() * sizeof(std::uint32_t);
  bytes += dex.type_name(cls.type).size();
  for (const auto& m : cls.methods) {
    bytes += size::kMethodDef + dex.string_at(m.name).size();
    if (m.code) {
      bytes += size::kMethodCode;
      for (const auto& insn : m.code->insns)
        bytes +=
            size::kInstruction + insn.args.size() * sizeof(std::uint16_t);
    }
  }
  return bytes;
}

LoadedClass materialize_loaded_class(const DexFile& dex, const ClassDef& def,
                                     bool from_framework) {
  LoadedClass lc;
  lc.name = dex.type_name(def.type);
  lc.super_name =
      def.super_type == kNoIndex ? "" : dex.type_name(def.super_type);
  lc.interface_names.reserve(def.interfaces.size());
  for (const auto iface : def.interfaces)
    lc.interface_names.push_back(dex.type_name(iface));
  lc.dex = &dex;
  lc.def = &def;
  lc.from_framework = from_framework;
  lc.footprint = class_footprint_bytes(dex, def);
  return lc;
}

// ---------------------------------------------------------------------------
// ClassLoaderVm

ClassLoaderVm::ClassLoaderVm(
    const Apk& apk, std::shared_ptr<const FrameworkSubstrate> substrate,
    bool include_secondary_dexes, BudgetTracker* budget)
    : budget_(budget), substrate_(std::move(substrate)) {
  if (!substrate_)
    throw ConfigError("ClassLoaderVm needs a framework substrate");
  const std::size_t dex_limit =
      include_secondary_dexes ? apk.dexes.size() : std::size_t{1};
  for (std::size_t d = 0; d < dex_limit; ++d)
    for (const auto& cls : apk.dexes[d].classes())
      index_.emplace(apk.dexes[d].type_name(cls.type),
                     Source{&apk.dexes[d], &cls});
}

ClassLoaderVm::ClassLoaderVm(
    const Apk& apk, const DexFile& /*framework*/, bool include_secondary_dexes,
    std::nullptr_t /*framework_index*/, BudgetTracker* budget,
    std::shared_ptr<const FrameworkSubstrate> substrate)
    : ClassLoaderVm(apk, std::move(substrate), include_secondary_dexes,
                    budget) {}

const LoadedClass* ClassLoaderVm::load(const std::string& name) {
  if (const auto it = cache_.find(name); it != cache_.end())
    return it->second;
  // Budget guard: past the class cap a fresh load degrades to "unknown
  // class" — callers already handle nullptr conservatively — and the
  // tracker records the exhaustion for the incomplete-report flag.
  if (budget_ && !budget_->allow_class(cache_.size())) return nullptr;
  SD_FAULT_POINT("clvm.materialize");
  // App classes shadow framework classes of the same name (same as the
  // runtime's delegation order for the packaged classloader path we model).
  const LoadedClass* loaded = nullptr;
  if (const auto it = index_.find(name); it != index_.end()) {
    owned_.push_back(std::make_unique<LoadedClass>(materialize_loaded_class(
        *it->second.dex, *it->second.def, /*from_framework=*/false)));
    loaded = owned_.back().get();
  } else {
    // Shared framework layer: hand out the substrate's pointer, charging
    // its precomputed footprint — the bytes a private copy would cost.
    loaded = substrate_->find_class(name);
    if (loaded == nullptr) return nullptr;
  }
  memory_.allocate(loaded->footprint);
  cache_.emplace(name, loaded);
  return loaded;
}

const LoadedClass* ClassLoaderVm::load_framework(const LoadedClass* cls,
                                                std::uint32_t slot) {
  // Repeat loads of an already-loaded class are observable no-ops in the
  // name path (pure cache hit: no budget check, no fault point, no
  // accounting), so once the first load has gone through load() — which
  // also settles app-class shadowing — a flag check answers all later
  // calls. The flag is only set when the name path actually resolved to
  // the substrate's object; a shadowed name keeps delegating.
  if (slot < substrate_loaded_.size() && substrate_loaded_[slot]) return cls;
  const LoadedClass* loaded = load(cls->name);
  if (loaded == cls) {
    if (substrate_loaded_.empty())
      substrate_loaded_.resize(substrate_->class_count(), 0);
    if (slot < substrate_loaded_.size()) substrate_loaded_[slot] = 1;
  }
  return loaded;
}

std::uint64_t ClassLoaderVm::loaded_class_count() const {
  return cache_.size();
}

const MemoryMeter& ClassLoaderVm::memory() const { return memory_; }

// ---------------------------------------------------------------------------
// EagerLoader

EagerLoader::EagerLoader(const Apk& apk, const DexFile& framework,
                         bool include_secondary_dexes) {
  const std::size_t dex_limit =
      include_secondary_dexes ? apk.dexes.size() : std::size_t{1};
  for (std::size_t d = 0; d < dex_limit; ++d)
    materialize(apk.dexes[d], false);
  materialize(framework, true);
}

void EagerLoader::materialize(const DexFile& dex, bool from_framework) {
  for (const auto& cls : dex.classes()) {
    auto loaded = std::make_unique<LoadedClass>(
        materialize_loaded_class(dex, cls, from_framework));
    const auto& name = loaded->name;
    if (cache_.contains(name)) continue;  // first definition wins
    memory_.allocate(loaded->footprint);
    cache_.emplace(name, std::move(loaded));
  }
}

const LoadedClass* EagerLoader::load(const std::string& name) {
  const auto it = cache_.find(name);
  return it == cache_.end() ? nullptr : it->second.get();
}

std::uint64_t EagerLoader::loaded_class_count() const {
  return cache_.size();
}

const MemoryMeter& EagerLoader::memory() const { return memory_; }

}  // namespace saintdroid
