// Class-hierarchy analysis over a ClassProvider.
//
// Virtual/interface method resolution walks the superclass chain and
// interface set exactly the way the Dalvik resolver does, loading classes
// on demand through the provider — with the lazy CLVM behind it, hierarchy
// queries are what drive incremental loading (paper Algorithm 1). This is
// also where override detection lives: an app method "overrides an API
// callback" (Algorithm 3) when a framework ancestor declares a method with
// the same name and descriptor.
//
// Over the lazy loader, every framework class is owned by the level's
// FrameworkSubstrate, and queries over it ride the substrate's precomputed
// structure: method tables with prebuilt descriptors (no per-app string
// building), direct superclass pointers (chain walks skip name lookups via
// ClassProvider::load_framework), and per-method invoke edges (the AUM's
// framework walk replays pointers instead of re-decoding instructions).
// Over the eager loader there is no substrate and queries scan the class
// definitions; results are identical either way — only the work moves.
#pragma once

#include <optional>
#include <string>

#include "clvm/class_provider.hpp"
#include "clvm/substrate.hpp"
#include "dex/ids.hpp"

namespace saintdroid {

/// The outcome of resolving a method against the hierarchy.
struct MethodResolution {
  const LoadedClass* declaring_class = nullptr;
  const MethodDef* method = nullptr;
  /// Identity at the *declaring* class (e.g. resolving
  /// com/app/MyView.setBackground yields android/view/View.setBackground).
  MethodId id;
};

class ClassHierarchy {
 public:
  /// `provider` (and `substrate`, when given) must outlive the hierarchy.
  /// `substrate` should be the framework layer the provider hands out
  /// pointers into; lookups scan any class the substrate does not own
  /// (app classes, or every class of an eager loader).
  explicit ClassHierarchy(ClassProvider& provider,
                          const FrameworkSubstrate* substrate = nullptr)
      : provider_(&provider), substrate_(substrate) {}

  /// Passthrough load (kept so callers need only a hierarchy reference).
  const LoadedClass* load(const std::string& name) {
    return provider_->load(name);
  }

  /// Resolves `name:descriptor` starting at `class_name`, walking the
  /// superclass chain, then each ancestor's interfaces (and their
  /// super-interfaces). Returns nullopt when the start class is unknown or
  /// no ancestor declares the method.
  std::optional<MethodResolution> resolve(const std::string& class_name,
                                          const std::string& name,
                                          const std::string& descriptor);

  /// For a method defined in app class `cls`: the framework declaration it
  /// overrides, if any. Starts the walk at the superclass (a definition
  /// does not override itself).
  std::optional<MethodResolution> overridden_framework_method(
      const LoadedClass& cls, const MethodDef& method);

  /// True when `derived` equals `base` or transitively extends/implements
  /// it. Unresolvable ancestors terminate the walk (conservative false).
  bool is_subtype_of(const std::string& derived, const std::string& base);

  /// The nearest *framework* ancestor class of `class_name` (for CIDER's
  /// modelled-class check), or nullptr.
  const LoadedClass* nearest_framework_ancestor(const std::string& class_name);

  /// The first method of `cls` (declaration order) matching
  /// `name:descriptor`, or nullptr — the indexed equivalent of scanning
  /// cls.def->methods with method_matches(). Does not walk ancestors.
  const MethodDef* find_method_in(const LoadedClass& cls,
                                  const std::string& name,
                                  const std::string& descriptor) const;

  /// The framework substrate this hierarchy reads, or nullptr — the AUM
  /// framework walk uses its precomputed method tables and invoke edges.
  const FrameworkSubstrate* substrate() const { return substrate_; }

  /// Passthrough to ClassProvider::load_framework (see there).
  const LoadedClass* load_framework(const LoadedClass* cls,
                                    std::uint32_t slot) {
    return provider_->load_framework(cls, slot);
  }

  ClassProvider& provider() { return *provider_; }

 private:
  /// The substrate entry for `cls` when its precomputed method tables may
  /// be used, else nullptr.
  const FrameworkSubstrate::ClassEntry* substrate_entry(
      const LoadedClass& cls) const {
    if (substrate_ == nullptr || !cls.from_framework) return nullptr;
    return substrate_->entry_of(cls);
  }

  /// Advances a chain walk to `cls`'s superclass, taking the substrate's
  /// direct super pointer when available.
  const LoadedClass* load_super(const LoadedClass& cls);

  std::optional<MethodResolution> find_in_class(const LoadedClass& cls,
                                                const std::string& name,
                                                const std::string& descriptor);
  std::optional<MethodResolution> resolve_in_interfaces(
      const LoadedClass& cls, const std::string& name,
      const std::string& descriptor);

  ClassProvider* provider_;
  const FrameworkSubstrate* substrate_ = nullptr;  // optional, not owned
};

/// True when a method definition in `dex` matches `name:descriptor`.
bool method_matches(const DexFile& dex, const MethodDef& method,
                    const std::string& name, const std::string& descriptor);

}  // namespace saintdroid
