// ClassLoaderVm — the paper's core scalability mechanism (§III-A).
//
// Mimics the Android runtime's lazy class loading during *static* analysis:
// a class is materialized only when the exploration first needs it, looked
// up first in the app package (all dexes, including late-bound secondary
// ones) and then in the framework image for the analysis level. Memory is
// charged per materialized class, so the footprint of an analysis is
// proportional to what it actually reached — the property that makes
// SAINTDroid ~4x leaner than eager-loading tools (Fig. 4).
//
// Framework classes come from the shared FrameworkSubstrate of the
// analysis level (see clvm/substrate.hpp): the VM hands out pointers into
// the immutable shared layer instead of materializing private copies,
// charging each class's precomputed footprint and counting it in
// loaded_class_count() on first load — accounting is per analysis even
// though the objects are shared.
//
// EagerLoader is the contrasting strategy used by the CID baseline: it
// materializes every app class and the entire framework image up front
// ("existing analysis techniques first load all code in the project",
// §II-D).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "clvm/class_provider.hpp"
#include "clvm/substrate.hpp"
#include "support/budget.hpp"

namespace saintdroid {

/// Lazy, demand-driven class loader.
class ClassLoaderVm : public ClassProvider {
 public:
  /// `apk` must outlive the VM; `substrate` is the framework layer of the
  /// analysis level and must be non-null. `include_secondary_dexes`
  /// controls whether late-bound code is visible (SAINTDroid: yes).
  /// `budget`, when provided, caps materialization: once the tracker's
  /// class budget is exhausted, load() of a not-yet-cached class returns
  /// nullptr (degrading exactly like an unknown class) instead of
  /// materializing — the cooperative backstop that keeps a pathological
  /// hierarchy from sinking a batch run.
  ClassLoaderVm(const Apk& apk,
                std::shared_ptr<const FrameworkSubstrate> substrate,
                bool include_secondary_dexes = true,
                BudgetTracker* budget = nullptr);

  /// Kept only because perfbench/staged.cpp calls this signature: the
  /// image is ignored, and the index slot must be null. Throws ConfigError
  /// when `substrate` is null.
  ClassLoaderVm(const Apk& apk, const DexFile& framework,
                bool include_secondary_dexes, std::nullptr_t framework_index,
                BudgetTracker* budget,
                std::shared_ptr<const FrameworkSubstrate> substrate);

  const LoadedClass* load(const std::string& name) override;
  const LoadedClass* load_framework(const LoadedClass* cls,
                                    std::uint32_t slot) override;
  std::uint64_t loaded_class_count() const override;
  const MemoryMeter& memory() const override;

 private:
  // Name -> definition over the app's containers; building the index
  // reads only class headers and is not charged as materialization.
  struct Source {
    const DexFile* dex = nullptr;
    const ClassDef* def = nullptr;
  };
  std::unordered_map<std::string, Source> index_;
  BudgetTracker* budget_ = nullptr;  // optional, not owned
  std::shared_ptr<const FrameworkSubstrate> substrate_;
  // Classes this analysis touched: app classes are owned here, framework
  // classes point into the substrate. unique_ptr keeps owned pointers
  // stable across rehash.
  std::unordered_map<std::string, const LoadedClass*> cache_;
  std::vector<std::unique_ptr<LoadedClass>> owned_;
  // Per-slot "this substrate class is loaded (and unshadowed)" flags: the
  // load_framework repeat path checks one byte instead of hashing the
  // class name. Sized lazily on first use.
  std::vector<std::uint8_t> substrate_loaded_;
  MemoryMeter memory_;
};

/// Whole-world loader: materializes everything visible at construction.
class EagerLoader : public ClassProvider {
 public:
  /// Loads every class of the APK (main dex only when
  /// `include_secondary_dexes` is false, matching CID's behaviour) plus
  /// the entire framework image.
  EagerLoader(const Apk& apk, const DexFile& framework,
              bool include_secondary_dexes = false);

  const LoadedClass* load(const std::string& name) override;
  std::uint64_t loaded_class_count() const override;
  const MemoryMeter& memory() const override;

 private:
  void materialize(const DexFile& dex, bool from_framework);

  std::unordered_map<std::string, std::unique_ptr<LoadedClass>> cache_;
  MemoryMeter memory_;
};

}  // namespace saintdroid
