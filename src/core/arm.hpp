// ARM — Android Revision Modeler (paper §III-B).
//
// Mines the per-level framework images into the API database the detectors
// query: (1) the lifecycle of every public framework method (which levels
// define it), (2) the callback set (methods the framework itself invokes on
// app subclasses — mined from dispatch invocations, not from documentation
// or hand-built models), and (3) the PScout-style permission map, including
// permissions required *transitively* through framework-internal call
// chains. The database is built once per framework and reused across every
// app analysis.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "adf/repository.hpp"
#include "dex/ids.hpp"
#include "support/interval.hpp"

namespace saintdroid {

class SemanticTable;

class ApiDatabase {
 public:
  /// Mines every level image of `repo`. `repo` must outlive the database.
  /// The per-level scan passes fan out over `jobs` pool workers (0 = one
  /// per hardware thread; <= 1 = serial); results are merged level-by-level
  /// in level order on the calling thread, so the mined database — down to
  /// hash-map iteration order — is identical at every jobs value.
  static ApiDatabase mine(const FrameworkRepository& repo, int jobs = 0);

  /// The database is "constructed once for a given framework ... as a
  /// reusable model" (§III-B): serialize/parse persist it so later runs
  /// skip the mining pass entirely. parse() validates and throws
  /// ParseError on corrupt input; serialize(parse(b)) == b.
  std::vector<std::uint8_t> serialize() const;
  static ApiDatabase parse(std::span<const std::uint8_t> bytes);

  /// Paper Algorithm 2 line 6: is `method` defined at `level`?
  bool contains(const MethodId& method, int level) const;

  /// The contiguous interval of levels defining `method`, or nullopt when
  /// the method is unknown to the framework entirely.
  std::optional<ApiInterval> defined_levels(const MethodId& method) const;

  /// True when the framework invokes `method` on app subclasses (mined
  /// callback set, the input to Algorithm 3).
  bool is_callback(const MethodId& method) const;

  /// Permissions required to execute `method`, directly or through
  /// framework-internal calls; empty when none.
  const std::vector<std::string>& permissions_for(const MethodId& method) const;

  /// The semantic-change table riding alongside the signature data
  /// (docs/DETECTORS.md §SEM). mine() attaches the table mined from the
  /// repository's spec; parse() leaves it unattached (the table travels as
  /// its own .sdmc kind — see core/model_cache — and the cache re-attaches
  /// it after both loads), so serialize() stays a pure function of the
  /// signature data and warm/cold database bytes compare equal.
  void attach_semantics(std::shared_ptr<const SemanticTable> table) {
    semantics_ = std::move(table);
  }
  const SemanticTable* semantics() const { return semantics_.get(); }
  std::shared_ptr<const SemanticTable> shared_semantics() const {
    return semantics_;
  }

  /// True when `name` is a class defined at any mined level.
  bool is_known_class(const std::string& name) const;

  /// Fast pre-filter: does `cls` declare any method named `name` at any
  /// level? Lets override scans skip descriptor construction for the
  /// overwhelming majority of app methods.
  bool class_has_method_named(const std::string& cls,
                              const std::string& name) const;

  // Introspection for reports and tests.
  std::size_t method_count() const { return presence_.size(); }
  std::size_t callback_count() const { return callbacks_.size(); }
  std::size_t permission_mapping_count() const { return permissions_.size(); }

 private:
  // Bit l set <=> method defined at level l. 32 bits cover levels 2..29.
  std::unordered_map<MethodId, std::uint32_t> presence_;
  std::unordered_set<MethodId> callbacks_;
  std::unordered_map<MethodId, std::vector<std::string>> permissions_;
  std::unordered_set<std::string> classes_;
  // Class name -> names of the methods it declares at any level.
  std::unordered_map<std::string, std::unordered_set<std::string>>
      method_names_;
  std::shared_ptr<const SemanticTable> semantics_;
};

/// Process-wide database mined from FrameworkRepository::standard(); built
/// on first use.
const ApiDatabase& standard_api_database();

/// A shareable handle on the database for `repo`: the standard repository
/// borrows the process-wide standard_api_database() (non-owning aliasing
/// handle — no second mining pass, no copy), any other repository mines a
/// fresh owned database. The cheap default for components that accept an
/// injected database but are constructed without one (see the Lint and CID
/// baselines).
std::shared_ptr<const ApiDatabase> shared_api_database(
    const FrameworkRepository& repo);

}  // namespace saintdroid
