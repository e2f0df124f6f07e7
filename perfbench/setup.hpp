// Process set-up, measured in isolation: every sample is its own
// short-lived `sdbench setup` process. A sample so pays a real process
// start, builds a fresh FrameworkRepository (never
// FrameworkRepository::standard(), whose images would survive a first
// in-process sample and make later ones read low), and leaves nothing
// behind in the memory of the process that measures the workload.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "adf/repository.hpp"
#include "core/arm.hpp"

namespace perfbench {

/// A repository ready to analyze: the mined model loaded through the
/// on-disk model cache, and the image and substrate of every level the
/// inputs target built.
struct Model {
  std::unique_ptr<saintdroid::FrameworkRepository> repo;
  std::shared_ptr<const saintdroid::ApiDatabase> db;
  std::string cache_dir;
};

/// One kind of process start:
///  - batch: ModelCache::api_database (mining with `jobs` workers on a
///    miss, as `batch --jobs` does), then image + substrate per level, as
///    run_batch's warmup does;
///  - serve: the VetService constructor on a state directory (fresh
///    repository through ServeOptions::repository), then image + substrate
///    per level so the first requests do not pay them.
struct SetupSpec {
  bool serve = false;
  std::vector<int> levels;
  int jobs = 1;
};

/// Starts a model in this process on the cache (batch) or state (serve)
/// directory `dir`. Traced, its root span "setup" carries id 0 when `cold`
/// and 1 otherwise. A serve model's `db` is left empty.
Model start_model(const SetupSpec& spec, const std::string& dir, bool cold);

/// Takes set-up samples, each a child `sdbench setup` process timed from
/// just before it is spawned until it reports that it can analyze. The
/// first sample must be cold; warm samples reuse its directory.
class SetupSampler {
 public:
  SetupSampler(SetupSpec spec, std::string scratch);

  /// A start on an empty directory: mining, substrate builds, stores.
  void cold();
  /// A start on the first cold sample's populated directory.
  void warm();
  /// The first cold sample's directory.
  const std::string& warm_dir() const { return warm_dir_; }

  std::vector<double> cold_s;
  std::vector<double> warm_s;

 private:
  double sample(const std::string& dir) const;

  SetupSpec spec_;
  std::string scratch_;
  std::string warm_dir_;
};

/// The body of `sdbench setup`: starts a model on `dir`, prints the
/// monotonic_s() instant it became ready as its only stdout line, and
/// exits without tearing the model down.
[[noreturn]] void run_setup_process(const SetupSpec& spec,
                                    const std::string& dir);

}  // namespace perfbench
