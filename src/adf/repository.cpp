#include "adf/repository.hpp"

#include <algorithm>

#include "support/errors.hpp"
#include "support/faults.hpp"
#include "support/sdmc.hpp"

namespace saintdroid {

namespace {

std::atomic<std::uint64_t> g_framework_retries{0};

/// First attempt is not a retry; every re-entry after a failed build is.
void count_attempt(std::atomic<std::uint32_t>& attempts) {
  if (attempts.fetch_add(1, std::memory_order_relaxed) > 0)
    g_framework_retries.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::uint64_t framework_build_retries() {
  return g_framework_retries.load(std::memory_order_relaxed);
}

FrameworkRepository::FrameworkRepository(FrameworkConfig cfg)
    : cfg_(cfg),
      spec_(build_framework_spec(cfg_)),
      fingerprint_(framework_fingerprint(spec_)),
      plan_(spec_) {}

void FrameworkRepository::set_model_cache_dir(std::string dir) const {
  if (!dir.empty()) ensure_directory(dir);
  const std::lock_guard<std::mutex> lock{cache_dir_mutex_};
  model_cache_dir_ = std::move(dir);
}

std::string FrameworkRepository::model_cache_dir() const {
  const std::lock_guard<std::mutex> lock{cache_dir_mutex_};
  return model_cache_dir_;
}

const DexFile& FrameworkRepository::image(int level) const {
  const std::size_t slot_idx =
      static_cast<std::size_t>(clamp_level(level));
  auto& slot = images_[slot_idx];
  image_once_[slot_idx].call([&] {
    count_attempt(image_attempts_[slot_idx]);
    // A fault here propagates without satisfying the once-guard, so the
    // next caller retries the build — an injected repository failure
    // poisons one analysis, not the level, matching real transient I/O.
    SD_FAULT_POINT("adf.image");
    slot = plan_.emit(static_cast<int>(slot_idx));
  });
  return *slot;
}

std::shared_ptr<const FrameworkSubstrate> FrameworkRepository::substrate(
    int level) const {
  const int lvl = clamp_level(level);
  SubstrateSlot* slot = &substrates_[static_cast<std::size_t>(lvl)];
  // Build the image before entering the substrate's fault context so an
  // "adf.image" fault keeps its own (app-scoped) attribution.
  const DexFile& img = image(lvl);
  slot->once.call([&] {
    count_attempt(slot->attempts);
    // The substrate is a shared artifact with no single app owner, so its
    // fault point fires under a level-scoped context: a plan can poison
    // exactly one level's substrate and every analysis against that level
    // (and only that level) fails until the plan is disarmed — then the
    // unsatisfied once-guard simply rebuilds.
    const FaultContextScope scope{"substrate:level" + std::to_string(lvl)};
    SD_FAULT_POINT("adf.substrate");

    // Model cache: try rebinding persisted structural tables before paying
    // the full per-method instruction re-decode. A stale, foreign or
    // corrupt entry throws ParseError inside sdmc_open / the rebind
    // constructor and falls through to a full build, whose tables are then
    // published rename-atomically (overwriting the bad entry). Cache I/O
    // never fails the build itself.
    const std::string cache_dir = model_cache_dir();
    std::string cache_path;
    SdmcKey key;
    if (!cache_dir.empty()) {
      key.kind = SdmcKind::kSubstrateTables;
      key.fingerprint = fingerprint_;
      key.level = lvl;
      // Option bit 0 and the "-m1" suffix name the method tables every
      // substrate carries; both stay so existing cache entries still hit.
      key.options = 1u;
      cache_path = cache_dir + "/substrate-" + fingerprint_ + "-L" +
                   std::to_string(lvl) + "-m1.sdmc";
      try {
        if (const auto blob = read_file_bytes(cache_path)) {
          const std::vector<std::uint8_t> tables = sdmc_open(*blob, key);
          slot->value =
              std::make_shared<const FrameworkSubstrate>(img, lvl, tables);
          substrate_cache_hits_.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const Error&) {
        slot->value = nullptr;  // stale/corrupt entry: fall back to mining
      }
    }
    if (!slot->value) {
      slot->value = std::make_shared<const FrameworkSubstrate>(img, lvl);
      if (!cache_path.empty()) {
        try {
          write_file_atomic(cache_path,
                            sdmc_seal(key, slot->value->serialize_tables()));
          substrate_cache_stores_.fetch_add(1, std::memory_order_relaxed);
        } catch (const Error&) {
          // A read-only or full cache directory costs only the warm start.
        }
      }
    }
    substrate_builds_.fetch_add(1, std::memory_order_relaxed);
  });
  return slot->value;
}

int FrameworkRepository::clamp_level(int level) {
  return std::clamp(level, kMinApiLevel, kMaxApiLevel);
}

const FrameworkRepository& FrameworkRepository::standard() {
  static const FrameworkRepository repo{FrameworkConfig{}};
  return repo;
}

}  // namespace saintdroid
