// Micro-benchmarks for the substrate layers (google-benchmark): container
// encode/decode, framework spec compilation and per-level image emission,
// ARM database mining, lazy class loading, CFG construction, guard
// dataflow, and a full per-app analysis.
#include <benchmark/benchmark.h>

#include "adf/repository.hpp"
#include "analysis/cfg.hpp"
#include "analysis/guards.hpp"
#include "clvm/clvm.hpp"
#include "core/saintdroid.hpp"
#include "workload/app_builder.hpp"
#include "workload/corpus.hpp"

namespace sd = saintdroid;

namespace {

const sd::FrameworkRepository& repo() {
  return sd::FrameworkRepository::standard();
}

sd::Apk make_app(std::uint64_t loc) {
  sd::AppBuilder b{"micro", "com.micro.app", repo().spec()};
  b.sdk(16, 26);
  b.api_call(sd::catalog::get_color_state_list());
  b.callback_override(sd::catalog::drawable_hotspot_changed());
  b.framework_breadth(20);
  b.pad_to(loc);
  return b.build().apk;
}

void BM_DexSerialize(benchmark::State& state) {
  const sd::Apk apk = make_app(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(apk.dexes.front().serialize());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(apk.dex_loc()));
}
BENCHMARK(BM_DexSerialize)->Arg(5000)->Arg(50000);

void BM_DexParse(benchmark::State& state) {
  const sd::Apk apk = make_app(static_cast<std::uint64_t>(state.range(0)));
  const auto bytes = apk.dexes.front().serialize();
  for (auto _ : state) benchmark::DoNotOptimize(sd::DexFile::parse(bytes));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_DexParse)->Arg(5000)->Arg(50000);

void BM_FrameworkImagePlan(benchmark::State& state) {
  const auto& spec = repo().spec();
  for (auto _ : state) benchmark::DoNotOptimize(sd::FrameworkImagePlan{spec});
}
BENCHMARK(BM_FrameworkImagePlan)->Unit(benchmark::kMillisecond);

void BM_FrameworkImageEmission(benchmark::State& state) {
  const sd::FrameworkImagePlan plan{repo().spec()};
  for (auto _ : state)
    benchmark::DoNotOptimize(plan.emit(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_FrameworkImageEmission)->Arg(16)->Arg(28);

void BM_ArmMining(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(sd::ApiDatabase::mine(repo()));
}
BENCHMARK(BM_ArmMining)->Unit(benchmark::kMillisecond);

void BM_LazyClassLoad(benchmark::State& state) {
  const sd::Apk apk = make_app(5000);
  const auto substrate = repo().substrate(26);
  for (auto _ : state) {
    sd::ClassLoaderVm vm{apk, substrate};
    benchmark::DoNotOptimize(vm.load("android/app/Activity"));
    benchmark::DoNotOptimize(vm.load("android/view/View"));
  }
}
BENCHMARK(BM_LazyClassLoad);

void BM_CfgBuild(benchmark::State& state) {
  const sd::Apk apk = make_app(20000);
  const sd::DexFile& dex = apk.dexes.front();
  for (auto _ : state) {
    for (const auto& cls : dex.classes())
      for (const auto& m : cls.methods)
        if (m.code && !m.code->insns.empty())
          benchmark::DoNotOptimize(sd::Cfg::build(*m.code));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dex.instruction_count()));
}
BENCHMARK(BM_CfgBuild);

void BM_GuardDataflow(benchmark::State& state) {
  const sd::Apk apk = make_app(20000);
  const sd::DexFile& dex = apk.dexes.front();
  for (auto _ : state) {
    for (const auto& cls : dex.classes())
      for (const auto& m : cls.methods) {
        if (!m.code || m.code->insns.empty()) continue;
        const sd::Cfg cfg = sd::Cfg::build(*m.code);
        benchmark::DoNotOptimize(sd::analyze_guards(
            dex, *m.code, cfg, sd::ApiInterval{16, 29}));
      }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dex.instruction_count()));
}
BENCHMARK(BM_GuardDataflow);

void BM_FullAnalysis(benchmark::State& state) {
  const sd::RealWorldCorpus corpus{repo()};
  const sd::BenchApp app = corpus.generate(static_cast<int>(state.range(0)));
  sd::SaintDroid tool{repo()};
  for (auto _ : state) benchmark::DoNotOptimize(tool.analyze(app.apk));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(app.apk.dex_loc()));
}
BENCHMARK(BM_FullAnalysis)->Arg(0)->Arg(7)->Arg(42)
    ->Unit(benchmark::kMillisecond);

}  // namespace
