// Fixed shape of every workload. BENCHMARK.json's "why" lines quote these;
// changing one changes the benchmark (and the input cache key below).
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// The seed the recorded oracle counts (kDefaultSeedScores) belong to.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Per-app analysis times per latency group of the batch-like workloads:
/// each group's p99 has 10 samples beyond it.
inline constexpr std::size_t kLatencyGroup = 1000;

/// Analysis workers of the batch-like workloads (batch --jobs, serve
/// --jobs, work-stealing agents). Capped at nproc - 1 at run time, so the
/// calling / intake thread never oversubscribes the host.
inline constexpr int kWorkers = 2;

// ---- corpus_batch / steal_batch -----------------------------------------
/// Apps per seeded draw from the 3,571-app RQ2 population (CorpusConfig
/// defaults), stratified so every seed draws a different corpus with the
/// same cost profile (see stratified_draw in inputs.cpp).
inline constexpr int kCorpusApps = 300;
/// Apps referencing at least this many framework classes form the draws'
/// breadth stratum (about 18% of the RQ2 population; library-heavy apps
/// reference 150-400).
inline constexpr std::uint64_t kHeavyBreadth = 100;
/// Ledger TP/FP/FN per family (API, APC, PRM, SEM, SDC) of the default
/// seed's draw, summed over its rows: the recorded oracle counts.
inline constexpr std::size_t kDefaultSeedScores[5][3] = {
    {5049, 940, 185}, {165, 0, 0}, {155, 0, 0}, {0, 0, 0}, {0, 0, 0}};
/// The same counts over the whole RQ2 population's reference rows, which
/// every seed's draw is taken from. `sdbench gen` and every corpus_batch
/// and steal_batch run check them, so at any seed the rows, which must
/// byte-equal their reference rows, are held to the seeded ledgers too.
inline constexpr std::size_t kRq2PopulationScores[5][3] = {
    {65429, 12181, 2162}, {1711, 0, 0}, {2031, 0, 0}, {0, 0, 0}, {0, 0, 0}};

// ---- update_revet --------------------------------------------------------
inline constexpr int kChains = 48;
inline constexpr int kChainVersions = 4;
/// Every kFallbackEvery-th chain edits MainActivity in its last bump,
/// which forces the incremental layer's full-analysis fallback.
/// Unverified: no published share of such updates backs it; it keeps the
/// fallback path in every run.
inline constexpr int kFallbackEvery = 8;

// ---- serve_open -----------------------------------------------------------
/// Distinct small packages per seed: a stratified draw, as for the corpus,
/// from a population of kServePopulation apps with bench_serve's size
/// profile (CorpusConfig with size_base 80, size_spread 1.3).
inline constexpr int kServeApps = 1200;
inline constexpr int kServePopulation = 3600;
/// Ledger TP/FP/FN per family over that population, from a reference pass
/// with the ledgers attached (the service itself scores against none);
/// checked like kRq2PopulationScores.
inline constexpr std::size_t kServePopulationScores[5][3] = {
    {65822, 12252, 2170}, {1733, 0, 0}, {2041, 0, 0}, {0, 0, 0}, {0, 0, 0}};
/// Share of requests that resubmit an already answered package.
/// Unverified: no published resubmission statistics back it; it is there
/// so that result-cache reads run beside the journal writes.
inline constexpr double kResubmitShare = 0.2;
/// Capacity the fixed rates are set from: serve.max_rps of the traced
/// serve_open run at the default seed with 2 workers on a 4-vCPU x86-64
/// VM, 2,357 req/s (the ladder's 2,480 req/s rung grew a backlog).
inline constexpr double kMeasuredMaxRps = 2357.0;
/// Fixed offered rates (requests/s) of the two latency points: a tenth of
/// that capacity, where the service idles, and three quarters, where
/// requests queue behind busy workers. At half of it p50 spread more
/// between runs (0.39 of its median against 0.06-0.23 at three quarters
/// over ten seeds each): idle workers pay the host's varying wake-up
/// latency on most requests.
inline constexpr double kLowRps = 240.0;
inline constexpr double kHighRps = 1770.0;
/// Requests per rate point: p99 then has 10 samples beyond it.
inline constexpr int kRequestsPerPoint = 1000;
/// The capacity point (apps_per_s): a closed loop that keeps this many
/// requests outstanding, below the admission queue so nothing is shed.
inline constexpr std::size_t kSaturationDepth = 16;
inline constexpr int kSaturationRequests = 2000;
/// The latency limit behind max_rps, on p99.
inline constexpr double kP99LimitMs = 25.0;
/// max_rps: coarse ladder kHighRps * kLadderStep^k, then bisection steps.
inline constexpr double kLadderStep = 1.5;
inline constexpr int kLadderRungs = 7;
inline constexpr int kBisections = 3;
/// Admission queue (`serve --queue`): deep enough that a host stall of a
/// few tens of ms at the fixed rates queues instead of shedding.
inline constexpr std::size_t kServeQueue = 64;

// ---- setup ----------------------------------------------------------------
/// Samples per untraced run, each its own process; the run reports each
/// kind's median.
inline constexpr int kColdSetups = 4;
inline constexpr int kWarmSetups = 8;

}  // namespace perfbench
