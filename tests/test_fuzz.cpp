// Robustness fuzzing for the binary decoders: mutated, truncated and
// random byte streams must never crash, read out of bounds, or loop — the
// parser either throws ParseError or yields a container whose every index
// is valid.
//
// These are deterministic seeded sweeps (no external fuzzer needed), sized
// to run in well under a second per case.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>

#include <filesystem>
#include <fstream>

#include "temp_root.hpp"
#include "adf/image.hpp"
#include "adf/repository.hpp"
#include "core/arm.hpp"
#include "core/saintdroid.hpp"
#include "core/semantics.hpp"
#include "dex/apk.hpp"
#include "dex/builder.hpp"
#include "dex/disasm.hpp"
#include "core/outcome.hpp"
#include "dist/lease.hpp"
#include "dist/workdir.hpp"
#include "serve/codec.hpp"
#include "serve/state.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/sdmc.hpp"
#include "core/incr_cache.hpp"
#include "workload/app_builder.hpp"
#include "workload/corpus.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace saintdroid {
namespace {

std::vector<std::uint8_t> seed_bytes() {
  DexBuilder b;
  auto& cls = b.add_class("f/Seed", "android/app/Activity");
  auto& m = cls.add_method("go", "V", {"android/os/Bundle"});
  m.registers(6);
  m.sget_sdk_int(0);
  Label skip = m.new_label();
  m.if_lit(CmpOp::kLt, 0, 23, skip);
  m.const_string(1, "android.permission.CAMERA");
  m.invoke_virtual("android/content/Context", "getColorStateList",
                   "android/content/res/ColorStateList", {"I"});
  m.move_result(2);
  m.new_instance(3, "android/content/Intent");
  m.load_class(4, "f/Late");
  m.bind(skip);
  m.return_void();
  return b.build().serialize();
}

/// Consumes a parsed container completely: touches every pool entry and
/// every instruction through the public accessors (which contract-check
/// indices) and runs the disassembler over all of it.
void exercise(const DexFile& dex) {
  for (std::uint32_t i = 0; i < dex.type_count(); ++i) (void)dex.type_name(i);
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(dex.method_ref_count()); ++i)
    (void)dex.method_id_at(i);
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(dex.field_ref_count()); ++i)
    (void)dex.field_id_at(i);
  (void)disassemble(dex);
  (void)dex.footprint_bytes();
}

class ByteFlip : public ::testing::TestWithParam<int> {};

TEST_P(ByteFlip, SingleMutationNeverCrashes) {
  const auto base = seed_bytes();
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  for (int trial = 0; trial < 400; ++trial) {
    auto bytes = base;
    const auto pos = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    try {
      const DexFile dex = DexFile::parse(bytes);
      exercise(dex);  // accepted inputs must be fully traversable
    } catch (const ParseError&) {
      // rejected: fine
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteFlip, ::testing::Range(1, 9));

TEST(Fuzz, EveryTruncationRejectsOrParses) {
  const auto base = seed_bytes();
  for (std::size_t cut = 0; cut < base.size(); ++cut) {
    std::span<const std::uint8_t> window(base.data(), cut);
    try {
      const DexFile dex = DexFile::parse(window);
      exercise(dex);
    } catch (const ParseError&) {
    }
  }
}

TEST(Fuzz, RandomBytesNeverCrash) {
  Rng rng{0xF422ULL};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(rng.uniform(0, 400)));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    // Half the trials get the valid magic so deeper paths are reached.
    if (bytes.size() >= 8 && rng.chance(0.5)) {
      bytes[0] = 0x53; bytes[1] = 0x44; bytes[2] = 0x45; bytes[3] = 0x58;
      bytes[4] = 1; bytes[5] = 0; bytes[6] = 0; bytes[7] = 0;
    }
    try {
      const DexFile dex = DexFile::parse(bytes);
      exercise(dex);
    } catch (const ParseError&) {
    }
  }
}

TEST(Fuzz, ApkContainerMutations) {
  AppBuilder b{"fuzz", "com.fuzz.app", FrameworkRepository::standard().spec()};
  b.sdk(16, 26);
  b.api_call(catalog::get_color_state_list(), GuardMode::kNone,
             Placement::kSecondaryDex);
  const auto base = b.build().apk.serialize();
  Rng rng{0xA99ULL};
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = base;
    const int mutations = static_cast<int>(rng.uniform(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    }
    try {
      const Apk apk = Apk::parse(bytes);
      for (const auto& dex : apk.dexes) exercise(dex);
      (void)apk.manifest.supported_range();
    } catch (const ParseError&) {
    }
  }
}

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const auto b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

// The decoder's verdicts, pinned to the reference decoder's. Inputs are
// every truncation of a two-dex APK (so cuts land inside the second dex
// window and on its boundaries) plus a seeded set of single-bit flips. The
// digest folds in, per input, whether Apk::parse accepted it and, if so,
// the bytes the accepted APK re-serializes to: a decoder that accepts
// anything the reference rejected, or decodes anything differently, moves
// the digest.
TEST(Fuzz, ApkDecoderVerdictsArePinned) {
  AppBuilder b{"verdicts", "com.fuzz.verdicts",
               FrameworkRepository::standard().spec()};
  b.sdk(16, 26);
  b.api_call(catalog::get_color_state_list(), GuardMode::kNone,
             Placement::kSecondaryDex);
  b.api_call(catalog::get_color_state_list(), GuardMode::kLocalViaField);
  b.pad_to(200);
  const Apk app = b.build().apk;
  ASSERT_EQ(app.dexes.size(), 2u);
  const auto base = app.serialize();

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t accepted = 0;
  const auto judge = [&](std::span<const std::uint8_t> input) {
    std::uint8_t verdict = 0;
    std::vector<std::uint8_t> decoded;
    try {
      decoded = Apk::parse(input).serialize();
      verdict = 1;
    } catch (const ParseError&) {
    }
    accepted += verdict;
    digest = fnv1a(digest, {&verdict, 1});
    digest = fnv1a(digest, decoded);
  };
  for (std::size_t cut = 0; cut <= base.size(); ++cut)
    judge({base.data(), cut});
  Rng rng{0xD1E5ULL};
  for (int trial = 0; trial < 4000; ++trial) {
    auto bytes = base;
    const auto pos = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
    judge(bytes);
  }
  // Reference values, recorded with the copy-per-window decoder.
  EXPECT_EQ(base.size(), 3694u);
  EXPECT_EQ(accepted, 2644u);
  EXPECT_EQ(digest, 0x033f6e710699eadbULL);
}

TEST(Fuzz, FrameworkImageTruncationSweep) {
  // The framework image is itself an SDEX container; a damaged on-disk
  // framework must fail exactly like a damaged app: ParseError, never a
  // contract abort or an out-of-bounds read.
  const auto base =
      emit_framework_image(FrameworkRepository::standard().spec(), 23)
          .serialize();
  for (std::size_t cut = 0; cut < base.size();
       cut += 1 + cut / 64) {  // denser probing near the header
    std::span<const std::uint8_t> window(base.data(), cut);
    try {
      const DexFile dex = DexFile::parse(window);
      exercise(dex);
    } catch (const ParseError&) {
    }
  }
}

TEST(Fuzz, FrameworkImageBitFlipSweep) {
  const auto base =
      emit_framework_image(FrameworkRepository::standard().spec(), 23)
          .serialize();
  Rng rng{0xADFULL};
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = base;
    const auto pos = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    try {
      const DexFile dex = DexFile::parse(bytes);
      exercise(dex);
    } catch (const ParseError&) {
    }
  }
}

TEST(Fuzz, ApiDatabaseTruncationAndBitFlipSweep) {
  // The persisted ARM database (`saintdroid mine` output) gets the same
  // treatment: every damaged load either throws ParseError or yields a
  // database whose accessors are safe to call.
  const auto base =
      ApiDatabase::mine(FrameworkRepository::standard()).serialize();
  for (std::size_t cut = 0; cut < base.size(); cut += 1 + cut / 64) {
    std::span<const std::uint8_t> window(base.data(), cut);
    try {
      const ApiDatabase db = ApiDatabase::parse(window);
      (void)db.method_count();
      (void)db.callback_count();
      (void)db.permission_mapping_count();
    } catch (const ParseError&) {
    }
  }
  Rng rng{0xA2BULL};
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = base;
    const auto pos = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    try {
      const ApiDatabase db = ApiDatabase::parse(bytes);
      (void)db.method_count();
      (void)db.callback_count();
      (void)db.permission_mapping_count();
    } catch (const ParseError&) {
    }
  }
}

TEST(Fuzz, AcceptedMutantsSurviveAnalysis) {
  // The strongest end-to-end property: if a mutated package parses, the
  // full analyzer must process it without crashing (unresolvable garbage
  // degrades conservatively, like unanalyzable late-bound code).
  AppBuilder b{"fuzz2", "com.fuzz.app2",
               FrameworkRepository::standard().spec()};
  b.sdk(16, 26);
  b.api_call(catalog::get_color_state_list());
  b.callback_override(catalog::on_attach_context());
  const auto base = b.build().apk.serialize();
  SaintDroid tool{FrameworkRepository::standard()};
  Rng rng{0xE2EULL};
  int analyzed = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto bytes = base;
    const auto pos = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    try {
      const Apk apk = Apk::parse(bytes);
      const AnalysisResult result = tool.analyze(apk);
      (void)result.to_text(apk.name);
      ++analyzed;
    } catch (const ParseError&) {
    }
  }
  // Some mutants must survive parsing or the test proves nothing.
  EXPECT_GT(analyzed, 0);
}

// --- model-cache (.sdmc) poisoning -------------------------------------------
//
// The model cache is the one artifact a process trusts *instead of*
// recomputing, so a poisoned entry is the worst-case input: it must throw
// ParseError — never crash, and never load silently into a wrong model.
// sdmc_open's contract is throw-on-every-defect; the cache layers catch and
// re-mine. A small framework keeps the sweeps tractable.

/// Small framework shared by the sdmc sweeps (built once — mining even a
/// 30-class spec per test case would dominate the suite).
const FrameworkRepository& sdmc_fuzz_repo() {
  static const FrameworkRepository repo{[] {
    FrameworkConfig cfg;
    cfg.bulk_classes = 30;
    cfg.bulk_packages = 4;
    return cfg;
  }()};
  return repo;
}

SdmcKey sdmc_fuzz_key(SdmcKind kind, int level = 0) {
  SdmcKey key;
  key.kind = kind;
  key.fingerprint = sdmc_fuzz_repo().fingerprint();
  key.level = level;
  key.options = kind == SdmcKind::kSubstrateTables ? 1u : 0u;
  return key;
}

TEST(SdmcFuzz, EveryTruncationThrows) {
  const auto& repo = sdmc_fuzz_repo();
  const SdmcKey key = sdmc_fuzz_key(SdmcKind::kApiDatabase);
  const auto blob = sdmc_seal(key, ApiDatabase::mine(repo, 1).serialize());
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    std::span<const std::uint8_t> window(blob.data(), cut);
    EXPECT_THROW((void)sdmc_open(window, key), ParseError) << "cut=" << cut;
  }
}

TEST(SdmcFuzz, EveryBitFlipThrows) {
  // Exhaustive over positions (one random flip per byte): wherever the
  // damage lands — magic, version, key, checksum, size, payload — the open
  // must throw. A flip that leaves the header fields valid is exactly what
  // the payload checksum exists to catch.
  const auto& repo = sdmc_fuzz_repo();
  const SdmcKey key = sdmc_fuzz_key(SdmcKind::kApiDatabase);
  const auto base = sdmc_seal(key, ApiDatabase::mine(repo, 1).serialize());
  Rng rng{0x5D3CULL};
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    auto blob = base;
    blob[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    EXPECT_THROW((void)sdmc_open(blob, key), ParseError) << "pos=" << pos;
  }
}

TEST(SdmcFuzz, VersionAndKeySplicesThrow) {
  // Splices model real-world staleness rather than random damage: entries
  // written by an older container version, for a different framework, a
  // different level, different options, or a different kind. Every one
  // must be refused at open.
  const auto& repo = sdmc_fuzz_repo();
  const auto payload = ApiDatabase::mine(repo, 1).serialize();
  const SdmcKey key = sdmc_fuzz_key(SdmcKind::kApiDatabase);

  {
    // Old container version (the header's version field is bytes 4..7).
    auto blob = sdmc_seal(key, payload);
    blob[4] = static_cast<std::uint8_t>(kSdmcFormatVersion - 1);
    EXPECT_THROW((void)sdmc_open(blob, key), ParseError);
    blob[4] = static_cast<std::uint8_t>(kSdmcFormatVersion + 1);
    EXPECT_THROW((void)sdmc_open(blob, key), ParseError);
  }
  {
    // Foreign framework: sealed under another fingerprint.
    SdmcKey foreign = key;
    foreign.fingerprint = "0123456789abcdef";
    EXPECT_THROW((void)sdmc_open(sdmc_seal(foreign, payload), key),
                 ParseError);
    // ...and the dual: opened with a foreign expectation.
    EXPECT_THROW((void)sdmc_open(sdmc_seal(key, payload), foreign),
                 ParseError);
  }
  {
    SdmcKey other = key;
    other.kind = SdmcKind::kSubstrateTables;
    EXPECT_THROW((void)sdmc_open(sdmc_seal(other, payload), key), ParseError);
  }
  {
    SdmcKey other = key;
    other.level = 23;
    EXPECT_THROW((void)sdmc_open(sdmc_seal(other, payload), key), ParseError);
  }
  {
    SdmcKey other = key;
    other.options = 1;
    EXPECT_THROW((void)sdmc_open(sdmc_seal(other, payload), key), ParseError);
  }
  {
    // Payload transplant: a valid header spliced onto another entry's valid
    // payload — the checksum no longer matches.
    const std::vector<std::uint8_t> other_payload(payload.size(), 0x5A);
    const auto donor = sdmc_seal(key, other_payload);
    auto blob = sdmc_seal(key, payload);
    std::copy(donor.end() - static_cast<std::ptrdiff_t>(payload.size()),
              donor.end(),
              blob.end() - static_cast<std::ptrdiff_t>(payload.size()));
    EXPECT_THROW((void)sdmc_open(blob, key), ParseError);
  }
  {
    // Trailing garbage after a well-formed container.
    auto blob = sdmc_seal(key, payload);
    blob.push_back(0);
    EXPECT_THROW((void)sdmc_open(blob, key), ParseError);
  }
}

TEST(SdmcFuzz, SemanticTableEveryTruncationThrows) {
  // The new kSemanticTable kind (container format v2) gets the full
  // treatment: a damaged semtab entry must throw at open — the cache then
  // re-derives — never load silently into a wrong change table.
  const auto& repo = sdmc_fuzz_repo();
  const SdmcKey key = sdmc_fuzz_key(SdmcKind::kSemanticTable);
  const auto payload = mine_semantic_table(repo.spec()).serialize();
  const auto blob = sdmc_seal(key, payload);
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    std::span<const std::uint8_t> window(blob.data(), cut);
    EXPECT_THROW((void)sdmc_open(window, key), ParseError) << "cut=" << cut;
  }
  // Past the container, the inner SMTB decoder rejects every truncation
  // from its own bounds checks.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    std::span<const std::uint8_t> window(payload.data(), cut);
    EXPECT_THROW((void)SemanticTable::parse(window), ParseError)
        << "cut=" << cut;
  }
}

TEST(SdmcFuzz, SemanticTableEveryBitFlipThrowsOrParsesCanonically) {
  const auto& repo = sdmc_fuzz_repo();
  const SdmcKey key = sdmc_fuzz_key(SdmcKind::kSemanticTable);
  const auto payload = mine_semantic_table(repo.spec()).serialize();
  // Sealed container: any flip anywhere must throw (payload checksum).
  const auto base = sdmc_seal(key, payload);
  Rng rng{0x5E317ABULL};
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    auto blob = base;
    blob[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    EXPECT_THROW((void)sdmc_open(blob, key), ParseError) << "pos=" << pos;
  }
  // Bare SMTB payload: a flip either throws or yields a table whose
  // re-serialization is a fixed point of the flipped input (the
  // canonical-order byte-compare inside parse guarantees exactly this),
  // with every accessor safe to call.
  for (std::size_t pos = 0; pos < payload.size(); ++pos) {
    auto bytes = payload;
    bytes[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    try {
      const SemanticTable table = SemanticTable::parse(bytes);
      EXPECT_EQ(table.serialize(), bytes);
      for (const auto& row : table.rows())
        (void)table.changes_for(row.method);
    } catch (const ParseError&) {
    }
  }
}

TEST(SdmcFuzz, SemanticTableVersionAndKindSplicesThrow) {
  // Staleness splices for the new kind: a semtab written by a pre-v2
  // container, an apidb entry renamed into the semtab slot (and the dual),
  // and a foreign-framework seal must all be refused at open.
  const auto& repo = sdmc_fuzz_repo();
  const auto payload = mine_semantic_table(repo.spec()).serialize();
  const SdmcKey key = sdmc_fuzz_key(SdmcKind::kSemanticTable);

  {
    auto blob = sdmc_seal(key, payload);
    blob[4] = static_cast<std::uint8_t>(kSdmcFormatVersion - 1);
    EXPECT_THROW((void)sdmc_open(blob, key), ParseError);
    blob[4] = static_cast<std::uint8_t>(kSdmcFormatVersion + 1);
    EXPECT_THROW((void)sdmc_open(blob, key), ParseError);
  }
  {
    // Kind splice both ways: the container's kind field, not the file
    // name, is authoritative.
    SdmcKey apidb = sdmc_fuzz_key(SdmcKind::kApiDatabase);
    EXPECT_THROW((void)sdmc_open(sdmc_seal(apidb, payload), key), ParseError);
    EXPECT_THROW((void)sdmc_open(sdmc_seal(key, payload), apidb), ParseError);
  }
  {
    SdmcKey foreign = key;
    foreign.fingerprint = "fedcba9876543210";
    EXPECT_THROW((void)sdmc_open(sdmc_seal(foreign, payload), key),
                 ParseError);
  }
  {
    // Trailing garbage after a well-formed SMTB payload must be refused —
    // the canonical byte-compare inside parse requires serialize(parse(b))
    // to reproduce b exactly, extra bytes included.
    auto bytes = payload;
    bytes.push_back(0);
    EXPECT_THROW((void)SemanticTable::parse(bytes), ParseError);
  }
}

TEST(SdmcFuzz, SubstrateTableTruncationRejectsInRebind) {
  // Past the container, the inner substrate-tables decoder gets the same
  // sweep: a truncated payload handed straight to the rebind constructor
  // must throw ParseError from its own bounds checks, never crash.
  const auto& repo = sdmc_fuzz_repo();
  const int level = 23;
  const auto base = repo.substrate(level)->serialize_tables();
  const DexFile& img = repo.image(level);
  for (std::size_t cut = 0; cut < base.size(); cut += 1 + cut / 64) {
    std::span<const std::uint8_t> window(base.data(), cut);
    EXPECT_THROW(
        (void)FrameworkSubstrate(img, level, window),
        ParseError)
        << "cut=" << cut;
  }
}

TEST(SdmcFuzz, SubstrateTableBitFlipsRejectOrRebindSafely) {
  // Bit-flips may survive the structural checks (e.g. a flipped byte inside
  // a stored descriptor string still parses); an accepted rebind must then
  // be a fully-formed substrate — every class, method and edge traversable.
  const auto& repo = sdmc_fuzz_repo();
  const int level = 23;
  const auto base = repo.substrate(level)->serialize_tables();
  const DexFile& img = repo.image(level);
  Rng rng{0x5DB17ULL};
  int rebound = 0;
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = base;
    const auto pos = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    try {
      const FrameworkSubstrate sub{img, level, bytes};
      (void)sub.serialize_tables();  // walks every entry, method and edge
      ++rebound;
    } catch (const ParseError&) {
    }
  }
  // The checksum lives in the container, not here — some flips must
  // survive or this proves the decoder rejects everything.
  (void)rebound;
}

// --- journal line fuzzing ------------------------------------------------------
//
// The suite journal is the one format other *processes* hand us (shard
// journals cross machine boundaries before merge-journals reads them), so
// its line parsers get the same treatment as the binary decoders: any
// damaged line must yield nullopt or a fully-formed row — never a crash.

/// A row exercising every field: escapes in strings, a structured failure,
/// nonzero scores in all three families, and resource usage.
SuiteAppRow rich_row() {
  SuiteAppRow row;
  row.app = "fuzz-app \"quoted\"\n\tand\\slashed";
  row.completed = false;
  row.incomplete = true;
  row.failure_reason = "reason with \x01 control bytes";
  AnalysisFailure failure;
  failure.kind = FailureKind::kInjected;
  failure.phase = "model";
  failure.message = "injected fault at clvm.materialize";
  row.failure = failure;
  row.mismatch_count = 17;
  row.scores.api = {3, 1, 2};
  row.scores.apc = {0, 0, 5};
  row.scores.prm = {1, 0, 0};
  row.scores.sem = {2, 0, 1};  // nonzero: the sparse sem/sdc fields emit
  row.scores.sdc = {1, 1, 0};
  row.usage.seconds = 0.25;
  row.usage.peak_bytes = 123456;
  row.usage.loaded_classes = 42;
  return row;
}

/// Touches every field of an accepted row, so a malformed-but-accepted
/// parse that left dangling state would be caught by sanitizers.
void exercise_row(const SuiteAppRow& row) {
  (void)row.app.size();
  (void)row.failure_reason.size();
  if (row.failure.has_value()) {
    (void)failure_kind_name(row.failure->kind);
    (void)row.failure->phase.size();
    (void)row.failure->message.size();
  }
  (void)canonical_row_bytes(row);  // re-serialization must also be safe
}

TEST(JournalFuzz, EveryTruncationRejectsOrParses) {
  const std::string line = journal_line(rich_row());
  for (std::size_t cut = 0; cut <= line.size(); ++cut) {
    const auto parsed = parse_journal_line(line.substr(0, cut));
    if (parsed.has_value()) exercise_row(*parsed);
    // Only the full line is balanced JSON; every proper prefix is cut
    // mid-object and must be rejected.
    EXPECT_EQ(parsed.has_value(), cut == line.size());
  }
  JournalHeader header;
  header.corpus = "0123456789abcdef";
  header.shard_index = 2;
  header.shard_count = 7;
  header.tool = "fuzz";
  const std::string head = journal_header_line(header);
  for (std::size_t cut = 0; cut <= head.size(); ++cut) {
    const auto parsed = parse_journal_header(head.substr(0, cut));
    EXPECT_EQ(parsed.has_value(), cut == head.size());
  }
}

TEST(JournalFuzz, BitFlippedLinesNeverCrash) {
  const std::string base = journal_line(rich_row());
  Rng rng{0x70A57ULL};
  for (int trial = 0; trial < 600; ++trial) {
    std::string line = base;
    const int mutations = static_cast<int>(rng.uniform(1, 3));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(line.size()) - 1));
      line[pos] = static_cast<char>(
          static_cast<unsigned char>(line[pos]) ^
          static_cast<unsigned char>(rng.uniform(1, 255)));
    }
    const auto parsed = parse_journal_line(line);
    if (parsed.has_value()) exercise_row(*parsed);
    (void)parse_journal_header(line);  // header probe must be equally safe
  }
}

TEST(JournalFuzz, InterleavedLineSplicesNeverCrash) {
  // Two processes writing one journal without the append discipline would
  // interleave arbitrary line fragments; the reader must shrug them off.
  const std::string a = journal_line(rich_row());
  SuiteAppRow other;
  other.app = "other-app";
  other.mismatch_count = 2;
  const std::string b = journal_line(other);
  Rng rng{0x5B11CEULL};
  for (int trial = 0; trial < 600; ++trial) {
    const auto cut_a = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(a.size())));
    const auto cut_b = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(b.size())));
    const std::string spliced = a.substr(0, cut_a) + b.substr(cut_b);
    const auto parsed = parse_journal_line(spliced);
    if (parsed.has_value()) exercise_row(*parsed);
  }
}

// --- Serve wire protocol and state-dir robustness -------------------------
//
// The daemon reads request lines from untrusted clients and re-reads its
// own state directory after a crash; both surfaces get the journal
// treatment: every truncation and bit-flip is a structured error
// (ParseError or nullopt), never a crash, and corrupt state-dir lines are
// skipped without poisoning the parseable ones around them.

std::string rich_serve_response_line() {
  ServeResponse response;
  response.id = "r-fuzz";
  response.status = ServeStatus::kDone;
  response.fingerprint = "00f1ce00deadbeef";
  response.cached = true;
  response.row = rich_row();
  return serve_response_line(response);
}

TEST(ServeFuzz, RequestTruncationSweepThrowsStructuredErrors) {
  ServeRequest request;
  request.id = "r\"1\\x";  // JSON-hostile id must round-trip
  request.apk_path = "/tmp/weird \"path\"/app.apk";
  request.deadline_seconds = 2.5;
  const std::string line = serve_request_line(request);
  const ServeRequest full = parse_serve_request(line);
  EXPECT_EQ(full.id, request.id);
  EXPECT_EQ(full.apk_path, request.apk_path);
  for (std::size_t cut = 0; cut < line.size(); ++cut)
    EXPECT_THROW((void)parse_serve_request(line.substr(0, cut)), ParseError);
}

TEST(ServeFuzz, RequestBitFlipsNeverCrash) {
  const std::string base =
      serve_request_line({"r1", "/corpus/app-0001.apk", 1.0});
  Rng rng{0x5EF1AULL};
  for (int trial = 0; trial < 600; ++trial) {
    std::string line = base;
    const int mutations = static_cast<int>(rng.uniform(1, 3));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(line.size()) - 1));
      line[pos] = static_cast<char>(
          static_cast<unsigned char>(line[pos]) ^
          static_cast<unsigned char>(rng.uniform(1, 255)));
    }
    try {
      const ServeRequest parsed = parse_serve_request(line);
      (void)parsed.id.size();  // survivors must be usable
      (void)parsed.apk_path.size();
    } catch (const ParseError&) {
      // Structured rejection — the daemon answers "bad-request".
    }
  }
}

TEST(ServeFuzz, ResponseAndStateLineSweepsRejectOrParse) {
  const std::string response = rich_serve_response_line();
  const std::string accepted = accepted_request_line(
      {"r1", "00f1ce00deadbeef", "app-0001", "/corpus/app-0001.apk"});
  const std::string result = result_line("00f1ce00deadbeef", rich_row());
  for (const std::string& line : {response, accepted, result}) {
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
      const auto prefix = line.substr(0, cut);
      EXPECT_FALSE(parse_serve_response(prefix).has_value());
      EXPECT_FALSE(parse_accepted_request(prefix).has_value());
      EXPECT_FALSE(parse_result_line(prefix).has_value());
    }
  }
  // The full lines parse through their own parser, and the merged-key rows
  // survive the exercise_row treatment.
  const auto parsed_response = parse_serve_response(response);
  ASSERT_TRUE(parsed_response.has_value());
  ASSERT_TRUE(parsed_response->row.has_value());
  exercise_row(*parsed_response->row);
  ASSERT_TRUE(parse_accepted_request(accepted).has_value());
  const auto parsed_result = parse_result_line(result);
  ASSERT_TRUE(parsed_result.has_value());
  exercise_row(parsed_result->row);
}

TEST(ServeFuzz, ResponseBitFlipsNeverCrash) {
  const std::string base = rich_serve_response_line();
  Rng rng{0x5EF2BULL};
  for (int trial = 0; trial < 600; ++trial) {
    std::string line = base;
    const int mutations = static_cast<int>(rng.uniform(1, 3));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(line.size()) - 1));
      line[pos] = static_cast<char>(
          static_cast<unsigned char>(line[pos]) ^
          static_cast<unsigned char>(rng.uniform(1, 255)));
    }
    if (const auto parsed = parse_serve_response(line);
        parsed.has_value() && parsed->row.has_value())
      exercise_row(*parsed->row);
    if (const auto parsed = parse_accepted_request(line)) {
      (void)parsed->fingerprint.size();
    }
    if (const auto parsed = parse_result_line(line)) exercise_row(parsed->row);
  }
}

TEST(ServeFuzz, CorruptStateDirFilesLoadWithoutCrashing) {
  // A state directory mauled by a crash: torn tails, bit-flipped lines,
  // binary garbage spliced between valid records. RequestJournal::load and
  // the ResultCache constructor must skip the damage and keep the rest.
  const std::string root = process_temp_path("serve_fuzz_state");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const AcceptedRequest keep{"r-keep", "1111222233334444", "app-keep",
                             "/corpus/app-keep.apk"};
  const std::string good_result = result_line("1111222233334444", rich_row());
  Rng rng{0x57A7EULL};
  for (int trial = 0; trial < 40; ++trial) {
    std::string requests = accepted_request_line(keep) + "\n";
    std::string results = good_result + "\n";
    // Damage: a bit-flipped copy, raw garbage, and a torn tail.
    std::string mangled = accepted_request_line(
        {"r-bad", "5555666677778888", "app-bad", "/corpus/app-bad.apk"});
    const auto pos = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(mangled.size()) - 1));
    mangled[pos] = static_cast<char>(
        static_cast<unsigned char>(mangled[pos]) ^
        static_cast<unsigned char>(rng.uniform(1, 255)));
    requests += mangled + "\n";
    for (int g = 0; g < 8; ++g)
      requests += static_cast<char>(rng.uniform(1, 255));
    requests += "\n";
    requests += accepted_request_line(keep).substr(
        0, static_cast<std::size_t>(
               rng.uniform(0, static_cast<std::int64_t>(
                                  accepted_request_line(keep).size()))));
    results += good_result.substr(
        0, static_cast<std::size_t>(rng.uniform(
               0, static_cast<std::int64_t>(good_result.size()))));
    {
      std::ofstream out{root + "/requests.jsonl",
                        std::ios::binary | std::ios::trunc};
      out << requests;
      std::ofstream res{root + "/results.jsonl",
                        std::ios::binary | std::ios::trunc};
      res << results;
    }
    const auto loaded = RequestJournal::load(root + "/requests.jsonl");
    ASSERT_GE(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].id, keep.id);
    // The cache ctor seals the torn tail and keeps appending afterwards.
    ResultCache cache{root + "/results.jsonl"};
    ASSERT_TRUE(cache.find("1111222233334444").has_value());
    cache.put("9999aaaabbbbcccc", rich_row());
    ResultCache reloaded{root + "/results.jsonl"};
    EXPECT_TRUE(reloaded.find("9999aaaabbbbcccc").has_value());
  }
  std::filesystem::remove_all(root);
}

TEST(JournalFuzz, RandomizedRowsRoundTripThroughTheirLine) {
  Rng rng{0xD0E5ULL};
  const auto random_text = [&rng]() {
    std::string text(static_cast<std::size_t>(rng.uniform(0, 24)), '\0');
    for (auto& c : text) {
      // Bias toward JSON-hostile bytes: quotes, backslashes, newlines and
      // other control characters; never NUL.
      if (rng.chance(0.3)) {
        static const char hostile[] = {'"', '\\', '\n', '\t', '\r',
                                       '\x01', '\x1f', '{', '}', ','};
        c = hostile[rng.uniform(0, 9)];
      } else {
        c = static_cast<char>(rng.uniform(32, 126));
      }
    }
    return text;
  };
  static const FailureKind kinds[] = {FailureKind::kParse,
                                      FailureKind::kResolve,
                                      FailureKind::kConfig,
                                      FailureKind::kInjected,
                                      FailureKind::kInternal};
  for (int trial = 0; trial < 300; ++trial) {
    SuiteAppRow row;
    row.app = random_text();
    row.completed = rng.chance(0.7);
    row.incomplete = rng.chance(0.2);
    row.failure_reason = random_text();
    if (!row.completed || rng.chance(0.2)) {
      AnalysisFailure failure;
      failure.kind = kinds[rng.uniform(0, 4)];
      failure.phase = random_text();
      failure.message = random_text();
      row.failure = failure;  // error-outcome rows are journal citizens too
    }
    row.mismatch_count = static_cast<std::size_t>(rng.uniform(0, 1 << 20));
    const auto score = [&rng] {
      return Score{static_cast<std::size_t>(rng.uniform(0, 1000)),
                   static_cast<std::size_t>(rng.uniform(0, 1000)),
                   static_cast<std::size_t>(rng.uniform(0, 1000))};
    };
    row.scores.api = score();
    row.scores.apc = score();
    row.scores.prm = score();
    // Half the trials leave sem/sdc all-zero to exercise the sparse-emit
    // path (absent fields must read back as zeros and re-emit absent).
    row.scores.sem = rng.chance(0.5) ? score() : Score{};
    row.scores.sdc = rng.chance(0.5) ? score() : Score{};
    row.usage.seconds = rng.uniform01() * 1000.0;
    // JSON numbers ride through a double: integers round-trip exactly up
    // to 2^53, which is the journal's stated integer range (a peak_bytes
    // beyond it would claim >9 PB of resident memory).
    row.usage.peak_bytes =
        static_cast<std::uint64_t>(rng.uniform(0, (1LL << 53) - 1));
    row.usage.loaded_classes =
        static_cast<std::uint64_t>(rng.uniform(0, 1 << 30));

    const std::string line = journal_line(row);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const auto parsed = parse_journal_line(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->app, row.app);
    EXPECT_EQ(parsed->completed, row.completed);
    EXPECT_EQ(parsed->incomplete, row.incomplete);
    EXPECT_EQ(parsed->failure_reason, row.failure_reason);
    ASSERT_EQ(parsed->failure.has_value(), row.failure.has_value());
    if (row.failure.has_value()) {
      EXPECT_EQ(parsed->failure->kind, row.failure->kind);
      EXPECT_EQ(parsed->failure->phase, row.failure->phase);
      EXPECT_EQ(parsed->failure->message, row.failure->message);
    }
    EXPECT_EQ(parsed->mismatch_count, row.mismatch_count);
    EXPECT_EQ(parsed->scores.api.tp, row.scores.api.tp);
    EXPECT_EQ(parsed->scores.api.fp, row.scores.api.fp);
    EXPECT_EQ(parsed->scores.api.fn, row.scores.api.fn);
    EXPECT_EQ(parsed->scores.apc.tp, row.scores.apc.tp);
    EXPECT_EQ(parsed->scores.apc.fp, row.scores.apc.fp);
    EXPECT_EQ(parsed->scores.apc.fn, row.scores.apc.fn);
    EXPECT_EQ(parsed->scores.prm.tp, row.scores.prm.tp);
    EXPECT_EQ(parsed->scores.prm.fp, row.scores.prm.fp);
    EXPECT_EQ(parsed->scores.prm.fn, row.scores.prm.fn);
    EXPECT_EQ(parsed->scores.sem.tp, row.scores.sem.tp);
    EXPECT_EQ(parsed->scores.sem.fp, row.scores.sem.fp);
    EXPECT_EQ(parsed->scores.sem.fn, row.scores.sem.fn);
    EXPECT_EQ(parsed->scores.sdc.tp, row.scores.sdc.tp);
    EXPECT_EQ(parsed->scores.sdc.fp, row.scores.sdc.fp);
    EXPECT_EQ(parsed->scores.sdc.fn, row.scores.sdc.fn);
    EXPECT_EQ(parsed->usage.peak_bytes, row.usage.peak_bytes);
    EXPECT_EQ(parsed->usage.loaded_classes, row.usage.loaded_classes);
    // seconds crosses a 6-significant-digit text representation; it is the
    // one field the contract only carries approximately (and the one field
    // canonical_row_bytes zeroes out of byte-identity comparisons).
    EXPECT_NEAR(parsed->usage.seconds, row.usage.seconds,
                row.usage.seconds * 1e-5 + 1e-9);
    // Serialization is a fixed point: re-emitting the parsed row must
    // reproduce the exact line (this is what merge dedup relies on).
    EXPECT_EQ(journal_line(*parsed), line);
  }
}

// --- work-stealing lease poisoning ---------------------------------------------
//
// The lease containers cross process (and host) boundaries like the .sdmc
// cache does, so they get the same sweeps: every truncation, flip and
// splice must throw ParseError. The workdir protocol then turns those
// throws into *reclaims* — a corrupt lease file on disk is reissued, never
// crashed on, and never silently assigns work (the queue, not the lease
// file, says which apps a lease covers).

/// A small but fully-populated work queue for the sweeps.
WorkQueue lease_fuzz_queue() {
  WorkQueue queue;
  queue.corpus = "feedfacefeedface";
  queue.tool = "saintdroid";
  for (int i = 0; i < 5; ++i) {
    WorkItem item;
    item.name = "app-" + std::to_string(i);
    item.path = "/corpus/app-" + std::to_string(i) + ".apk";
    item.cost = static_cast<std::uint64_t>(1 + i * 17);
    queue.items.push_back(std::move(item));
  }
  queue.leases = plan_leases(queue.items, 2);
  return queue;
}

LeaseState lease_fuzz_state() {
  LeaseState state;
  state.lease_id = 3;
  state.generation = 2;
  state.worker = "host-1/w0";
  state.heartbeat = 1'700'000'000ULL;
  return state;
}

TEST(LeaseFuzz, EveryWorkQueueTruncationThrows) {
  const auto blob = lease_fuzz_queue().serialize();
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    std::span<const std::uint8_t> window(blob.data(), cut);
    EXPECT_THROW((void)WorkQueue::parse(window), ParseError) << "cut=" << cut;
  }
}

TEST(LeaseFuzz, EveryLeaseStateTruncationThrows) {
  const auto blob = lease_fuzz_state().serialize();
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    std::span<const std::uint8_t> window(blob.data(), cut);
    EXPECT_THROW((void)LeaseState::parse(window), ParseError)
        << "cut=" << cut;
  }
}

TEST(LeaseFuzz, EveryBitFlipThrows) {
  // One random flip per byte position, both containers. Wherever the
  // damage lands — magic, version, checksum, size, payload — the parse
  // must throw; a flip the header checks miss is what the payload
  // checksum exists to catch.
  const auto queue_base = lease_fuzz_queue().serialize();
  Rng rng{0x1EA5EULL};
  for (std::size_t pos = 0; pos < queue_base.size(); ++pos) {
    auto blob = queue_base;
    blob[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    EXPECT_THROW((void)WorkQueue::parse(blob), ParseError) << "pos=" << pos;
  }
  const auto state_base = lease_fuzz_state().serialize();
  for (std::size_t pos = 0; pos < state_base.size(); ++pos) {
    auto blob = state_base;
    blob[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    EXPECT_THROW((void)LeaseState::parse(blob), ParseError) << "pos=" << pos;
  }
}

TEST(LeaseFuzz, MagicVersionAndSpliceDefectsThrow) {
  const auto queue_blob = lease_fuzz_queue().serialize();
  const auto state_blob = lease_fuzz_state().serialize();
  // Cross-container splice: each container refuses the other's magic.
  EXPECT_THROW((void)WorkQueue::parse(state_blob), ParseError);
  EXPECT_THROW((void)LeaseState::parse(queue_blob), ParseError);
  {
    // Version skew (the version field is bytes 4..7).
    auto blob = queue_blob;
    blob[4] = static_cast<std::uint8_t>(kDistFormatVersion + 1);
    EXPECT_THROW((void)WorkQueue::parse(blob), ParseError);
  }
  {
    // Trailing garbage after a well-formed container.
    auto blob = state_blob;
    blob.push_back(0);
    EXPECT_THROW((void)LeaseState::parse(blob), ParseError);
  }
  {
    // Payload transplant: this queue's header and checksum over that
    // queue's payload bytes.
    WorkQueue other = lease_fuzz_queue();
    other.items[0].name = "app-evil";
    const auto donor = other.serialize();
    auto blob = queue_blob;
    std::copy(donor.begin() + 16, donor.end() - 8, blob.begin() + 16);
    EXPECT_THROW((void)WorkQueue::parse(blob), ParseError);
  }
}

TEST(LeaseFuzz, CorruptLeaseFilesAreReclaimedNeverCrashOrDoubleAssign) {
  // On-disk sweep of the reclaim contract: scribble over claim files in
  // every style and verify the protocol's response is always "reissue",
  // never a crash and never a silent double assignment.
  const std::string root = process_temp_path("lease_fuzz_wd");
  std::filesystem::remove_all(root);
  const WorkDir dir{root};
  WorkQueue queue = lease_fuzz_queue();
  queue.leases = plan_leases(queue.items, 5);  // one lease, five apps
  queue.leases[0].id = 0;
  dir.publish(queue, 100);

  const std::vector<std::string> corruptions{
      "",                                   // truncated to nothing
      "short",                              // truncated container
      std::string(64, '\xFF'),              // bit noise
      std::string("SDLS then garbage"),     // magic prefix, torn payload
  };
  const std::string claim_path = root + "/leases/lease-000000.claim";
  for (std::size_t c = 0; c < corruptions.size(); ++c) {
    SCOPED_TRACE("corruption=" + std::to_string(c));
    const auto claim = dir.claim_next("w0", 100);
    ASSERT_TRUE(claim.has_value());
    EXPECT_EQ(claim->lease_id, 0);
    // No double assignment while the (soon to be corrupt) claim stands.
    EXPECT_FALSE(dir.claim_next("w1", 100).has_value());
    {
      std::ofstream out{claim_path, std::ios::binary | std::ios::trunc};
      out << corruptions[c];
    }
    // A corrupt claim is expired by definition, whatever the TTL.
    EXPECT_EQ(dir.reclaim_expired(1'000'000, 100), 1);
    EXPECT_EQ(dir.status().open, 1);
  }

  // After the gauntlet the lease still completes exactly once.
  const auto final_claim = dir.claim_next("w2", 200);
  ASSERT_TRUE(final_claim.has_value());
  EXPECT_TRUE(dir.complete(*final_claim));
  EXPECT_TRUE(dir.status().finished());
  EXPECT_EQ(dir.done_states().size(), 1u);
  std::filesystem::remove_all(root);
}

TEST(LeaseFuzz, ForgedDuplicateOpenConvergesToOneDoneLease) {
  // A crashed reclaimer (or an attacker replaying files) can leave a lease
  // with BOTH an open and a claim file. The protocol must converge: the
  // ghost is claimable, execution may be repeated, but the census ends at
  // exactly one done lease and claimants never crash.
  const std::string root = process_temp_path("lease_forge_wd");
  std::filesystem::remove_all(root);
  const WorkDir dir{root};
  WorkQueue queue = lease_fuzz_queue();
  queue.leases = plan_leases(queue.items, 5);
  dir.publish(queue, 100);

  const auto claim = dir.claim_next("w0", 100);
  ASSERT_TRUE(claim.has_value());
  {
    // Forge a ghost .open for the already-claimed lease.
    LeaseState ghost;
    ghost.lease_id = 0;
    ghost.heartbeat = 100;
    const auto bytes = ghost.serialize();
    std::ofstream out{root + "/leases/lease-000000.open",
                      std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  // The ghost is claimed (atomically replacing the live claim file — the
  // loser's complete() then fails, which is the documented lost-lease
  // path), the winner completes, and the census converges to one done.
  const auto dup = dir.claim_next("w1", 101);
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(dup->lease_id, 0);
  EXPECT_TRUE(dir.complete(*dup));
  EXPECT_FALSE(dir.complete(*claim));
  EXPECT_TRUE(dir.status().finished());
  EXPECT_EQ(dir.done_states().size(), 1u);
  std::filesystem::remove_all(root);
}

// --- incremental-fact-cache (.sdmc kind 4) poisoning -------------------------
//
// The subject is a *real* entry: a facade run over a small version-chain
// app stores one, and the sweeps damage exactly those production bytes.
// The contract has two layers — every container/payload defect throws
// ParseError, and IncrCache::try_load converts every defect into a silent
// miss so the engine's only failure mode is a counted full-analysis
// fallback: never a crash, never a stale finding.

VersionChainConfig incr_fuzz_chain() {
  VersionChainConfig cfg;
  cfg.slots = 5;
  cfg.breadth = 3;
  cfg.target_loc = 120;  // small entry: the truncation sweep is quadratic
  return cfg;
}

struct HarvestedEntry {
  std::string dir;
  std::string path;
  SdmcKey key;
  std::vector<std::uint8_t> blob;     ///< sealed bytes as stored on disk
  std::vector<std::uint8_t> payload;  ///< unsealed entry payload
};

/// Analyzes chain version 0 through a fresh cache and returns the single
/// entry the facade stored.
HarvestedEntry harvest_incr_entry(const std::string& name) {
  const auto& repo = sdmc_fuzz_repo();
  HarvestedEntry out;
  out.dir = process_temp_path("incr_fuzz_" + name);
  std::filesystem::remove_all(out.dir);

  SaintDroidOptions options;
  options.incr_cache = std::make_shared<const IncrCache>(out.dir);
  SaintDroid tool{repo, options};
  const BenchApp v0 = generate_chain_version(repo, incr_fuzz_chain(), 0, 0);
  const AnalysisResult result = tool.analyze(v0.apk);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.incremental.attempted, 1u);  // cold miss, then store

  for (const auto& file : std::filesystem::directory_iterator(out.dir))
    out.path = file.path().string();
  EXPECT_FALSE(out.path.empty());
  const auto bytes = read_file_bytes(out.path);
  EXPECT_TRUE(bytes.has_value());
  out.blob = *bytes;

  // Reconstruct the key from the filename's "-L<level>" tag.
  const std::size_t tag = out.path.rfind("-L");
  const int level = std::stoi(out.path.substr(tag + 2));
  out.key.kind = SdmcKind::kIncrementalFacts;
  out.key.fingerprint = repo.fingerprint();
  out.key.level = level;
  out.key.options = 0;
  out.payload = sdmc_open(out.blob, out.key);
  return out;
}

TEST(IncrCacheFuzz, EveryTruncationThrows) {
  const HarvestedEntry entry = harvest_incr_entry("trunc");
  for (std::size_t cut = 0; cut < entry.blob.size(); ++cut) {
    std::span<const std::uint8_t> window(entry.blob.data(), cut);
    EXPECT_THROW((void)sdmc_open(window, entry.key), ParseError)
        << "cut=" << cut;
  }
  // Past the container, the entry codec rejects every truncation from its
  // own bounds checks (and the full payload still round-trips).
  for (std::size_t cut = 0; cut < entry.payload.size(); ++cut) {
    std::span<const std::uint8_t> window(entry.payload.data(), cut);
    EXPECT_THROW((void)parse_incr_entry(window), ParseError) << "cut=" << cut;
  }
  EXPECT_EQ(serialize_incr_entry(parse_incr_entry(entry.payload)),
            entry.payload);
  std::filesystem::remove_all(entry.dir);
}

TEST(IncrCacheFuzz, EveryBitFlipThrows) {
  // One random flip per byte of the sealed container: wherever the damage
  // lands, the open must throw (the payload checksum catches whatever the
  // header fields don't).
  const HarvestedEntry entry = harvest_incr_entry("flip");
  Rng rng{0x1C4FACEULL};
  for (std::size_t pos = 0; pos < entry.blob.size(); ++pos) {
    auto blob = entry.blob;
    blob[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    EXPECT_THROW((void)sdmc_open(blob, entry.key), ParseError)
        << "pos=" << pos;
  }
  std::filesystem::remove_all(entry.dir);
}

TEST(IncrCacheFuzz, VersionKindAndFingerprintSplicesThrow) {
  // Staleness, not random damage: entries written by an older container
  // version, sealed under another kind (or another kind's bytes renamed
  // into this slot), for a foreign framework, or at a different level —
  // plus a trailing-byte splice past the declared payload end.
  const HarvestedEntry entry = harvest_incr_entry("splice");
  {
    auto blob = sdmc_seal(entry.key, entry.payload);
    blob[4] = static_cast<std::uint8_t>(kSdmcFormatVersion - 1);
    EXPECT_THROW((void)sdmc_open(blob, entry.key), ParseError);
  }
  {
    SdmcKey foreign = entry.key;
    foreign.fingerprint[0] = foreign.fingerprint[0] == 'f' ? '0' : 'f';
    EXPECT_THROW((void)sdmc_open(sdmc_seal(foreign, entry.payload), entry.key),
                 ParseError);
  }
  {
    SdmcKey other = entry.key;
    other.level += 1;
    EXPECT_THROW((void)sdmc_open(sdmc_seal(other, entry.payload), entry.key),
                 ParseError);
  }
  {
    // An apidb blob renamed into the incremental slot, and the dual.
    SdmcKey apidb = entry.key;
    apidb.kind = SdmcKind::kApiDatabase;
    EXPECT_THROW((void)sdmc_open(sdmc_seal(apidb, entry.payload), entry.key),
                 ParseError);
    EXPECT_THROW((void)sdmc_open(entry.blob, apidb), ParseError);
  }
  {
    auto payload = entry.payload;
    payload.push_back(0);  // trailing garbage past the declared structure
    EXPECT_THROW((void)parse_incr_entry(payload), ParseError);
  }
  std::filesystem::remove_all(entry.dir);
}

TEST(IncrCacheFuzz, DamagedEntryFallsBackSilentlyAndNeverStales) {
  // The engine-level contract: whatever is on disk, try_load yields a
  // miss (never throws), the next analyze() takes the counted fallback,
  // and its findings are byte-identical to a cache-less run — a damaged
  // cache can cost work, never correctness. Each damaged analyze() also
  // re-stores a fresh entry, so every variant re-damages the file.
  const auto& repo = sdmc_fuzz_repo();
  const HarvestedEntry entry = harvest_incr_entry("fallback");
  const BenchApp v1 = generate_chain_version(repo, incr_fuzz_chain(), 0, 1);

  SaintDroid scratch{repo};
  const std::string want = canonical_row_bytes(analyze_app_row(scratch, v1));

  SaintDroidOptions options;
  options.incr_cache = std::make_shared<const IncrCache>(entry.dir);
  SaintDroid tool{repo, scratch.shared_database(), options};

  const auto damage = [&](int variant) {
    auto bytes = entry.blob;
    switch (variant) {
      case 0:
        bytes.resize(bytes.size() / 2);  // truncated write
        break;
      case 1:
        bytes[bytes.size() / 3] ^= 0x40;  // media rot
        break;
      case 2:
        bytes.assign(64, 0xAB);  // unrelated garbage
        break;
      default:
        bytes.clear();  // zero-length file
        break;
    }
    write_file_atomic(entry.path, bytes);
  };

  for (int variant = 0; variant < 4; ++variant) {
    SCOPED_TRACE("variant " + std::to_string(variant));
    damage(variant);
    EXPECT_FALSE(options.incr_cache
                     ->try_load(repo, v1.apk.name, entry.key.level)
                     .has_value());
    const SuiteAppRow row = analyze_app_row(tool, v1);
    EXPECT_TRUE(row.completed);
    EXPECT_EQ(row.incr.attempted, 1u);
    EXPECT_EQ(row.incr.hits, 0u);
    EXPECT_EQ(row.incr.fallbacks, 1u);
    EXPECT_EQ(canonical_row_bytes(row), want);
  }

  // And with the re-stored (healthy) entry: a hit, same bytes.
  const SuiteAppRow hit = analyze_app_row(tool, v1);
  EXPECT_EQ(hit.incr.hits, 1u);
  EXPECT_EQ(canonical_row_bytes(hit), want);
  std::filesystem::remove_all(entry.dir);
}

}  // namespace
}  // namespace saintdroid
