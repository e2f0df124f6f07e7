// sdbench — the repository's end-to-end benchmark program.
//
//   sdbench gen --workload W --seed N --data DIR
//       generates (or reuses) the seeded inputs of W under DIR
//   sdbench run --workload W --seed N --seconds T --trace 0|1
//               --data DIR --scratch DIR
//       measures W for T seconds on those inputs and prints, as its last
//       stdout line, {"correct", "attempted", "failed", "metrics"}:
//       end-to-end metrics with --trace 0, per-layer metrics with --trace 1
//   sdbench setup --serve 0|1 --jobs J --levels L1,L2,... --dir DIR
//       one set-up sample, spawned by `run` (see setup.hpp)
//
// Exit codes: 0 success, 1 an oracle check failed, 2 usage or setup error.
// perfbench/run.py builds this program and runs `gen` and `run`.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>

#include "inputs.hpp"
#include "setup.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: sdbench gen --workload W --seed N --data DIR\n"
               "       sdbench run --workload W --seed N --seconds T "
               "--trace 0|1 --data DIR --scratch DIR\n"
               "       sdbench setup --serve 0|1 --jobs J --levels L1,L2,... "
               "--dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::string workload, data, scratch, levels, dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0, serve = 0, jobs = 1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0)
      workload = value;
    else if (std::strcmp(flag, "--seed") == 0)
      seed = std::strtoull(value, nullptr, 10);
    else if (std::strcmp(flag, "--seconds") == 0)
      seconds = std::atof(value);
    else if (std::strcmp(flag, "--trace") == 0)
      trace = std::atoi(value);
    else if (std::strcmp(flag, "--data") == 0)
      data = value;
    else if (std::strcmp(flag, "--scratch") == 0)
      scratch = value;
    else if (std::strcmp(flag, "--serve") == 0)
      serve = std::atoi(value);
    else if (std::strcmp(flag, "--jobs") == 0)
      jobs = std::atoi(value);
    else if (std::strcmp(flag, "--levels") == 0)
      levels = value;
    else if (std::strcmp(flag, "--dir") == 0)
      dir = value;
    else
      return usage();
  }

  try {
    if (command == "setup") {
      if (dir.empty() || jobs < 1) return usage();
      pb::SetupSpec spec;
      spec.serve = serve == 1;
      spec.jobs = jobs;
      std::istringstream list{levels};
      for (std::string level; std::getline(list, level, ',');)
        spec.levels.push_back(std::stoi(level));
      pb::run_setup_process(spec, dir);
    }
    const auto parsed = pb::parse_workload(workload);
    if (!parsed || data.empty()) return usage();
    if (command == "gen") {
      pb::generate_inputs(*parsed, seed, data);
      return 0;
    }
    if (command != "run" || scratch.empty() || seconds <= 0.0 ||
        (trace != 0 && trace != 1))
      return usage();
    std::filesystem::remove_all(scratch);
    std::filesystem::create_directories(scratch);
    pb::RunOptions options;
    options.workload = *parsed;
    options.seed = seed;
    options.seconds = seconds;
    options.trace = trace == 1;
    options.data_root = data;
    options.scratch = scratch;
    const pb::RunResult result = pb::run_workload(options);
    std::printf("%s\n", pb::result_json(result).c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sdbench: %s\n", error.what());
    return 2;
  }
}
