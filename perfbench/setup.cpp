#include "setup.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "core/model_cache.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "support/errors.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {

namespace sd = saintdroid;
namespace fs = std::filesystem;

namespace {

void warm_levels(const sd::FrameworkRepository& repo,
                 const std::vector<int>& levels) {
  for (const int level : levels) {
    {
      const SpanScope span{"adf.image", level};
      (void)repo.image(level);
    }
    const SpanScope span{"clvm.substrate", level};
    (void)repo.substrate(level);
  }
}

std::string fresh_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

}  // namespace

Model start_model(const SetupSpec& spec, const std::string& dir, bool cold) {
  const SpanScope setup{"setup", cold ? 0 : 1};
  Model model;
  model.repo = std::make_unique<sd::FrameworkRepository>();
  if (spec.serve) {
    sd::ServeOptions options;
    options.jobs = spec.jobs;
    options.repository = model.repo.get();
    // Shut down (idle workers joined) inside the start: the run builds
    // its own services around the kept model, one per load point.
    std::optional<sd::VetService> service;
    {
      SpanScope span{"arm.api_database"};
      service.emplace(dir, options);
      span.rename(service->stats().database_from_cache ? "arm.db_load"
                                                       : "arm.mine");
    }
    warm_levels(*model.repo, spec.levels);
    model.cache_dir = sd::StatePaths{dir}.model_cache_dir();
    return model;
  }
  model.cache_dir = dir;
  const sd::ModelCache cache{dir};
  cache.attach_substrate_cache(*model.repo);
  {
    SpanScope span{"arm.api_database"};
    bool from_cache = false;
    model.db = cache.api_database(*model.repo, spec.jobs, &from_cache);
    span.rename(from_cache ? "arm.db_load" : "arm.mine");
  }
  warm_levels(*model.repo, spec.levels);
  return model;
}

SetupSampler::SetupSampler(SetupSpec spec, std::string scratch)
    : spec_(std::move(spec)), scratch_(std::move(scratch)) {}

void SetupSampler::cold() {
  const std::string dir = fresh_dir(
      scratch_ + "/setup-cold-" + std::to_string(cold_s.size()));
  cold_s.push_back(sample(dir));
  if (warm_dir_.empty())
    warm_dir_ = dir;
  else
    fs::remove_all(dir);
}

void SetupSampler::warm() {
  if (warm_dir_.empty()) throw sd::Error("warm set-up sample before a cold one");
  warm_s.push_back(sample(warm_dir_));
}

double SetupSampler::sample(const std::string& dir) const {
  std::string levels;
  for (const int level : spec_.levels)
    levels += (levels.empty() ? "" : ",") + std::to_string(level);
  std::vector<std::string> args = {
      "sdbench", "setup",  "--serve", spec_.serve ? "1" : "0",
      "--jobs",  std::to_string(spec_.jobs), "--levels", levels,
      "--dir",   dir};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const std::string program = fs::read_symlink("/proc/self/exe").string();
  const std::string ready_path = scratch_ + "/setup-ready";

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, ready_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const double begin = monotonic_s();
  const int error = posix_spawn(&pid, program.c_str(), &actions, nullptr,
                                argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (error != 0)
    throw sd::Error(std::string{"cannot start a set-up process: "} +
                    std::strerror(error));
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) throw sd::Error("lost the set-up process on " + dir);
  std::ifstream in{ready_path};
  double ready = 0.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !(in >> ready))
    throw sd::Error("set-up process failed on " + dir);
  return ready - begin;
}

void run_setup_process(const SetupSpec& spec, const std::string& dir) {
  const Model model = start_model(spec, dir, false);
  std::printf("%.9f\n", monotonic_s());
  std::fflush(stdout);
  // Tearing the model down is not part of a start.
  std::_Exit(0);
}

}  // namespace perfbench
