// lakefuzz_cli: integrate CSV files from the command line.
//
//   ./lakefuzz_cli t1.csv t2.csv t3.csv [--out=integrated.csv]
//                  [--model=Mistral] [--theta=0.7] [--auto-theta]
//                  [--align=holistic|by-name] [--regular-fd] [--provenance]
//                  [--threads=1] [--stats] [--progress]
//
// The thin shell around core/engine.h — the way a practitioner would
// actually invoke the system on discovered tables: register every CSV into
// a LakeEngine session, then integrate the lot.
#include <cstdio>

#include "core/engine.h"
#include "table/csv.h"
#include "table/print.h"
#include "table/stats.h"
#include "util/flags.h"

using namespace lakefuzz;

namespace {

/// Registry name for a path: the file stem, suffixed until free when stems
/// collide (integrating a.csv from two directories must not fail — and the
/// suffixed candidate may itself collide with a stem like "a_2").
std::string RegistryName(const std::string& path, size_t index,
                         const LakeEngine& engine) {
  size_t slash = path.find_last_of('/');
  std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
  if (stem.empty()) stem = "table";
  auto taken = [&engine](const std::string& name) {
    for (const auto& existing : engine.TableNames()) {
      if (existing == name) return true;
    }
    return false;
  };
  std::string candidate = stem;
  for (size_t suffix = index; taken(candidate); ++suffix) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "_%zu", suffix);
    candidate = stem + buf;
  }
  return candidate;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  if (flags.positional().size() < 2) {
    std::fprintf(stderr,
                 "usage: lakefuzz_cli <a.csv> <b.csv> [more.csv...] "
                 "[--out=path] [--model=Mistral] [--theta=0.7] "
                 "[--auto-theta] [--align=holistic|by-name] [--regular-fd] "
                 "[--provenance] [--threads=1] [--stats] [--progress]\n");
    return 2;
  }

  auto kind = ModelKindFromString(flags.GetString("model", "Mistral"));
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 2;
  }

  // Session setup: model + shared embedding cache + worker pool, once.
  EngineOptions engine_opts;
  engine_opts.SetModel(kind.value())
      .SetNumThreads(static_cast<size_t>(flags.GetInt("threads", 1)));
  auto engine = LakeEngine::Create(engine_opts);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine setup failed: %s\n",
                 engine.status().ToString().c_str());
    return 2;
  }

  std::vector<std::string> names;
  for (size_t i = 0; i < flags.positional().size(); ++i) {
    const std::string& path = flags.positional()[i];
    std::string name = RegistryName(path, i, **engine);
    Status s = (*engine)->RegisterCsv(name, path);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot register %s: %s\n", path.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    names.push_back(std::move(name));
  }

  RequestOptions req;
  req.holistic_alignment = flags.GetString("align", "holistic") != "by-name";
  req.fuzzy = !flags.GetBool("regular-fd", false);
  req.include_provenance = flags.GetBool("provenance", false);
  req.fuzzy_fd.matcher.threshold = flags.GetDouble("theta", 0.7);
  req.fuzzy_fd.matcher.auto_threshold = flags.GetBool("auto-theta", false);
  if (flags.GetBool("progress", false)) {
    req.progress = [](const ProgressEvent& e) {
      std::fprintf(stderr, "[%s] %zu/%zu\n",
                   std::string(StageName(e.stage)).c_str(), e.done, e.total);
    };
  }

  auto result = (*engine)->Integrate(names, req);
  if (!result.ok()) {
    std::fprintf(stderr, "integration failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  const FuzzyFdReport& report = result->report;
  std::fprintf(stderr,
               "aligned %zu universal columns in %.1f ms; matching %.1f ms "
               "(%zu values rewritten); FD %.1f ms → %zu rows "
               "(total %.1f ms)\n",
               result->aligned.NumUniversal(),
               report.stages.seconds(Stage::kAlign) * 1e3,
               report.stages.seconds(Stage::kMatch) * 1e3,
               report.values_rewritten,
               report.stages.seconds(Stage::kFd) * 1e3,
               result->integrated.NumRows(), report.total_seconds() * 1e3);

  if (flags.GetBool("stats", false)) {
    for (size_t c = 0; c < result->integrated.NumColumns(); ++c) {
      std::fprintf(
          stderr, "  column %-24s %s\n",
          result->integrated.schema().field(c).name.c_str(),
          RenderColumnStats(ComputeColumnStats(result->integrated, c))
              .c_str());
    }
  }

  std::string out_path = flags.GetString("out", "");
  if (out_path.empty()) {
    std::printf("%s", RenderTable(result->integrated).c_str());
  } else {
    Status s = WriteCsvFile(result->integrated, out_path);
    if (!s.ok()) {
      std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return 0;
}
