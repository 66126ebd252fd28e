// perfbench: the repository benchmark program.
//
//   perfbench --workload <imdb_fd|fuzzy_lake|lake_churn> --seed <n>
//             --seconds <s> --trace <0|1> --out-dir <dir> --work-dir <dir>
//             [--corrupt-reference]
//
// Generates the workload's inputs from the seed, checks every output
// against a serial reference, and prints each metric by name and unit. The
// last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"} — end-to-end metrics with --trace 0, per-layer metrics from
// the traced run with --trace 1. The full record, including hardware and
// workload-specific figures, is also written to
// <out-dir>/<workload>-seed<seed>-trace<t>.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> --work-dir <dir> "
               "[--corrupt-reference]\n",
               why);
  return 2;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void WriteResultFile(const RunConfig& config, const WorkloadSpec& spec,
                     const Hardware& hw, const RunReport& report) {
  const std::string path = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0") + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::string notes = "[";
  for (size_t i = 0; i < report.notes.size(); ++i) {
    notes += (i ? ", \"" : "\"") + report.notes[i] + "\"";
  }
  notes += "]";
  std::fprintf(
      f,
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d,\n"
      " \"hardware\": {\"nproc\": %zu, \"cores_granted\": %zu},\n"
      " \"clients\": %zu, \"workers\": %zu, \"loop\": \"closed\",\n"
      " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n"
      " \"metrics\": %s,\n \"info\": %s,\n \"notes\": %s}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      Num(config.seconds).c_str(), config.trace ? 1 : 0, hw.nproc,
      hw.cores_granted, spec.clients, spec.workers,
      report.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      MetricsJson(report.metrics).c_str(), MetricsJson(report.info).c_str(),
      notes.c_str());
  std::fclose(f);
  std::printf("result written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-reference") {
      config.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && config.seconds > 0;
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      config.out_dir.empty() || config.work_dir.empty()) {
    return Usage("--workload, --seed, --seconds, --trace, --out-dir and "
                 "--work-dir are required");
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (config.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  const Hardware hw = QueryCores();
  std::printf(
      "perfbench workload=%s seed=%llu seconds=%s trace=%d nproc=%zu "
      "cores_granted=%zu clients=%zu workers=%zu loop=closed\n",
      spec->name, static_cast<unsigned long long>(config.seed),
      Num(config.seconds).c_str(), config.trace ? 1 : 0, hw.nproc,
      hw.cores_granted, spec->clients, spec->workers);
  if (spec->clients + spec->workers > hw.cores_granted) {
    std::fprintf(stderr,
                 "perfbench: refusing to run: %zu client(s) + %zu worker(s) "
                 "exceed the %zu core(s) granted\n",
                 spec->clients, spec->workers, hw.cores_granted);
    return 3;
  }

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);
  std::filesystem::create_directories(config.out_dir, ec);

  RunReport report;
  lakefuzz::Status status = spec->run(config, &report);
  std::filesystem::remove_all(config.work_dir, ec);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", spec->name,
                 status.ToString().c_str());
    return 1;
  }
  const bool correct = report.failed == 0;

  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("metric %-34s %14s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Metric& m : report.info) {
    std::printf("info   %-34s %14s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  WriteResultFile(config, *spec, hw, report);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(report.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
