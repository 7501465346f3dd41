// perfbench_harness: runs one benchmark workload and writes its raw
// measurements as JSON. perfbench/run.py builds and invokes it and turns
// the raw document into the metrics named in BENCHMARK.json.
//
//   perfbench_harness --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --work-dir=DIR --out=FILE [--serve-bin=PATH]
//   perfbench_harness --selftest
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common/simd/dispatch.h"
#include "harness/common.h"

namespace perfbench {

uint64_t PeakRssKib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *value = arg + len;
  return true;
}

// Sanitizer builds time the sanitizer, not the program.
bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Sanitize" || type == "Tsan";
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (SanitizedBuild()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  RunArgs args;
  std::string out_path, value;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--selftest") == 0) return RunSelfTest() == 0 ? 0 : 1;
    if (Flag(a, "--workload=", &args.workload)) continue;
    if (Flag(a, "--work-dir=", &args.work_dir)) continue;
    if (Flag(a, "--serve-bin=", &args.serve_bin)) continue;
    if (Flag(a, "--out=", &out_path)) continue;
    if (Flag(a, "--seed=", &value)) {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(a, "--seconds=", &value)) {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (Flag(a, "--trace=", &value)) {
      args.trace = value == "1";
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown argument %s\n", a);
      return 2;
    }
  }
  if (out_path.empty() || args.work_dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr, "perfbench_harness: --out, --work-dir and a positive "
                         "--seconds are required\n");
    return 2;
  }

  RawResult result;
  int rc = 2;
  if (args.workload == "synth_wide" || args.workload == "deepweb_batch") {
    rc = RunSearchWorkload(args, &result);
  } else if (args.workload == "apply_bulk") {
    rc = RunApplyWorkload(args, &result);
  } else {
    std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
                 args.workload.c_str());
  }
  if (rc != 0) return rc;

  tupelo::obs::JsonValue& doc = result.doc;
  doc["workload"] = args.workload;
  doc["seed"] = args.seed;
  doc["trace"] = args.trace;
  doc["build_type"] = PERFBENCH_BUILD_TYPE;
  doc["simd_tier"] = std::string(
      tupelo::simd::LevelName(tupelo::simd::ActiveLevel()));
  doc["attempted"] = result.attempted;
  doc["failures"] = std::move(result.failures);
  if (doc.Find("peak_rss_kib") == nullptr) doc["peak_rss_kib"] = PeakRssKib();
  std::ofstream out(out_path);
  out << doc.Dump() << "\n";
  return out.good() ? 0 : 1;
}
