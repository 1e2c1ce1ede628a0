// wmpbench — the load generator behind perfbench/run.py.
//
//   wmpbench --workload=wire_recurring|wire_novel|retrain --seed=N
//            --seconds=N --trace=0|1 --wmpctl=PATH --workdir=DIR
//            [--source-rev=REV]
//
// Prints a human report on stderr, the run's provenance as one JSON line on
// stdout, and the result as the last stdout line:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// Exits 1 when any request failed or any served output failed the bitwise
// gate, 2 on bad arguments.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "loadgen.h"

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: wmpbench --workload=wire_recurring|wire_novel|retrain "
               "--seed=N --seconds=N --trace=0|1 --wmpctl=PATH "
               "--workdir=DIR [--source-rev=REV]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string value, source_rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (Flag(argv[i], "--workload", &value)) {
      options.workload = value;
    } else if (Flag(argv[i], "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &value)) {
      options.seconds = std::max(1, std::atoi(value.c_str()));
    } else if (Flag(argv[i], "--trace", &value)) {
      options.trace = value != "0";
    } else if (Flag(argv[i], "--wmpctl", &value)) {
      options.wmpctl = value;
    } else if (Flag(argv[i], "--workdir", &value)) {
      options.workdir = value;
    } else if (Flag(argv[i], "--source-rev", &value)) {
      source_rev = value;
    } else {
      return Usage();
    }
  }
  const bool wire = options.workload == "wire_recurring" ||
                    options.workload == "wire_novel";
  if ((!wire && options.workload != "retrain") || options.wmpctl.empty() ||
      options.workdir.empty() || ::access(options.wmpctl.c_str(), X_OK) != 0) {
    return Usage();
  }
  ::mkdir(options.workdir.c_str(), 0755);

  std::printf(
      "{\"provenance\":{\"workload\":%s,\"seed\":%llu,\"seconds\":%d,"
      "\"trace\":%d,\"nproc\":%u,\"cpu\":%s,\"compiler\":%s,"
      "\"build_type\":%s,\"source_rev\":%s,\"open_loop_rate\":%s}}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, std::thread::hardware_concurrency(),
      JsonString(CpuModel()).c_str(), JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(source_rev).c_str(),
      perfbench::JsonNumber(perfbench::kOpenLoopRate).c_str());
  std::fflush(stdout);
  perfbench::Report("%s seed=%llu seconds=%d trace=%d — nproc %u, %s, %s %s",
                    options.workload.c_str(),
                    static_cast<unsigned long long>(options.seed),
                    options.seconds, options.trace ? 1 : 0,
                    std::thread::hardware_concurrency(), CpuModel().c_str(),
                    PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);

  const perfbench::HostCpu cpu_before = perfbench::ReadHostCpu();
  const perfbench::RunOutcome out =
      wire ? perfbench::RunWire(options, options.workload == "wire_novel")
           : perfbench::RunRetrain(options);

  perfbench::Report(
      "  host steal: %.1f%% of CPU time during the run",
      100.0 * perfbench::StealShare(cpu_before, perfbench::ReadHostCpu()));
  std::string metrics;
  for (const perfbench::Metric& m : out.metrics) {
    perfbench::Report("  %-36s %14.6g %s", m.name.c_str(), m.value,
                      m.unit.c_str());
    if (!metrics.empty()) metrics += ",";
    metrics += JsonString(m.name) + ":{\"value\":" +
               perfbench::JsonNumber(m.value) +
               ",\"unit\":" + JsonString(m.unit) + "}";
  }
  const bool ok = out.correct && out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
