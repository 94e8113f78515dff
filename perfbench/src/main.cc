// TimeUnion benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-out <file>] [--tiny]
//             [--commit <id>] [--source-digest <hex>]
//
// Prints one header line ({"header":{...}}: host, build, tier settings,
// inputs) and, last, the result line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The traced run also writes its spans as JSON lines.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest_durable|remote_ingest|"
               "recent_under_ingest|cold_history --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE] [--tiny]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions o;
  std::string commit = "unknown";
  std::string digest = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--tiny") {
      o.tiny = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage();
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(v);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      have_trace = true;
    } else if (arg == "--work-dir") {
      o.work_dir = v;
    } else if (arg == "--trace-out") {
      o.trace_path = v;
    } else if (arg == "--commit") {
      commit = v;
    } else if (arg == "--source-digest") {
      digest = v;
    } else {
      return Usage();
    }
  }
  if (o.workload.empty() || o.work_dir.empty() || !have_trace ||
      o.seconds <= 0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", o.work_dir.c_str());
    return 1;
  }

  Report report;
  if (o.workload == "ingest_durable") {
    report = RunIngest(o, false);
  } else if (o.workload == "remote_ingest") {
    report = RunIngest(o, true);
  } else if (o.workload == "recent_under_ingest") {
    report = RunRecent(o);
  } else if (o.workload == "cold_history") {
    report = RunCold(o);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return Usage();
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }
  const double failed_frac = static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted);
  report.per_layer["failed_frac"] = failed_frac;
  for (const std::string& f : report.first_failures) {
    std::fprintf(stderr, "failure: %s\n", f.c_str());
  }

  if (o.trace && !o.trace_path.empty() &&
      !Tracer::Get().WriteJsonLines(o.trace_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", o.trace_path.c_str());
    return 1;
  }

  // Run header.
  report.header["workload"] = o.workload;
  report.header["seed"] = std::to_string(o.seed);
  report.header["seconds"] = Number(o.seconds);
  report.header["trace"] = o.trace ? "1" : "0";
  report.header["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.header["build_type"] = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  report.header["compiler"] = "clang " __clang_version__;
#elif defined(__GNUC__)
  report.header["compiler"] = "g++ " __VERSION__;
#else
  report.header["compiler"] = "unknown";
#endif
  report.header["commit"] = commit;
  report.header["source_digest"] = digest;
  report.header["failed_frac"] = Number(failed_frac);
  if (o.trace) report.header["spans_file"] = o.trace_path;
  std::string line = "{\"header\":{";
  bool first = true;
  for (const auto& [k, v] : report.header) {
    line += (first ? "\"" : ",\"") + JsonEscape(k) + "\":\"" + JsonEscape(v) +
            "\"";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());

  const auto& defs = o.trace ? LayerMetrics() : EndToEndMetrics();
  const auto& values = o.trace ? report.per_layer : report.end_to_end;
  line = "{\"correct\":" + std::string(report.failed == 0 ? "true" : "false") +
         ",\"attempted\":" + std::to_string(report.attempted) +
         ",\"failed\":" + std::to_string(report.failed) + ",\"metrics\":{";
  first = true;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    if (it == values.end()) {
      std::fprintf(stderr, "metric %s was not measured\n", d.name);
      return 1;
    }
    line += std::string(first ? "" : ",") + "\"" + d.name +
            "\":{\"value\":" + Number(it->second) + ",\"unit\":\"" + d.unit +
            "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
