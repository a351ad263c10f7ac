// Shared output helpers for the experiment binaries.
//
// Every binary prints a banner identifying the experiment (id from
// DESIGN.md, paper artifact it reproduces), the tables the paper would have
// reported, and a PASS/FAIL verdict line per claim so the whole suite can
// be eyeballed from `for b in build/bench/*; do $b; done`.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/time.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "replication/replication.h"

namespace rdp::benchutil {

// Artifact flags shared by every experiment binary:
//   --trace out.json    write a Chrome/Perfetto trace-event file for the
//                       binary's canonical scenario
//   --metrics out.csv   write the metrics registry time series as CSV
//   --replication=MODE  proxy replication mode (off|async|sync) for binaries
//                       with a replicated variant; others ignore it
//   --ledger out.csv    write the cost ledger's per-purpose-class table as
//                       CSV (plus a .json sibling with the same per-class
//                       data) for binaries that run the ledger
//   --energy-per-byte X wireless transmit cost per byte for the ledger's
//                       energy model (receive is charged at half this)
//   --analyzer          run the passive wire analyzer (docs/PROTOCOL.md §12)
//                       as a second, wire-derived conformance checker on
//                       the RDP arms; zero violations becomes a claim
//   --analyzer-out P    write the analyzer's event JSONL; multi-arm benches
//                       insert the arm name before the extension
//   --smoke             reduced scenario for CI: keep the claims, shrink
//                       the sweeps
//   --profile           arm the instrumentation profiler (PROTOCOL.md §13)
//                       on the RDP arms; rdp.prof.* attribution gauges ride
//                       the --metrics export and a per-domain table is
//                       printed.  Bit-identical results; wall time only.
//   --profile-folded P  also write the merged collapsed-stack file (feed to
//                       flamegraph.pl); implies --profile
struct BenchOptions {
  std::string trace_path;
  std::string metrics_path;
  std::string ledger_path;
  std::string analyzer_path;
  std::string profile_folded_path;
  replication::Mode replication = replication::Mode::kOff;
  bool replication_set = false;  // true when --replication appeared
  double energy_per_byte = 2.0;
  bool analyzer = false;
  bool smoke = false;
  bool profile = false;

  [[nodiscard]] bool trace() const { return !trace_path.empty(); }
  [[nodiscard]] bool metrics() const { return !metrics_path.empty(); }
  [[nodiscard]] bool ledger() const { return !ledger_path.empty(); }
  [[nodiscard]] bool any() const { return trace() || metrics() || ledger(); }

  // Per-arm analyzer JSONL path: "e13.jsonl" + "sliding" ->
  // "e13.sliding.jsonl" (empty when --analyzer-out was not given).
  [[nodiscard]] std::string analyzer_out_for(const std::string& arm) const {
    if (analyzer_path.empty()) return {};
    const std::size_t dot = analyzer_path.rfind('.');
    if (dot == std::string::npos || dot == 0) {
      return analyzer_path + "." + arm;
    }
    return analyzer_path.substr(0, dot) + "." + arm +
           analyzer_path.substr(dot);
  }
};

// Maps "off"/"async"/"sync" to a replication::Mode; false on anything else.
inline bool parse_replication_mode(const std::string& value,
                                   replication::Mode* out) {
  if (value == "off") {
    *out = replication::Mode::kOff;
  } else if (value == "async") {
    *out = replication::Mode::kAsync;
  } else if (value == "sync") {
    *out = replication::Mode::kSync;
  } else {
    return false;
  }
  return true;
}

inline void usage(const char* argv0, std::ostream& os) {
  os << "usage: " << argv0
     << " [--trace out.json] [--metrics out.csv] [--ledger out.csv]"
        " [--energy-per-byte X] [--replication={off,async,sync}]"
        " [--analyzer] [--analyzer-out out.jsonl] [--smoke]"
        " [--profile] [--profile-folded out.txt]\n";
}

inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": " << flag << " requires a file path\n";
        usage(argv[0], std::cerr);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trace") {
      options.trace_path = value("--trace");
    } else if (arg == "--metrics") {
      options.metrics_path = value("--metrics");
    } else if (arg == "--ledger") {
      options.ledger_path = value("--ledger");
    } else if (arg == "--energy-per-byte") {
      const std::string raw = value("--energy-per-byte");
      char* end = nullptr;
      options.energy_per_byte = std::strtod(raw.c_str(), &end);
      if (end == raw.c_str() || *end != '\0' || options.energy_per_byte < 0) {
        std::cerr << argv[0]
                  << ": --energy-per-byte expects a non-negative number, got '"
                  << raw << "'\n";
        usage(argv[0], std::cerr);
        std::exit(2);
      }
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (arg == "--profile-folded") {
      options.profile_folded_path = value("--profile-folded");
      options.profile = true;
    } else if (arg == "--analyzer") {
      options.analyzer = true;
    } else if (arg == "--analyzer-out") {
      options.analyzer_path = value("--analyzer-out");
      options.analyzer = true;
    } else if (arg == "--replication" || arg.rfind("--replication=", 0) == 0) {
      const std::string mode = arg == "--replication"
                                   ? value("--replication")
                                   : arg.substr(std::string("--replication=").size());
      if (!parse_replication_mode(mode, &options.replication)) {
        std::cerr << argv[0] << ": --replication expects off|async|sync, got '"
                  << mode << "'\n";
        usage(argv[0], std::cerr);
        std::exit(2);
      }
      options.replication_set = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], std::cout);
      std::exit(0);
    } else {
      std::cerr << argv[0] << ": unknown argument '" << arg << "'\n";
      usage(argv[0], std::cerr);
      std::exit(2);
    }
  }
  return options;
}

inline bool g_all_ok = true;

// Write the requested artifacts from a finished run's telemetry.  `now` is
// the end-of-run sim time, used to close the metrics time series with one
// final sample.
inline void export_artifacts(const BenchOptions& options,
                             obs::Telemetry& telemetry, common::SimTime now) {
  if (options.trace()) {
    if (telemetry.write_trace_json(options.trace_path)) {
      std::cout << "trace-event JSON written to " << options.trace_path << "\n";
    } else {
      std::cerr << "FAILED to write trace to " << options.trace_path << "\n";
      g_all_ok = false;
    }
  }
  if (options.metrics()) {
    telemetry.registry().sample_now(now);
    if (telemetry.write_metrics_csv(options.metrics_path)) {
      std::cout << "metrics CSV written to " << options.metrics_path << "\n";
    } else {
      std::cerr << "FAILED to write metrics to " << options.metrics_path
                << "\n";
      g_all_ok = false;
    }
  }
}

inline void banner(const std::string& id, const std::string& title,
                   const std::string& paper_ref) {
  std::cout << "\n================================================================\n"
            << id << ": " << title << "\n"
            << "reproduces: " << paper_ref << "\n"
            << "================================================================\n";
}

inline void section(const std::string& name) {
  std::cout << "\n-- " << name << " --\n";
}

inline void claim(const std::string& description, bool ok) {
  std::cout << (ok ? "[PASS] " : "[FAIL] ") << description << "\n";
  if (!ok) g_all_ok = false;
}

inline int finish() {
  std::cout << (g_all_ok ? "\nall claims hold\n" : "\nSOME CLAIMS FAILED\n");
  return g_all_ok ? 0 : 1;
}

// Console attribution table for a profiled run: top-`top` domains by self
// time plus, for sharded runs, the busy/stall split per shard.
inline void print_profile(const obs::ProfileReport& report,
                          std::size_t top = 10) {
  if (report.domains.empty()) {
    std::printf("  (no samples: profiler disarmed or compiled out with "
                "-DRDP_PROFILE=OFF)\n");
    return;
  }
  std::printf("  %-24s %12s %12s %12s %12s\n", "domain", "self-ms",
              "incl-ms", "count", "allocs");
  for (std::size_t i = 0; i < report.domains.size() && i < top; ++i) {
    const obs::ProfDomainRow& row = report.domains[i];
    std::printf("  %-24s %12.3f %12.3f %12llu %12llu\n", row.name.c_str(),
                static_cast<double>(row.self_ns) / 1e6,
                static_cast<double>(row.incl_ns) / 1e6,
                static_cast<unsigned long long>(row.count),
                static_cast<unsigned long long>(row.alloc_count));
  }
  std::printf("  total self %.3f ms, top-%zu share %.1f%%",
              static_cast<double>(report.total_self_ns) / 1e6, top,
              report.top10_share * 100.0);
  if (report.total_alloc_count > 0) {
    std::printf(", %llu allocs / %llu bytes",
                static_cast<unsigned long long>(report.total_alloc_count),
                static_cast<unsigned long long>(report.total_alloc_bytes));
  }
  std::printf("\n");
  for (const obs::ProfShardRow& row : report.shards) {
    const double busy_ms = static_cast<double>(row.busy_ns) / 1e6;
    const double stall_ms = static_cast<double>(row.stall_ns) / 1e6;
    const double total = busy_ms + stall_ms;
    std::printf("  shard %-2d busy %10.3f ms  stall %10.3f ms  (%5.1f%% busy)\n",
                row.shard, busy_ms, stall_ms,
                total > 0 ? 100.0 * busy_ms / total : 100.0);
  }
  if (report.windows > 0) {
    std::printf("  kernel windows: %llu  observer barriers: %llu\n",
                static_cast<unsigned long long>(report.windows),
                static_cast<unsigned long long>(report.barriers));
  }
}

// JSON object for a BENCH_kernel.json "attribution" entry: totals, top-`top`
// domain rows by self time, and the per-shard busy/stall split.
inline std::string profile_json(const obs::ProfileReport& report,
                                std::size_t top = 10) {
  std::string json = "{\n";
  json += "      \"total_self_ns\": " + std::to_string(report.total_self_ns) +
          ",\n";
  char share[32];
  std::snprintf(share, sizeof(share), "%.4f", report.top10_share);
  json += "      \"top10_share\": " + std::string(share) + ",\n";
  json += "      \"total_alloc_count\": " +
          std::to_string(report.total_alloc_count) + ",\n";
  json += "      \"total_alloc_bytes\": " +
          std::to_string(report.total_alloc_bytes) + ",\n";
  json += "      \"domains\": [\n";
  for (std::size_t i = 0; i < report.domains.size() && i < top; ++i) {
    const obs::ProfDomainRow& row = report.domains[i];
    json += "        {\"domain\": \"" + row.name +
            "\", \"self_ns\": " + std::to_string(row.self_ns) +
            ", \"incl_ns\": " + std::to_string(row.incl_ns) +
            ", \"count\": " + std::to_string(row.count) +
            ", \"alloc_count\": " + std::to_string(row.alloc_count) + "}";
    json += (i + 1 < report.domains.size() && i + 1 < top) ? ",\n" : "\n";
  }
  json += "      ],\n";
  json += "      \"shards\": [\n";
  for (std::size_t i = 0; i < report.shards.size(); ++i) {
    const obs::ProfShardRow& row = report.shards[i];
    json += "        {\"shard\": " + std::to_string(row.shard) +
            ", \"busy_ns\": " + std::to_string(row.busy_ns) +
            ", \"stall_ns\": " + std::to_string(row.stall_ns) + "}";
    json += i + 1 < report.shards.size() ? ",\n" : "\n";
  }
  json += "      ],\n";
  json += "      \"windows\": " + std::to_string(report.windows) + ",\n";
  json += "      \"barriers\": " + std::to_string(report.barriers) + "\n";
  json += "    }";
  return json;
}

// Arm a canonical run's ExperimentParams with the shared --profile flags
// and point its report at `report` (no-op without --profile).  Template so
// this header stays independent of harness/experiment.h.
template <typename Params>
inline void arm_profile(const BenchOptions& options, Params* params,
                        obs::ProfileReport* report) {
  if (!options.profile) return;
  params->profile = true;
  params->profile_folded_out = options.profile_folded_path;
  params->profile_report = report;
}

// Companion to arm_profile: print the attribution table after the armed run
// finished (no-op without --profile).
inline void report_profile(const BenchOptions& options,
                           const obs::ProfileReport& report,
                           const std::string& what) {
  if (!options.profile) return;
  section("profile: " + what);
  print_profile(report);
}

}  // namespace rdp::benchutil
