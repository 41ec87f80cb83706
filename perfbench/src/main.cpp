// perfbench: one benchmark for the CausalEC stack.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server-bin PATH --work-dir DIR [--trace-out FILE]
//             [--corrupt-read K]
//
// Runs one named workload against the stack's public entry points, checks
// every output, and prints a summary followed by one JSON line:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run is traced and
// the metrics are the per-layer ones. Exits 1 when any check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench.h"

namespace perfbench {

namespace {

Shape make_shape(const char* name, const char* code, std::size_t n,
                 std::size_t k, std::size_t value_bytes, double write_fraction,
                 std::vector<NodeId> homes, std::vector<std::string> off_path) {
  Shape s;
  s.name = name;
  s.code = code;
  s.n = n;
  s.k = k;
  s.value_bytes = value_bytes;
  s.write_fraction = write_fraction;
  s.homes = std::move(homes);
  s.off_path = std::move(off_path);
  return s;
}

// The workloads. Shapes are fixed here; only the seed varies. Sessions
// (one per entry of `homes`) stay on their home server.
std::vector<Shape> shapes() {
  return {
      // No sockets, no router: these layers are not on its path.
      // Two sessions: one on a cross-object parity server (0 stores
      // X1 + X3), one on a systematic server (4 stores X4).
      make_shape("inproc-write-64k", "six-dc", 6, 4, 64 * 1024, 0.9,
                 {0, 4},
                 {"net.unaccounted_us", "net.inqueue_depth_mean",
                  "net.history_entries_mean", "net.shard_imbalance",
                  "frontdoor.hit_rate", "frontdoor.stale_rate",
                  "frontdoor.hit_read_us", "frontdoor.origin_read_us"}),
      // Two router sessions; the router picks the backend.
      make_shape("routed-read-1k", "rs", 5, 3, 1024, 0.05, {0, 1}, {}),
  };
}

const std::vector<std::pair<std::string, std::string>>& e2e_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"ops_per_s", "1/s"},
      {"write_p50_us", "us"},     {"write_p99_us", "us"},
      {"read_p50_us", "us"},      {"read_p99_us", "us"},
      {"storage_bytes_per_user_byte", "ratio"},
      {"rss_mib", "MiB"},    {"setup_s", "s"},
  };
  return units;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --server-bin PATH --work-dir DIR "
               "[--trace-out FILE] [--corrupt-read K]\n";
  std::exit(2);
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

std::atomic<std::uint64_t> g_reads_seen{0};


}  // namespace

bool should_corrupt_read(const Args& args) {
  return args.corrupt_read != 0 && ++g_reads_seen == args.corrupt_read;
}

int run(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--server-bin") {
      args.server_bin = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--corrupt-read") {
      args.corrupt_read = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (args.work_dir.empty()) usage("--work-dir is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  const Shape* shape = nullptr;
  const auto all = shapes();
  for (const Shape& s : all) {
    if (s.name == args.workload) shape = &s;
  }
  if (shape == nullptr) usage("unknown workload " + args.workload);
  if (shape->name == "routed-read-1k" && args.server_bin.empty()) {
    usage("--server-bin is required for " + shape->name);
  }
  std::filesystem::create_directories(args.work_dir);

  const auto steal0 = cpu_steal();
  Spans spans;
  RunResult r;
  if (shape->name == "inproc-write-64k") {
    r = run_inproc(args, *shape, spans);
  } else {
    r = run_routed(args, *shape, spans);
  }
  std::filesystem::remove_all(args.work_dir);
  const auto steal1 = cpu_steal();
  if (steal1.second > steal0.second) {
    r.notes.push_back("cpu steal during the run: " +
                      std::to_string(100 * (steal1.first - steal0.first) /
                                     (steal1.second - steal0.second)) +
                      " % of cpu time");
  }

  Metrics out;
  if (args.trace) {
    add_self_times(spans, r);
    r.set(r.layer, "failed_frac",
          r.attempted == 0 ? 0
                           : static_cast<double>(r.failed) /
                                 static_cast<double>(r.attempted),
          "ratio");
    // A layer off the workload's path reports 0; any other metric that
    // was not measured is a fault of the run, not a gain.
    for (const auto& [name, unit] : layer_metric_units()) {
      auto it = r.layer.find(name);
      if (it != r.layer.end()) {
        out[name] = Metric{it->second.value, unit};
        continue;
      }
      const auto& off = shape->off_path;
      if (std::find(off.begin(), off.end(), name) == off.end()) {
        r.violations.push_back("layer metric " + name + " was not measured");
      }
      out[name] = Metric{0.0, unit};
    }
    if (!args.trace_out.empty() &&
        !spans.write_chrome_trace(args.trace_out, 50000)) {
      std::cerr << "perfbench: cannot write " << args.trace_out << "\n";
    }
  } else {
    for (const auto& [name, unit] : e2e_metric_units()) {
      auto it = r.e2e.find(name);
      if (it == r.e2e.end()) {
        r.violations.push_back("metric " + name + " was not measured");
        continue;
      }
      out[name] = Metric{it->second.value, unit};
    }
  }
  if (r.attempted == 0) r.violations.push_back("no operation was attempted");

  std::cout << "workload " << shape->name << " seed " << args.seed
            << (args.trace ? " (traced)" : "") << "\n";
  for (const auto& note : r.notes) std::cout << "  " << note << "\n";
  for (const auto& v : r.violations) std::cout << "  VIOLATION: " << v << "\n";
  for (const auto& [name, m] : out) {
    std::cout << "  " << name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "{\"correct\": " << (r.correct() ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(r.attempted, 1)
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out) {
    std::cout << (first ? "" : ", ") << "\"" << json_escape(name)
              << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
              << json_escape(m.unit) << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return r.correct() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
