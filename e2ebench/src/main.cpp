// End-to-end benchmark of terasim.
//
//   e2ebench --workload ofdm_symbol|farm_soak|dse_sweep --seed N
//            --seconds S --trace 0|1 [--scratch DIR] [--commit ID]
//            [--mimo N] [--shards N]
//
// --mimo and --shards are for the README's reference figures only: one
// ofdm_symbol MIMO size, and the farm_soak shard count.
//
// Untraced (--trace 0): builds the workload (timed as setup_s, repeated),
// runs whole closed-loop rounds for S seconds, checks the outputs outside
// the timed phase and prints the end-to-end metrics. Traced (--trace 1):
// drives the same configuration untraced, traced and untraced again, takes
// it apart layer by layer, checks it, writes the spans to DIR and prints the
// per-layer metrics and the tracing overhead. Layers the workload does not
// exercise (MAC, farm and snapshots outside farm_soak; golden model and DSE
// outside dse_sweep) are measured on a small probe of the workload that
// does, so every per-layer metric exists in every traced run.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "sim/report.h"
#include "workloads.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_FLAGS
#define E2E_FLAGS "unknown"
#endif

namespace e2e {

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opt) {
  if (name == "ofdm_symbol") return make_ofdm(opt);
  if (name == "farm_soak") return make_farm(opt);
  if (name == "dse_sweep") return make_dse(opt);
  return nullptr;
}

namespace {

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".e2ebench-scratch";
  std::string commit = "unknown";
  u32 mimo = 0;
  u32 shards = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "e2ebench: %s\n", msg);
  std::fprintf(stderr,
               "usage: e2ebench --workload ofdm_symbol|farm_soak|dse_sweep --seed N "
               "--seconds S --trace 0|1 [--scratch DIR] [--commit ID] [--mimo N] "
               "[--shards N]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("--seed expects an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0.0)) usage("--seconds expects a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("--trace expects 0 or 1");
      a.trace = v[0] == '1';
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--mimo" || flag == "--shards") {
      const unsigned long n = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || n < 1 || n > 64) usage((flag + " expects 1..64").c_str());
      (flag == "--mimo" ? a.mimo : a.shards) = static_cast<u32>(n);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// Mean duration (s) of spans named `name`, from the workload's own drive
/// when it made any, else from the probe; `n` receives the span count.
double span_total(const std::string& name, size_t* n = nullptr) {
  for (const bool probe : {false, true}) {
    double total = 0.0;
    size_t count = 0;
    for (const SpanRecord& s : g_trace.spans()) {
      if (s.probe == probe && s.name == name) {
        total += s.end - s.start;
        ++count;
      }
    }
    if (count > 0) {
      if (n != nullptr) *n = count;
      return total;
    }
  }
  if (n != nullptr) *n = 0;
  return 0.0;
}

double span_mean(const std::string& name) {
  size_t n = 0;
  const double total = span_total(name, &n);
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

std::vector<Metric> end_to_end(const RunRecord& rec) {
  double det = 0.0;
  double wall = 0.0;
  double cpu = 0.0;
  for (const OpKind& k : rec.kinds) {
    det += static_cast<double>(k.detected);
    for (const double w : k.wall) wall += w;
    for (const double c : k.cpu) cpu += c;
  }
  return {
      {"detections_per_s", ratio(det, wall), "detections/s"},
      {"cpu_us_per_detection", 1e6 * ratio(cpu, det), "us"},
      {"setup_s", median(rec.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

std::vector<Metric> per_layer(const RunRecord& rec) {
  const Tracer& T = g_trace;
  const auto c = [&](const char* name) { return T.counter(name); };
  // Coverage: share of the traced drive's root span covered by its children.
  double root = 0.0;
  double covered = 0.0;
  for (size_t i = 0; i < T.spans().size(); ++i) {
    const SpanRecord& s = T.spans()[i];
    if (s.probe || s.name != "timed") continue;
    root += s.end - s.start;
    covered += (s.end - s.start) - T.self_time(i);
  }
  const double iss_run = c("iss.run_s");
  return {
      {"traffic.slot_ms", 1e3 * span_mean("traffic.slot"), "ms"},
      {"golden.slot_ms", 1e3 * span_mean("golden.slot"), "ms"},
      {"kernels.build_ms", 1e3 * span_mean("kernels.build"), "ms"},
      {"iss.translate_ms", 1e3 * span_mean("iss.translate"), "ms"},
      {"iss.run_s", iss_run, "s"},
      {"iss.instructions", c("iss.instructions"), "count"},
      {"iss.mips", ratio(c("iss.instructions"), iss_run) / 1e6, "MIPS"},
      {"iss.lockstep_frac",
       ratio(c("iss.lockstep_instr"), c("iss.lockstep_instr") + c("iss.serial_instr")),
       "ratio"},
      {"iss.avg_width", ratio(c("iss.width_sum"), c("iss.formations")), "harts"},
      {"cosim.stage_us", 1e6 * ratio(span_total("cosim.stage"), c("cosim.staged")), "us"},
      {"cosim.readback_us", 1e6 * ratio(span_total("cosim.readback"), c("cosim.read")),
       "us"},
      {"sched.ctor_ms", 1e3 * span_mean("sched.ctor"), "ms"},
      {"sched.slot_self_ms", 1e3 * ratio(c("sched.self_s"), c("sched.self_slots")), "ms"},
      {"sched.batches", ratio(c("sched.batches"), c("sched.slots")), "1/slot"},
      {"sched.batch_fill", ratio(c("sched.problems"), c("sched.problem_slots")), "ratio"},
      {"sched.reloads", ratio(c("sched.reloads"), c("sched.slots")), "1/slot"},
      {"sched.shrunk_frac", ratio(c("sched.shrunk"), c("sched.batches")), "ratio"},
      {"mac.request_us", 1e6 * span_mean("mac.request"), "us"},
      {"mac.harq_us", 1e6 * span_mean("mac.harq"), "us"},
      {"mac.idle_ttis", c("mac.idle_ttis"), "count"},
      {"farm.overhead_s", ratio(c("farm.overhead_s"), c("farm.runs")), "s"},
      {"farm.codec_us", 1e6 * span_mean("farm.codec"), "us"},
      {"snapshot.save_ms", 1e3 * span_mean("snapshot.save"), "ms"},
      {"snapshot.load_ms", 1e3 * span_mean("snapshot.load"), "ms"},
      {"snapshot.kb", ratio(c("snapshot.bytes"), c("snapshot.files")) / 1024.0, "KiB"},
      {"dse.point_s", ratio(c("dse.point_s_sum"), c("dse.points")), "s"},
      {"dse.pareto_ms", 1e3 * span_mean("dse.pareto"), "ms"},
      {"uarch.cycle_err_pct", 100.0 * ratio(c("uarch.gap_sum"), c("uarch.samples")), "%"},
      {"uarch.run_s", ratio(c("uarch.run_s"), c("uarch.samples")), "s"},
      {"trace.coverage_pct", 100.0 * ratio(covered, root), "%"},
      {"trace.overhead_pct",
       100.0 * ratio(rec.traced_wall - rec.untraced_wall, rec.untraced_wall), "%"},
  };
}

/// Per span name (probe spans prefixed "probe:"): calls, total and self time.
void print_self_times() {
  struct Row {
    size_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < g_trace.spans().size(); ++i) {
    const SpanRecord& s = g_trace.spans()[i];
    Row& r = rows[(s.probe ? "probe:" : "") + s.name];
    ++r.calls;
    r.total += s.end - s.start;
    r.self += g_trace.self_time(i);
  }
  std::printf("%-26s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms");
  for (const auto& [name, r] : rows)
    std::printf("%-26s %8zu %12.3f %12.3f\n", name.c_str(), r.calls, 1e3 * r.total,
                1e3 * r.self);
}

int run(const Args& args) {
  WorkloadOptions opt;
  opt.seed = args.seed;
  opt.scratch = args.scratch;
  opt.mimo = args.mimo;
  opt.shards = args.shards;
  std::unique_ptr<Workload> w = make_workload(args.workload, opt);
  if (!w) usage(("unknown workload " + args.workload).c_str());
  mkdir(args.scratch.c_str(), 0755);

  std::printf("e2ebench | workload %s | seed %llu | %.1f s | trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: nproc %u | compiler gcc %s | build %s | flags %s | commit %s\n",
              std::thread::hardware_concurrency(), __VERSION__, E2E_BUILD_TYPE, E2E_FLAGS,
              args.commit.c_str());

  RunRecord rec;
  g_trace.enabled = args.trace;
  for (int k = 0; k < w->setups(); ++k) {
    const double t = now_s();
    w->setup();
    rec.setup_s.push_back(now_s() - t);
  }

  if (!args.trace) {
    const double t0 = now_s();
    do {
      w->round(rec);
      ++rec.rounds;
    } while (now_s() - t0 < args.seconds);
    std::printf("timed phase: %llu round(s) in %.3f s\n",
                static_cast<unsigned long long>(rec.rounds), now_s() - t0);
    w->check(rec);
  } else {
    w->traced(rec);
    g_trace.probe = true;
    for (const char* other : {"farm_soak", "dse_sweep"}) {
      if (args.workload == other) continue;
      RunRecord probe;
      WorkloadOptions popt;
      popt.seed = args.seed;
      popt.scratch = args.scratch;
      popt.tiny = true;
      std::unique_ptr<Workload> p = make_workload(other, popt);
      p->setup();
      p->traced(probe);
      for (const auto& [what, ok] : probe.ledger.checks)
        rec.ledger.check("probe " + what, ok);
    }
    g_trace.probe = false;
  }

  const Ledger& L = rec.ledger;
  for (const std::string& n : L.notes) std::printf("note: %s\n", n.c_str());
  for (const auto& [what, ok] : L.checks)
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  for (const auto& [kind, af] : L.ops)
    std::printf("accounting %-16s attempted %llu failed %llu\n", kind.c_str(),
                static_cast<unsigned long long>(af.first),
                static_cast<unsigned long long>(af.second));
  for (const OpKind& k : rec.kinds) {
    std::printf("op %-14s %zu ops, %llu detections, median %.4f s wall, %.4f s cpu | "
                "wall samples:",
                k.name.c_str(), k.wall.size(), static_cast<unsigned long long>(k.detected),
                median(k.wall), median(k.cpu));
    for (const double w : k.wall) std::printf(" %.4f", w);
    std::printf("\n");
  }
  std::printf("setup_s samples:");
  for (const double s : rec.setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (args.trace) {
    print_self_times();
    const std::string path = args.scratch + "/trace_" + args.workload + "_" +
                             std::to_string(args.seed) + ".json";
    std::printf("spans: %zu written to %s%s\n", g_trace.spans().size(), path.c_str(),
                g_trace.export_json(path) ? "" : " (FAILED)");
    metrics = per_layer(rec);
    std::printf("tracing overhead: traced drive %.3f s vs untraced %.3f s (%+.1f%%)\n",
                rec.traced_wall, rec.untraced_wall,
                100.0 * ratio(rec.traced_wall - rec.untraced_wall, rec.untraced_wall));
  } else {
    metrics = end_to_end(rec);
  }
  for (const Metric& m : metrics)
    std::printf("metric %-22s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string json = tsim::sim::strf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      L.all_passed() ? "true" : "false", static_cast<unsigned long long>(rec.attempted),
      static_cast<unsigned long long>(rec.failed));
  for (size_t i = 0; i < metrics.size(); ++i)
    json += tsim::sim::strf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                            i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                            metrics[i].unit.c_str());
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(e2e::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
