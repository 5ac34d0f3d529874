// Shared plumbing of the end-to-end benchmark: host clocks and resource
// usage, the in-memory span tracer, layer counters, the check ledger and the
// per-workload run record that main.cpp turns into the result line.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace e2e {

using tsim::i32;
using tsim::i64;
using tsim::u32;
using tsim::u64;
using tsim::u8;

/// Monotonic host time in seconds.
double now_s();
/// User + system CPU seconds of this process and of every reaped child
/// (forked farm workers land in RUSAGE_CHILDREN once run_farm waits on them).
double cpu_s();
/// Largest resident set of this process or of any reaped child, in MiB.
double peak_rss_mb();

double median(std::vector<double> v);

// ---- tracing ----------------------------------------------------------------

/// One span: a timed call into a layer's public function, made from the
/// benchmark's own code. `probe` marks spans of the cross-layer probe (layers
/// a workload does not exercise itself, see main.cpp).
struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  i32 parent = -1;
  bool probe = false;
};

/// Spans stay in memory until the run ends; export() writes them out. The
/// tracer is single-threaded: it is only ever driven from the benchmark's
/// own thread, never from inside the simulator's worker threads or forks.
class Tracer {
 public:
  bool enabled = false;
  bool probe = false;

  i32 open(const char* name);
  void close(i32 id);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Adds `v` to the layer counter `name` (only while enabled).
  void count(const std::string& name, double v);
  /// Counter value, preferring the workload's own drive over the probe.
  double counter(const std::string& name) const;

  /// Writes every span as a Chrome trace-event JSON array.
  bool export_json(const std::string& path) const;
  /// Self time of span `i`: its duration minus the union of its children.
  double self_time(size_t i) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<i32> stack_;
  std::map<std::string, double> main_counts_;
  std::map<std::string, double> probe_counts_;
};

extern Tracer g_trace;

/// RAII span around one call (no-op while tracing is off).
class Span {
 public:
  explicit Span(const char* name) : id_(g_trace.enabled ? g_trace.open(name) : -1) {}
  ~Span() {
    if (id_ >= 0) g_trace.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  i32 id_;
};

/// Wall time of `drive()` run with tracing off. Traced runs time their drive
/// untraced before and after the traced drive and keep the faster, so a cold
/// first drive does not read as a negative tracing overhead.
template <class Drive>
double untraced_wall(Drive&& drive) {
  const bool was = g_trace.enabled;
  g_trace.enabled = false;
  const double t = now_s();
  drive();
  const double wall = now_s() - t;
  g_trace.enabled = was;
  return wall;
}

// ---- outcome of one workload run --------------------------------------------

/// A kind of operation the timed phase repeats: one wall and CPU sample per
/// operation and the detections its successful operations delivered.
/// detections_per_s and cpu_us_per_detection are totals over the timed phase
/// (sum of detections over sum of op times), not medians: the host's speed
/// drifts by up to 2x over seconds, and a median of op times would snap to
/// whichever speed held most of a run, where the total averages over it.
struct OpKind {
  std::string name;
  u64 detected = 0;
  std::vector<double> wall;
  std::vector<double> cpu;
};

struct Ledger {
  /// Named output checks; every one must pass for `correct`.
  std::vector<std::pair<std::string, bool>> checks;
  /// Run accounting: operation kind -> {attempted, failed}.
  std::map<std::string, std::pair<u64, u64>> ops;
  /// Free-form detail lines printed with the result.
  std::vector<std::string> notes;

  void check(const std::string& what, bool ok);
  void note(const std::string& line) { notes.push_back(line); }
  bool all_passed() const;
};

struct RunRecord {
  std::vector<OpKind> kinds;
  std::vector<double> setup_s;  // one entry per set-up repetition
  u64 rounds = 0;
  u64 attempted = 0;  // operations of the timed phase (the result's unit)
  u64 failed = 0;
  Ledger ledger;
  double traced_wall = 0.0;    // traced drive, tracing on
  double untraced_wall = 0.0;  // the same drive, tracing off
};

}  // namespace e2e
