#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace e2e {

Tracer g_trace;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

double cpu_s() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return tv_s(self.ru_utime) + tv_s(self.ru_stime) + tv_s(kids.ru_utime) +
         tv_s(kids.ru_stime);
}

double peak_rss_mb() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

i32 Tracer::open(const char* name) {
  SpanRecord s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.probe = probe;
  s.start = now_s();
  spans_.push_back(std::move(s));
  const i32 id = static_cast<i32>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(i32 id) {
  spans_[static_cast<size_t>(id)].end = now_s();
  // Spans are strictly nested (RAII), so the closing span is the top.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::count(const std::string& name, double v) {
  if (!enabled) return;
  (probe ? probe_counts_ : main_counts_)[name] += v;
}

double Tracer::counter(const std::string& name) const {
  for (const auto* m : {&main_counts_, &probe_counts_}) {
    const auto it = m->find(name);
    if (it != m->end()) return it->second;
  }
  return 0.0;
}

double Tracer::self_time(size_t i) const {
  const SpanRecord& s = spans_[i];
  // Children are recorded after their parent and, being nested, in start
  // order without overlap, so their durations sum to the covered part.
  double covered = 0.0;
  for (size_t j = i + 1; j < spans_.size() && spans_[j].start < s.end; ++j) {
    if (spans_[j].parent == static_cast<i32>(i)) covered += spans_[j].end - spans_[j].start;
  }
  return (s.end - s.start) - covered;
}

bool Tracer::export_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"probe\":%d}}%s\n",
                 s.name.c_str(), (s.start - t0) * 1e6, (s.end - s.start) * 1e6, i,
                 s.parent, s.probe ? 1 : 0, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void Ledger::check(const std::string& what, bool ok) {
  checks.emplace_back(what, ok);
}

bool Ledger::all_passed() const {
  for (const auto& [what, ok] : checks)
    if (!ok) return false;
  return true;
}

}  // namespace e2e
