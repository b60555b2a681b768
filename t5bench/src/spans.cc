#include "spans.h"

#include <cstdio>

namespace t5 {

namespace {

thread_local uint64_t tls_current_span = 0;
thread_local uint64_t tls_current_op = 0;
thread_local bool tls_tracing = false;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SetThreadTracing(bool on) { tls_tracing = on; }
bool ThreadTracing() { return tls_tracing; }

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // never destroyed
  return *tracer;
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Add(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::Durations(const std::string& name,
                                      const std::string& tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name && (tag.empty() || s.tag == tag)) out.push_back(s.ms());
  }
  return out;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::vector<SpanRecord> spans = Snapshot();
  std::map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<int64_t, int64_t>> covered;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const SpanRecord* c : it->second) {
        covered.emplace_back(std::max(c->start_ns, s.start_ns),
                             std::min(c->end_ns, s.end_ns));
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0, reach = s.start_ns;
    for (auto [begin, end] : covered) {
      begin = std::max(begin, reach);
      if (end > begin) {
        covered_ns += end - begin;
        reach = end;
      }
    }
    self[s.layer()] +=
        static_cast<double>(s.end_ns - s.start_ns - covered_ns) / 1e6;
  }
  return self;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::vector<SpanRecord> spans = Snapshot();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"tag\": \"%s\", \"id\": %llu, "
                 "\"parent\": %llu, \"op\": %llu, \"start_ns\": %lld, "
                 "\"end_ns\": %lld}\n",
                 s.name.c_str(), s.tag.c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

Span::Span(std::string name, std::string tag, uint64_t op) {
  recording_ = tls_tracing;
  if (recording_) {
    Tracer& tracer = Tracer::Global();
    record_.name = std::move(name);
    record_.tag = std::move(tag);
    record_.id = tracer.NextId();
    record_.parent = tls_current_span;
    record_.op = op != 0 ? op : tls_current_op;
    saved_parent_ = tls_current_span;
    tls_current_span = record_.id;
    if (op != 0) tls_current_op = op;
    record_.start_ns = NowNs();
  }
  start_ = Clock::now();
}

Span::~Span() { End(); }

double Span::End() {
  if (ms_ >= 0) return ms_;
  Clock::time_point end = Clock::now();
  ms_ = MsBetween(start_, end);
  if (recording_) {
    record_.end_ns = NowNs();
    tls_current_span = saved_parent_;
    if (saved_parent_ == 0) tls_current_op = 0;
    Tracer::Global().Add(std::move(record_));
  }
  return ms_;
}

}  // namespace t5
