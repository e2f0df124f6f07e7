#include "trace.hpp"

#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>

#include "stats.hpp"

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};

struct ThreadBuffer {
  int thread = 0;
  std::vector<Span> spans;            // parents are local indices here
  std::vector<std::int64_t> open;     // stack of open local indices
};

std::mutex g_registry_mutex;
std::vector<std::shared_ptr<ThreadBuffer>> g_registry;  // guarded

ThreadBuffer& local_buffer() {
  // The registry co-owns each buffer, so spans survive the exit of the
  // pool thread that recorded them.
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto created = std::make_shared<ThreadBuffer>();
    const std::lock_guard lock{g_registry_mutex};
    created->thread = static_cast<int>(g_registry.size());
    g_registry.push_back(created);
    return created;
  }();
  return *buffer;
}

bool same_name(const char* a, const char* b) {
  return a == b || std::strcmp(a, b) == 0;
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

SpanScope::SpanScope(const char* name, std::int64_t id) {
  if (!tracing()) return;
  ThreadBuffer& buffer = local_buffer();
  Span span;
  span.name = name;
  span.id = id;
  span.thread = buffer.thread;
  span.parent = buffer.open.empty() ? -1 : buffer.open.back();
  index_ = static_cast<std::int64_t>(buffer.spans.size());
  buffer.open.push_back(index_);
  span.start = now_s();
  buffer.spans.push_back(span);
}

SpanScope::~SpanScope() {
  if (index_ < 0) return;
  ThreadBuffer& buffer = local_buffer();
  buffer.spans[static_cast<std::size_t>(index_)].end = now_s();
  buffer.open.pop_back();
}

void SpanScope::rename(const char* name) {
  if (index_ < 0) return;
  local_buffer().spans[static_cast<std::size_t>(index_)].name = name;
}

std::vector<Span> take_spans() {
  const std::lock_guard lock{g_registry_mutex};
  std::vector<Span> all;
  for (const auto& buffer : g_registry) {
    const auto offset = static_cast<std::int64_t>(all.size());
    for (Span span : buffer->spans) {
      if (span.parent >= 0) span.parent += offset;
      all.push_back(span);
    }
    buffer->spans.clear();
  }
  return all;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out{path, std::ios::app};
  for (const Span& s : spans)
    out << s.name << '\t' << s.start << '\t' << s.end << '\t' << s.parent
        << '\t' << s.id << '\t' << s.thread << '\n';
}

SpanTable::SpanTable(const std::vector<Span>& all)
    : spans(all), child_seconds(all.size(), 0.0) {
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_seconds[static_cast<std::size_t>(s.parent)] += s.seconds();
}

std::vector<double> SpanTable::durations_ms(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans)
    if (same_name(s.name, name)) out.push_back(1000.0 * s.seconds());
  return out;
}

std::vector<double> SpanTable::self_ms(const char* name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (same_name(spans[i].name, name))
      out.push_back(1000.0 * (spans[i].seconds() - child_seconds[i]));
  return out;
}

double SpanTable::total_ms(const char* name) const {
  return sum(durations_ms(name));
}

}  // namespace perfbench
