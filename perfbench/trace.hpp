// In-memory span recorder for the traced benchmark run.
//
// A span brackets one call from the benchmark into a library module: its
// name, start, end, the span that was open on the same thread when it
// began (its parent), and the app or request it worked for. Spans go to a
// per-thread buffer (no lock on the hot path) and are only gathered after
// the threads that recorded them have been joined. With tracing disabled
// a SpanScope costs one relaxed load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  double start = 0.0;  ///< now_s() at entry
  double end = 0.0;
  /// Index of the parent span in the gathered vector, -1 for a root.
  std::int64_t parent = -1;
  /// App index or request number; -1 when the span is not per app.
  std::int64_t id = -1;
  /// Small integer naming the worker (thread of a pool, agent, ...) that
  /// recorded the span; assigned per thread in first-use order.
  int thread = 0;

  double seconds() const { return end - start; }
};

void set_tracing(bool on);
bool tracing();

/// Gathers every recorded span (parents remapped to gathered indices) and
/// clears the buffers. Call only while no thread is recording.
std::vector<Span> take_spans();

/// Appends the spans to `path` as TSV lines: name, start, end, parent, id,
/// thread — the raw trace behind the per-layer metrics.
void write_spans(const std::string& path, const std::vector<Span>& spans);

class SpanScope {
 public:
  explicit SpanScope(const char* name, std::int64_t id = -1);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Names the span after the fact (e.g. a model load that turned out to
  /// be a cache hit).
  void rename(const char* name);

 private:
  std::int64_t index_ = -1;
};

/// Per-name aggregates over gathered spans.
struct SpanTable {
  explicit SpanTable(const std::vector<Span>& spans);

  /// Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(const char* name) const;
  /// Self times (ms): duration minus the time its direct children cover.
  std::vector<double> self_ms(const char* name) const;
  double total_ms(const char* name) const;

  const std::vector<Span>& spans;
  std::vector<double> child_seconds;  ///< per span: sum of direct children
};

}  // namespace perfbench
