// In-memory span log of a traced run: one span per wrapped call into a
// layer, analysed (durations, self time) and exported as a Chrome trace
// when the run ends.  Spans of one job or batch share an id, which the
// export turns into one flow arrow chain.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string, e.g. "trading.mandatory"
  u64 id = 0;             ///< job or batch id
  Nanos start = 0;
  Nanos end = 0;
  int track = 0;          ///< trace lane (one per thread)
  int parent = -1;        ///< index of the enclosing span; -1 = root
};

class SpanLog {
 public:
  /// Keeps at most `capacity` spans; later ones are not recorded.
  explicit SpanLog(usize capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Appends a span; returns its index, or -1 when the log is full.
  int add(const char* name, u64 id, Nanos start, Nanos end, int track,
          int parent = -1);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part of it that its children's
  /// intervals cover (union, clipped to the span).
  std::vector<Nanos> self_times() const;

  /// Durations (µs) of every span named `name`.
  std::vector<double> durations_us(const char* name) const;

  /// Chrome trace-event JSON: one "X" slice per span of the first
  /// `max_ids` ids, lanes named by `track_names`, and per id a flow
  /// chain through its spans in start order.
  std::string chrome_trace(const std::vector<std::string>& track_names,
                           u64 max_ids) const;

 private:
  usize capacity_;
  std::vector<Span> spans_;
};

/// Writes `log`'s Chrome trace (first 2000 ids) to
/// <workdir>/trace-<workload>-seed<seed>.json and notes the path.
void write_trace(Result& r, const Options& options, const SpanLog& log,
                 const std::vector<std::string>& track_names);

}  // namespace perfbench
