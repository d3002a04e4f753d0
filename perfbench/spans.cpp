#include "spans.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "obs/chrome_trace.hpp"

namespace perfbench {

int SpanLog::add(const char* name, u64 id, Nanos start, Nanos end, int track,
                 int parent) {
  if (spans_.size() >= capacity_) return -1;
  spans_.push_back(Span{name, id, start, end, track, parent});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Nanos> SpanLog::self_times() const {
  std::vector<std::vector<std::pair<Nanos, Nanos>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<usize>(s.parent)];
    const Nanos lo = std::max(s.start, p.start);
    const Nanos hi = std::min(s.end, p.end);
    if (hi > lo) children[static_cast<usize>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<Nanos> self(spans_.size());
  for (usize i = 0; i < spans_.size(); ++i) {
    const Nanos covered = union_length(children[i]);
    self[i] = (spans_[i].end - spans_[i].start) - covered;
  }
  return self;
}

std::vector<double> SpanLog::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(to_us(s.end - s.start));
  }
  return out;
}

std::string SpanLog::chrome_trace(const std::vector<std::string>& track_names,
                                  u64 max_ids) const {
  constexpr int kPid = 1;
  rtseed::obs::ChromeTraceBuilder builder;
  builder.set_process_name(kPid, "perfbench");
  for (usize t = 0; t < track_names.size(); ++t) {
    builder.set_thread_name(kPid, static_cast<int>(t), track_names[t]);
  }
  if (spans_.empty()) return builder.render();

  Nanos origin = spans_.front().start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  const auto ts = [origin](Nanos t) { return to_us(t - origin); };

  // Ids are dense from the first one seen; keep the first max_ids.
  const u64 first_id = spans_.front().id;
  std::unordered_map<u64, std::vector<const Span*>> by_id;
  for (const Span& s : spans_) {
    if (s.id < first_id || s.id - first_id >= max_ids) continue;
    builder.add_complete(s.name, kPid, s.track, ts(s.start),
                         ts(s.end) - ts(s.start));
    by_id[s.id].push_back(&s);
  }

  // The builder has no flow events: splice them in before the closing
  // "]}" of its rendered document.
  std::string doc = builder.render();
  const auto close = doc.rfind(']');
  if (close == std::string::npos) return doc;
  std::string flows;
  char event[256];
  for (auto& [id, chain] : by_id) {
    if (chain.size() < 2) continue;
    std::sort(chain.begin(), chain.end(),
              [](const Span* a, const Span* b) { return a->start < b->start; });
    for (usize i = 0; i < chain.size(); ++i) {
      const char* ph = i == 0 ? "s" : (i + 1 == chain.size() ? "f" : "t");
      std::snprintf(event, sizeof(event),
                    ",{\"name\":\"id\",\"cat\":\"flow\",\"ph\":\"%s\","
                    "\"id\":%llu,\"pid\":%d,\"tid\":%d,\"ts\":%.3f%s}",
                    ph, static_cast<unsigned long long>(id), kPid,
                    chain[i]->track, ts(chain[i]->start),
                    i + 1 == chain.size() ? ",\"bp\":\"e\"" : "");
      flows += event;
    }
  }
  doc.insert(close, flows);
  return doc;
}

void write_trace(Result& r, const Options& options, const SpanLog& log,
                 const std::vector<std::string>& track_names) {
  constexpr u64 kExportIds = 2000;
  const std::string path = options.workdir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  std::ofstream(path) << log.chrome_trace(track_names, kExportIds);
  r.notes.emplace_back("chrome_trace", path);
}

}  // namespace perfbench
