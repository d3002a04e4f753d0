#include "obs/prometheus_export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace rtseed::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(PrometheusEscape, EscapesLabelValues) {
  EXPECT_EQ(prometheus_escape("plain"), "plain");
  EXPECT_EQ(prometheus_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(prometheus_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_escape("a\nb"), "a\\nb");
}

TEST(PrometheusExport, CounterLineFormat) {
  MetricsRegistry registry;
  registry.counter("rtseed_jobs_released_total", "Jobs released",
                   {{"task", "tau1"}})
      ->add(42);
  const std::string text = render_prometheus(registry);
  EXPECT_NE(text.find("# HELP rtseed_jobs_released_total Jobs released\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rtseed_jobs_released_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("rtseed_jobs_released_total{task=\"tau1\"} 42\n"),
            std::string::npos);
}

TEST(PrometheusExport, HeadersEmittedOncePerFamily) {
  MetricsRegistry registry;
  registry.counter("x_total", "x", {{"task", "a"}})->add(1);
  registry.counter("x_total", "x", {{"task", "b"}})->add(2);
  const std::string text = render_prometheus(registry);
  int helps = 0;
  for (const auto& line : lines_of(text)) {
    helps += line.rfind("# HELP x_total", 0) == 0;
  }
  EXPECT_EQ(helps, 1);
  EXPECT_NE(text.find("x_total{task=\"a\"} 1"), std::string::npos);
  EXPECT_NE(text.find("x_total{task=\"b\"} 2"), std::string::npos);
}

TEST(PrometheusExport, HistogramBucketsAreCumulativeWithInf) {
  MetricsRegistry registry;
  auto* h = registry.hdr_histogram("lat", "latency");
  h->record(common::u64{5});
  h->record(common::u64{15});
  h->record(common::u64{25});
  h->record(common::u64{1000000});  // far above the rest: counted at +Inf
  const std::string text = render_prometheus(registry);
  EXPECT_NE(text.find("lat_bucket{le=\"5\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"15\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"25\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 1000045\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat histogram\n"), std::string::npos);
}

TEST(PrometheusExport, UnderflowIsVisibleInLowestBucket) {
  // Samples below the range (a negative duration from a clock step) must
  // not vanish: they clamp into the lowest bucket (le = 0), and the
  // cumulative counts above it include them.
  MetricsRegistry registry;
  auto* h = registry.hdr_histogram("lat", "latency");
  h->record(-3.0);
  h->record(-5.0);
  h->record(15.0);
  const std::string text = render_prometheus(registry);
  EXPECT_NE(text.find("lat_bucket{le=\"0\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"15\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 3\n"), std::string::npos);
}

TEST(PrometheusExport, HdrHistogramRendersSparseCumulativeBuckets) {
  MetricsRegistry registry;
  auto* h = registry.hdr_histogram("resp_ns", "response time",
                                   {{"task", "tau1"}});
  h->record(common::u64{5});  // exact bucket: le = 5
  h->record(common::u64{5});
  h->record(common::u64{1000000});
  const std::string text = render_prometheus(registry);
  // Exposes as a standard Prometheus histogram, sparse le set, monotone
  // cumulative counts, exact _sum/_count.
  EXPECT_NE(text.find("# TYPE resp_ns histogram\n"), std::string::npos);
  EXPECT_NE(text.find("resp_ns_bucket{task=\"tau1\",le=\"5\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("resp_ns_bucket{task=\"tau1\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("resp_ns_sum{task=\"tau1\"} 1000010\n"),
            std::string::npos);
  EXPECT_NE(text.find("resp_ns_count{task=\"tau1\"} 3\n"),
            std::string::npos);
  // The cumulative count just below +Inf equals the total.
  EXPECT_NE(text.find("} 3\n"), std::string::npos);
}

TEST(PrometheusExport, LabelValuesWithSpecialsStayEscaped) {
  MetricsRegistry registry;
  registry.counter("c_total", "c", {{"task", "a\"b\\c\nd"}})->add(1);
  const std::string text = render_prometheus(registry);
  EXPECT_NE(text.find("c_total{task=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(PrometheusExport, EveryLineIsHeaderOrSample) {
  MetricsRegistry registry;
  registry.counter("c_total", "c")->add(1);
  registry.gauge("g", "g")->set(2.5);
  registry.hdr_histogram("h", "h", {{"task", "t"}})->record(1.0);
  for (const auto& line : lines_of(render_prometheus(registry))) {
    if (line.rfind("# ", 0) == 0) continue;
    // Sample lines end in " <value>" with a single space separator.
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(space, 0u) << line;
    EXPECT_LT(space + 1, line.size()) << line;
  }
}

TEST(PrometheusExport, WritesFile) {
  MetricsRegistry registry;
  registry.counter("c_total", "c")->add(3);
  const std::string path = "/tmp/rtseed_prom_test.prom";
  ASSERT_TRUE(write_prometheus(path, registry).is_ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("c_total 3"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rtseed::obs
