// Tests for src/obs: registry semantics and thread-safety, histogram
// window/percentile parity with the repo-wide nearest-rank rule, trace
// span nesting/ordering, exporter shapes, and the ODONN_OBS_DISABLE
// no-op proof (tests/helpers/obs_disabled_helper.cpp is the one TU in
// this binary compiled with the macro layer disabled).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "helpers/obs_disabled_helper.hpp"
#include "obs/obs.hpp"
#include "tensor/stats.hpp"

namespace odonn {
namespace {

TEST(Counter, AddValueReset) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, MaxWatermarkSurvivesDrop) {
  obs::Gauge g;
  g.set(5);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max_value(), 5);
  g.add(10);
  EXPECT_EQ(g.value(), 12);
  EXPECT_EQ(g.max_value(), 12);
  g.reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max_value(), 0);
}

TEST(Histogram, EmptySnapshotIsZeroed) {
  obs::Histogram h;
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 0.0);
  EXPECT_EQ(snap.p50, 0.0);
  EXPECT_EQ(snap.p90, 0.0);
  EXPECT_EQ(snap.p99, 0.0);
}

TEST(Histogram, PercentilesMatchNearestRankRule) {
  // Fewer observations than the window: percentiles must agree exactly
  // with percentile_nearest_rank over the full sample, same as fab's
  // robustness percentiles and serve's latency percentiles.
  obs::Histogram h;
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    const double v = static_cast<double>((i * 37) % 500) * 0.5;
    h.observe(v);
    values.push_back(v);
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 500u);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 0.5 * 499.0);
  EXPECT_EQ(snap.p50, percentile_nearest_rank(values, 0.5));
  EXPECT_EQ(snap.p90, percentile_nearest_rank(values, 0.9));
  EXPECT_EQ(snap.p99, percentile_nearest_rank(values, 0.99));
}

TEST(Histogram, WindowBoundedButTotalsCoverEverything) {
  // Ring window of 8: percentiles see only the last 8 observations,
  // count/sum/min/max keep covering all of them.
  obs::Histogram h(8);
  double sum = 0.0;
  for (int i = 1; i <= 20; ++i) {
    h.observe(static_cast<double>(i));
    sum += static_cast<double>(i);
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 20u);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, 20.0);
  const std::vector<double> retained = {13, 14, 15, 16, 17, 18, 19, 20};
  EXPECT_EQ(snap.p50, percentile_nearest_rank(retained, 0.5));
  EXPECT_EQ(snap.p90, percentile_nearest_rank(retained, 0.9));
  EXPECT_EQ(snap.p99, percentile_nearest_rank(retained, 0.99));
}

void expect_same_snapshot(const obs::Histogram::Snapshot& a,
                          const obs::Histogram::Snapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.p999, b.p999);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(Histogram, MergedEqualsOneHistogramFedBothStreams) {
  // Neither window wraps, so merging is the same as observing both
  // streams in one histogram. Quarter steps keep every sum exact.
  obs::Histogram a;
  obs::Histogram b;
  obs::Histogram both;
  for (int i = 0; i < 300; ++i) {
    const double v = static_cast<double>((i * 37) % 300) * 0.25;
    a.observe(v);
    both.observe(v);
  }
  for (int i = 0; i < 200; ++i) {
    const double v = 40.0 + static_cast<double>((i * 11) % 200) * 0.5;
    b.observe(v);
    both.observe(v);
  }
  const obs::Histogram* parts[] = {&a, &b};
  expect_same_snapshot(obs::Histogram::merged(parts), both.snapshot());
}

TEST(Histogram, MergedCountsOnlyRetainedValuesAfterWrap) {
  // Window of 4 over 1..10 keeps 7..10; the second window keeps all four.
  // Totals cover every observation, percentiles only the retained ones.
  obs::Histogram wrapped(4);
  obs::Histogram whole(8);
  for (int i = 1; i <= 10; ++i) wrapped.observe(static_cast<double>(i));
  for (int i = 100; i <= 103; ++i) whole.observe(static_cast<double>(i));
  const obs::Histogram* parts[] = {&wrapped, &whole};
  const auto snap = obs::Histogram::merged(parts);
  EXPECT_EQ(snap.count, 14u);
  EXPECT_EQ(snap.sum, 55.0 + 406.0);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, 103.0);
  const std::vector<double> retained = {7, 8, 9, 10, 100, 101, 102, 103};
  EXPECT_EQ(snap.p50, percentile_nearest_rank(retained, 0.5));
  EXPECT_EQ(snap.p90, percentile_nearest_rank(retained, 0.9));
  EXPECT_EQ(snap.p99, percentile_nearest_rank(retained, 0.99));
  EXPECT_EQ(snap.p999, percentile_nearest_rank(retained, 0.999));
}

TEST(Histogram, MergedOfNothingIsZeroed) {
  const obs::Histogram empty;
  const obs::Histogram* parts[] = {&empty, &empty};
  for (const auto& snap :
       {obs::Histogram::merged({}), obs::Histogram::merged(parts)}) {
    expect_same_snapshot(snap, empty.snapshot());
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.p999, 0.0);
    EXPECT_EQ(snap.buckets,
              std::vector<std::uint64_t>(obs::Histogram::bucket_bounds().size(),
                                         0));
  }
}

TEST(MetricsRegistry, ConcurrentLookupAndAddIsExact) {
  auto& registry = obs::MetricsRegistry::global();
  auto& counter = registry.counter("test.concurrent");
  counter.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        // Lookup + add on every iteration: stresses the registry map
        // under contention, not just the atomic.
        registry.counter("test.concurrent").add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Node stability: repeated lookups return the same instrument.
  EXPECT_EQ(&registry.counter("test.concurrent"), &counter);
}

TEST(MetricsRegistry, NameBoundToOneKind) {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("test.kind");
  EXPECT_THROW(registry.gauge("test.kind"), ConfigError);
  EXPECT_THROW(registry.histogram("test.kind"), ConfigError);
  EXPECT_THROW(registry.counter("serve.queue_depth"), ConfigError);
}

TEST(MetricsRegistry, BuiltinSchemaPreRegistered) {
  const auto names = obs::MetricsRegistry::global().names();
  const auto has = [&names](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("serve.requests"));
  EXPECT_TRUE(has("serve.latency_ms"));
  EXPECT_TRUE(has("serve.queue_depth"));
  EXPECT_TRUE(has("fft.plan_cache.hits"));
  EXPECT_TRUE(has("train.epochs"));
  EXPECT_TRUE(has("fab.realizations"));
  EXPECT_TRUE(has("optics.propagations"));
  EXPECT_TRUE(has("pipeline.stages_run"));
  EXPECT_TRUE(has("parallel.tasks"));
  EXPECT_TRUE(has("parallel.queue_wait_us.depth1"));
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(MetricsRegistry, JsonExporterShape) {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("test.json.counter").reset();
  registry.counter("test.json.counter").add(3);
  registry.gauge("test.json.gauge").reset();
  registry.gauge("test.json.gauge").set(7);
  registry.gauge("test.json.gauge").set(2);
  registry.histogram("test.json.hist").reset();
  registry.histogram("test.json.hist").observe(1.5);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\": {\"value\": 2, \"max\": 7}"),
            std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistry, TextExporterIsPrometheusShaped) {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("test.text.counter").reset();
  registry.counter("test.text.counter").add(9);
  registry.histogram("test.text.hist").reset();
  registry.histogram("test.text.hist").observe(4.0);
  const std::string text = registry.to_text();
  EXPECT_NE(text.find("# TYPE odonn_test_text_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("odonn_test_text_counter 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE odonn_test_text_hist summary"),
            std::string::npos);
  EXPECT_NE(text.find("odonn_test_text_hist{quantile=\"0.5\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("odonn_test_text_hist_count 1"), std::string::npos);
  EXPECT_NE(text.find("odonn_test_text_hist_sum 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE odonn_serve_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("odonn_serve_queue_depth_max "), std::string::npos);
}

TEST(MetricsRegistry, NativeHistogramBucketsGoldenShape) {
  auto& registry = obs::MetricsRegistry::global();
  auto& hist = registry.histogram("test.buckets.hist");
  hist.reset();
  hist.observe(0.003);
  hist.observe(0.003);
  hist.observe(40.0);
  hist.observe(99999.0);  // above the last bound: +Inf only

  const auto snap = hist.snapshot();
  ASSERT_EQ(snap.buckets.size(), obs::Histogram::bucket_bounds().size());

  const std::string text = registry.to_text();
  const std::string prom = "odonn_test_buckets_hist_hist";
  EXPECT_NE(text.find("# TYPE " + prom + " histogram"), std::string::npos);
  // Cumulative le= semantics: nothing at or below 0.0025, both 0.003
  // observations by 0.005, all finite-bucketed ones by 50.
  EXPECT_NE(text.find(prom + "_bucket{le=\"0.0025\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find(prom + "_bucket{le=\"0.005\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find(prom + "_bucket{le=\"25\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find(prom + "_bucket{le=\"50\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find(prom + "_bucket{le=\"10000\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find(prom + "_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find(prom + "_sum "), std::string::npos);
  EXPECT_NE(text.find(prom + "_count 4\n"), std::string::npos);
  // The quantile summary family is still exported alongside.
  EXPECT_NE(text.find("# TYPE odonn_test_buckets_hist summary"),
            std::string::npos);
  hist.reset();
  const auto zeroed = hist.snapshot();
  ASSERT_EQ(zeroed.buckets.size(), obs::Histogram::bucket_bounds().size());
  EXPECT_TRUE(std::all_of(zeroed.buckets.begin(), zeroed.buckets.end(),
                          [](std::uint64_t c) { return c == 0; }));
}

TEST(MetricsRegistry, ResetZeroesInPlace) {
  auto& registry = obs::MetricsRegistry::global();
  auto& counter = registry.counter("test.reset.counter");
  counter.add(5);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  // The node survived: the cached reference is still the live instrument.
  counter.add(2);
  EXPECT_EQ(registry.counter("test.reset.counter").value(), 2u);
}

TEST(Trace, SpansInertWhileDisabled) {
  obs::set_tracing(false);
  obs::clear_trace();
  {
    obs::TraceSpan span("never.recorded");
  }
  EXPECT_TRUE(obs::trace_events().empty());
}

TEST(Trace, NestedSpansRecordDepthAndContainment) {
  obs::set_tracing(true);
  obs::clear_trace();
  {
    obs::TraceSpan outer("outer");
    {
      obs::TraceSpan inner("inner");
    }
  }
  obs::set_tracing(false);
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Completion order: inner finishes first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[0].tid, events[1].tid);
  // [start, start+dur] containment per thread is what Chrome-trace uses
  // to rebuild the nesting.
  EXPECT_GE(events[0].start_us, events[1].start_us);
  EXPECT_LE(events[0].start_us + events[0].duration_us,
            events[1].start_us + events[1].duration_us);
  const std::string chrome = obs::trace_to_chrome_json();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
  const std::string spans = obs::spans_json();
  EXPECT_NE(spans.find("\"duration_us\""), std::string::npos);
  obs::clear_trace();
}

TEST(Trace, ThreadTagsAreDenseAndStable) {
  const std::uint32_t main_tag = obs::thread_tag();
  EXPECT_EQ(obs::thread_tag(), main_tag);
  std::uint32_t other_tag = main_tag;
  std::thread worker([&other_tag] { other_tag = obs::thread_tag(); });
  worker.join();
  EXPECT_NE(other_tag, main_tag);
}

TEST(TraceFlush, StreamsCompletedSpansAsJsonLines) {
  const std::string path = ::testing::TempDir() + "/trace_flush.jsonl";
  obs::set_tracing(true);
  obs::clear_trace();
  obs::set_trace_flush_file(path);
  {
    obs::TraceSpan outer("flush.outer");
    obs::TraceSpan inner("flush.inner");
  }
  obs::set_tracing(false);
  obs::close_trace_flush_file();
  obs::close_trace_flush_file();  // idempotent
  EXPECT_EQ(obs::trace_flushed(), 2u);

  // One JSON line per completed span, completion order (inner first),
  // carrying the same fields as spans_json() elements.
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"name\": \"flush.inner\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"name\": \"flush.outer\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"depth\": 2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"duration_us\""), std::string::npos);
  obs::clear_trace();
}

TEST(TraceFlush, OverflowCountsFlushedNotDroppedWithSinkAttached) {
  obs::set_tracing(true);
  obs::clear_trace();
  // Fill the bounded buffer (64k events) with no sink: the next span is
  // genuinely lost and counts as dropped.
  for (std::size_t i = 0; i < (std::size_t{1} << 16); ++i) {
    obs::TraceSpan span("fill");
  }
  EXPECT_EQ(obs::trace_dropped(), 0u);
  {
    obs::TraceSpan span("lost");
  }
  EXPECT_EQ(obs::trace_dropped(), 1u);

  // With a sink attached the overflow spans are durable on disk: flushed
  // advances, dropped does not.
  const std::string path = ::testing::TempDir() + "/trace_overflow.jsonl";
  obs::set_trace_flush_file(path);
  {
    obs::TraceSpan span("kept.a");
  }
  {
    obs::TraceSpan span("kept.b");
  }
  obs::set_tracing(false);
  obs::close_trace_flush_file();
  EXPECT_EQ(obs::trace_dropped(), 1u);
  EXPECT_EQ(obs::trace_flushed(), 2u);
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("kept.a"), std::string::npos);
  EXPECT_NE(all.find("kept.b"), std::string::npos);
  obs::clear_trace();
}

TEST(TraceFlush, BadPathThrowsAndReattachResetsCounter) {
  EXPECT_THROW(
      obs::set_trace_flush_file(::testing::TempDir() +
                                "/no_such_dir_for_trace/spans.jsonl"),
      IoError);

  const std::string first = ::testing::TempDir() + "/trace_first.jsonl";
  const std::string second = ::testing::TempDir() + "/trace_second.jsonl";
  obs::set_tracing(true);
  obs::clear_trace();
  obs::set_trace_flush_file(first);
  {
    obs::TraceSpan span("into.first");
  }
  EXPECT_EQ(obs::trace_flushed(), 1u);
  obs::set_trace_flush_file(second);  // replaces the sink, resets the count
  EXPECT_EQ(obs::trace_flushed(), 0u);
  {
    obs::TraceSpan span("into.second");
  }
  obs::set_tracing(false);
  obs::close_trace_flush_file();
  EXPECT_EQ(obs::trace_flushed(), 1u);
  std::ifstream in(second);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("into.second"), std::string::npos);
  EXPECT_EQ(all.find("into.first"), std::string::npos);
  obs::clear_trace();
}

TEST(ObsDisabled, MacrosEvaluateNothingAndRegisterNothing) {
  EXPECT_EQ(obs_disabled::run_disabled_instrumentation(), 0);
  for (const auto& name : obs::MetricsRegistry::global().names()) {
    EXPECT_NE(name.rfind("disabled.", 0), 0u) << name;
  }
}

TEST(ExportJson, CombinedShape) {
  const std::string combined = obs::export_json();
  EXPECT_NE(combined.find("\"build\""), std::string::npos);
  EXPECT_NE(combined.find("\"metrics\""), std::string::npos);
  EXPECT_NE(combined.find("\"spans\""), std::string::npos);
  EXPECT_NE(combined.find("\"trace_dropped\""), std::string::npos);
  EXPECT_NE(combined.find("\"trace_flushed\""), std::string::npos);
}

TEST(Histogram, P999MatchesNearestRankRule) {
  // p999 uses the same repo-wide nearest-rank rule as p50/p90/p99 and
  // flows into both exporters.
  obs::Histogram h;
  std::vector<double> values;
  for (int i = 0; i < 700; ++i) {
    const double v = static_cast<double>((i * 53) % 700) * 0.25;
    h.observe(v);
    values.push_back(v);
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.p999, percentile_nearest_rank(values, 0.999));
  EXPECT_GE(snap.p999, snap.p99);
}

TEST(MetricsRegistry, TextExporterEmitsHelpAndP999Quantile) {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("test.help.counter").reset();
  registry.counter("test.help.counter").add(1);
  auto& hist = registry.histogram("test.help.hist");
  hist.reset();
  for (int i = 1; i <= 9; ++i) hist.observe(static_cast<double>(i));
  const std::string text = registry.to_text();
  // Every family gets a HELP line naming the dotted source metric,
  // immediately followed by its TYPE line.
  EXPECT_NE(
      text.find("# HELP odonn_test_help_counter odonn metric "
                "'test.help.counter'\n# TYPE odonn_test_help_counter counter"),
      std::string::npos);
  EXPECT_NE(text.find("# HELP odonn_test_help_hist odonn metric "
                      "'test.help.hist'\n# TYPE odonn_test_help_hist summary"),
            std::string::npos);
  // Histograms carry the p999 quantile alongside 0.5/0.9/0.99.
  EXPECT_NE(text.find("odonn_test_help_hist{quantile=\"0.99\"} 9"),
            std::string::npos);
  EXPECT_NE(text.find("odonn_test_help_hist{quantile=\"0.999\"} 9"),
            std::string::npos);
  // The serve attribution schema is pre-registered and renders sanitized.
  EXPECT_NE(text.find("# TYPE odonn_serve_attr_queue_wait_ms summary"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE odonn_serve_attr_batch_wait_ms summary"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE odonn_serve_attr_compute_ms summary"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE odonn_obs_http_requests counter"),
            std::string::npos);
}

TEST(MetricsRegistry, JsonExporterCarriesP999) {
  auto& registry = obs::MetricsRegistry::global();
  auto& hist = registry.histogram("test.p999.hist");
  hist.reset();
  for (int i = 1; i <= 4; ++i) hist.observe(static_cast<double>(i));
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"p999\": 4"), std::string::npos);
}

TEST(BuildInfo, ReportsProvenanceAndUptime) {
  const std::string info = obs::build_info_json();
  EXPECT_NE(info.find("\"git_sha\": \""), std::string::npos);
  EXPECT_NE(info.find("\"compiler\": \""), std::string::npos);
  // This TU builds WITHOUT ODONN_OBS_DISABLE (the disabled helper proves
  // the other mode), and the flags reflect live runtime state.
  EXPECT_NE(info.find("\"obs_disabled\": false"), std::string::npos);
  EXPECT_NE(info.find("\"obs_detail\": "), std::string::npos);
  EXPECT_NE(info.find("\"tracing\": "), std::string::npos);
  EXPECT_NE(info.find("\"uptime_s\": "), std::string::npos);
  EXPECT_GT(obs::process_uptime_seconds(), 0.0);
  // Uptime is monotone.
  const double first = obs::process_uptime_seconds();
  EXPECT_GE(obs::process_uptime_seconds(), first);
}

TEST(Trace, RecordSpanCarriesRequestIdThroughExports) {
  obs::set_tracing(true);
  obs::clear_trace();
  obs::record_span("attr.request", 100, 50, 1, 77);
  obs::record_span("attr.anonymous", 200, 10, 2);  // request_id 0
  obs::set_tracing(false);

  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].request_id, 77u);
  EXPECT_EQ(events[0].start_us, 100);
  EXPECT_EQ(events[0].duration_us, 50);
  EXPECT_EQ(events[1].request_id, 0u);

  // request_id is emitted only when nonzero, in both span exports.
  const std::string spans = obs::spans_json();
  EXPECT_NE(spans.find("\"name\": \"attr.request\", \"tid\": "),
            std::string::npos);
  EXPECT_NE(spans.find("\"request_id\": 77"), std::string::npos);
  const std::size_t anon = spans.find("attr.anonymous");
  ASSERT_NE(anon, std::string::npos);
  EXPECT_EQ(spans.find("\"request_id\"", anon), std::string::npos);
  const std::string chrome = obs::trace_to_chrome_json();
  EXPECT_NE(chrome.find("\"request_id\": 77"), std::string::npos);
  obs::clear_trace();
}

TEST(Trace, RecordSpanInertWhileDisabled) {
  obs::set_tracing(false);
  obs::clear_trace();
  obs::record_span("never.recorded", 0, 1, 1, 5);
  EXPECT_TRUE(obs::trace_events().empty());
}

}  // namespace
}  // namespace odonn
