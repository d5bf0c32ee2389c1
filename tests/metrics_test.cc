// LogHistogram edge cases (bucket boundaries, saturation, empty-histogram
// percentiles, traced MP runs) and the virtual-time metrics sampler's
// CSV/JSON series format.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/kern/metrics.h"
#include "src/kern/stats.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

// ---------------------------------------------------------------------------
// LogHistogram edges.
// ---------------------------------------------------------------------------

TEST(LogHistogram, EmptyHistogramReportsZeros) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.Percentile(0.50), 0u);
  EXPECT_EQ(h.Percentile(0.95), 0u);
  EXPECT_EQ(h.Percentile(1.0), 0u);
  EXPECT_EQ(h.Avg(), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST(LogHistogram, PercentileResolvesToBucketUpperAtBoundaries) {
  // {1, 2, 3, 4}: buckets 1, 2, 2, 3. The p50 rank (2) lands in bucket 2,
  // whose inclusive upper bound is 3; p100 clamps to the exact max.
  LogHistogram h;
  for (Time v : {1, 2, 3, 4}) {
    h.Add(v);
  }
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.Percentile(0.50), 3u);
  EXPECT_EQ(h.Percentile(1.0), h.Max());
  EXPECT_EQ(h.Max(), 4u);

  // Exact power-of-two boundaries: 1023 is the last value of bucket 10,
  // 1024 the first of bucket 11.
  EXPECT_EQ(LogHistogram::BucketOf(1023), 10);
  EXPECT_EQ(LogHistogram::BucketOf(1024), 11);
  EXPECT_EQ(LogHistogram::BucketUpper(10), 1023u);
  LogHistogram b;
  b.Add(1023);
  b.Add(1024);
  EXPECT_EQ(b.Percentile(0.50), 1023u);  // rank 1 -> bucket 10's upper, exactly
  EXPECT_EQ(b.Percentile(0.95), 1024u);  // bucket 11's upper (2047) clamps to max
}

TEST(LogHistogram, SingleObservationIsItsOwnTail) {
  LogHistogram h;
  h.Add(37);
  EXPECT_EQ(h.Percentile(0.50), 37u);  // bucket upper (63) clamps to max
  EXPECT_EQ(h.Percentile(0.99), 37u);
  EXPECT_EQ(h.Avg(), 37u);
}

TEST(LogHistogram, MaxBucketSaturatesWithoutOverflow) {
  LogHistogram h;
  const Time huge = ~static_cast<Time>(0) / 2;  // bit_width 63 -> bucket 31
  h.Add(huge);
  h.Add(static_cast<Time>(1) << 40);  // bit_width 41 -> also bucket 31
  EXPECT_EQ(h.buckets[LogHistogram::kBuckets - 1], 2u);
  EXPECT_EQ(h.Max(), huge);
  // The saturated bucket's "upper" is unbounded; percentiles clamp to max.
  EXPECT_EQ(h.Percentile(0.50), huge);
  EXPECT_EQ(h.Percentile(1.0), huge);
  EXPECT_EQ(LogHistogram::BucketUpper(LogHistogram::kBuckets - 1), ~static_cast<Time>(0));
}

// Traced MP runs observe block durations straight into the kernel's
// histogram from every CPU's lane; the totals must repeat exactly.
TEST(LogHistogram, MpShardFoldMatchesAcrossBackends) {
  LogHistogram counts[2];
  for (int i = 0; i < 2; ++i) {
    KernelConfig cfg;
    cfg.num_cpus = 4;
    SimpleWorld w(cfg);
    w.kernel.trace.SetCapacity(size_t{1} << 16);
    w.kernel.trace.Enable();
    Assembler a("sleeper");
    EmitSys(a, kSysClockSleep, 30);
    EmitSys(a, kSysClockSleep, 70);
    a.MovImm(kRegB, 0);
    a.Halt();
    auto prog = a.Build();
    w.Spawn(prog);
    w.Spawn(prog);
    w.RunAll();
    counts[i] = w.kernel.stats.block_hist;
    EXPECT_FALSE(counts[i].empty());  // sleeps blocked and were observed
  }
  EXPECT_EQ(counts[0].count, counts[1].count);
  EXPECT_EQ(counts[0].sum, counts[1].sum);
  EXPECT_EQ(counts[0].max, counts[1].max);
}

// ---------------------------------------------------------------------------
// MetricsSampler format.
// ---------------------------------------------------------------------------

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

size_t CountFields(const std::string& line) {
  size_t n = 1;
  for (char c : line) {
    if (c == ',') {
      ++n;
    }
  }
  return n;
}

ProgramRef TinyProgram() {
  Assembler a("tiny");
  EmitSys(a, kSysNull);
  EmitSys(a, kSysClockSleep, 10);
  a.MovImm(kRegB, 0);
  a.Halt();
  return a.Build();
}

TEST(MetricsSampler, CsvRowsAreCumulativeAndMatchHeader) {
  const std::string path = testing::TempDir() + "metrics_test.csv";
  SimpleWorld w;
  MetricsSampler m;
  ASSERT_TRUE(m.Open(path, 1000));
  w.Spawn(TinyProgram());
  m.Sample(w.kernel);  // t=0 row
  w.RunAll();
  m.Sample(w.kernel);  // final row
  EXPECT_EQ(m.samples(), 2u);
  ASSERT_TRUE(m.Close());

  std::ifstream in(path);
  std::string header, row0, row1;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row0));
  ASSERT_TRUE(std::getline(in, row1));
  EXPECT_EQ(header.substr(0, 8), "time_ns,");
  EXPECT_NE(header.find("syscalls"), std::string::npos);
  EXPECT_NE(header.find("block_p95_ns"), std::string::npos);
  EXPECT_EQ(CountFields(row0), CountFields(header));
  EXPECT_EQ(CountFields(row1), CountFields(header));
  // Cumulative, not deltas: the final row's syscall count dominates.
  const uint64_t t0 = std::stoull(row0);
  const uint64_t t1 = std::stoull(row1);
  EXPECT_LT(t0, t1);  // time advanced between rows
}

TEST(MetricsSampler, JsonSeriesIsWellFormed) {
  const std::string path = testing::TempDir() + "metrics_test.json";
  SimpleWorld w;
  MetricsSampler m;
  ASSERT_TRUE(m.Open(path, 500));
  w.Spawn(TinyProgram());
  m.Sample(w.kernel);
  w.RunAll();
  m.Sample(w.kernel);
  ASSERT_TRUE(m.Close());

  const std::string body = ReadAll(path);
  EXPECT_EQ(body.rfind("{\"schema\":1,\"interval_ns\":500,\"columns\":[", 0), 0u) << body;
  EXPECT_NE(body.find("\"time_ns\""), std::string::npos);
  EXPECT_NE(body.find("\"samples\":["), std::string::npos);
  ASSERT_GE(body.size(), 3u);
  EXPECT_EQ(body.substr(body.size() - 3), "]}\n");
}

TEST(MetricsSampler, NextDueSlicesOnIntervalBoundaries) {
  MetricsSampler m;
  const std::string path = testing::TempDir() + "metrics_due.csv";
  ASSERT_TRUE(m.Open(path, 1000));
  EXPECT_EQ(m.next_due(0), 1000u);
  EXPECT_EQ(m.next_due(1), 1000u);
  EXPECT_EQ(m.next_due(999), 1000u);
  EXPECT_EQ(m.next_due(1000), 2000u);  // a boundary schedules the *next* one
  EXPECT_EQ(m.next_due(1500), 2000u);
  ASSERT_TRUE(m.Close());
}

TEST(MetricsSampler, RejectsZeroIntervalAndIgnoresUnopenedSampling) {
  MetricsSampler m;
  EXPECT_FALSE(m.Open(testing::TempDir() + "metrics_zero.csv", 0));
  EXPECT_FALSE(m.open());
  SimpleWorld w;
  m.Sample(w.kernel);  // no-op, must not crash
  EXPECT_EQ(m.samples(), 0u);
}

// Zero-observation contract for the sampler-adjacent counters: an untraced
// run leaves the trace-derived histogram columns at zero.
TEST(MetricsSampler, UntracedRunKeepsHistogramColumnsAtZero) {
  const std::string path = testing::TempDir() + "metrics_zero_hist.csv";
  SimpleWorld w;
  MetricsSampler m;
  ASSERT_TRUE(m.Open(path, 1000));
  w.Spawn(TinyProgram());
  w.RunAll();
  m.Sample(w.kernel);
  ASSERT_TRUE(m.Close());

  std::ifstream in(path);
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  // The last three columns are block_count, block_p50_ns, block_p95_ns.
  ASSERT_GE(row.size(), 6u);
  EXPECT_EQ(row.substr(row.size() - 6), ",0,0,0");
}

}  // namespace
}  // namespace fluke
