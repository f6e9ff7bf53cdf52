#include "lamsdlc/obs/metrics.hpp"

#include <gtest/gtest.h>
#include <malloc.h>

#include <cmath>
#include <cstddef>
#include <random>
#include <string>

namespace lamsdlc::obs {
namespace {

TEST(Counter, MonotoneAdd) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(LogHistogram, BucketOfPowerOfTwoEdges) {
  // Bucket i covers [2^(i-bias), 2^(i+1-bias)).
  EXPECT_EQ(LogHistogram::bucket_of(1.0), std::size_t{LogHistogram::kBucketBias});
  EXPECT_EQ(LogHistogram::bucket_of(2.0), std::size_t{LogHistogram::kBucketBias + 1});
  EXPECT_EQ(LogHistogram::bucket_of(3.9), std::size_t{LogHistogram::kBucketBias + 1});
  EXPECT_EQ(LogHistogram::bucket_of(0.5), std::size_t{LogHistogram::kBucketBias - 1});
  // Degenerate inputs land in bucket 0 instead of misbehaving.
  EXPECT_EQ(LogHistogram::bucket_of(0.0), 0u);
  EXPECT_EQ(LogHistogram::bucket_of(-4.0), 0u);
  // Huge values clamp to the top bucket.
  EXPECT_EQ(LogHistogram::bucket_of(1e300), LogHistogram::kBuckets - 1);
}

TEST(LogHistogram, SummaryStatistics) {
  LogHistogram h;
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.p50(), 50.0);
  EXPECT_DOUBLE_EQ(h.p99(), 99.0);
  std::uint64_t total = 0;
  for (const auto b : h.buckets()) total += b;
  EXPECT_EQ(total, 100u);
}

/// Heap bytes in use, mmapped blocks included (glibc).
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// Up to the cap the histogram is the exact store itself; the next sample
// folds it.
TEST(LogHistogram, ExactUpToTheCapThenFolds) {
  LogHistogram h;
  Percentiles oracle;
  std::mt19937_64 rng{17};
  std::exponential_distribution<double> dist{0.25};
  for (std::size_t i = 0; i < LogHistogram::kExactCap; ++i) {
    const double x = dist(rng);
    h.observe(x);
    oracle.add(x);
  }
  ASSERT_FALSE(h.folded());
  for (const double q : {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.quantile(q), oracle.quantile(q)) << "q=" << q;
  }
  h.observe(1.0);
  EXPECT_TRUE(h.folded());
  EXPECT_EQ(h.count(), LogHistogram::kExactCap + 1);
}

/// Uniform in [0, 1), a pure function of the generator's next output.
double unit(std::mt19937_64& rng) { return static_cast<double>(rng() >> 11) * 0x1p-53; }

/// Feed 2^22 samples of \p draw to a histogram and to a `Percentiles`
/// oracle; check the histogram's retained memory stays at its fixed table,
/// its exact statistics match the oracle's and every quantile lies within
/// (1 - 2^-7, 1] of the oracle's (equal when \p exact, and at zero).
void check_folded_against_oracle(double (*draw)(std::mt19937_64&), bool exact) {
  constexpr std::size_t kSamples = std::size_t{1} << 22;
  constexpr std::uint64_t kSeed = 90001;

  // The histogram alone first, so the heap delta is its own.
  LogHistogram h;
  const std::size_t heap0 = heap_in_use();
  std::mt19937_64 rng{kSeed};
  for (std::size_t i = 0; i < kSamples; ++i) h.observe(draw(rng));
  const std::size_t retained = heap_in_use() - heap0;
  ASSERT_TRUE(h.folded());
  // The fixed table alone: the exact store (128 KiB at the cap, 32 MiB had
  // it kept every sample) was released.
  EXPECT_LT(retained, LogHistogram::kSlots * sizeof(std::uint64_t) + (std::size_t{16} << 10))
      << "retained " << retained << " bytes";

  Percentiles oracle;
  double sum = 0.0;
  rng.seed(kSeed);
  for (std::size_t i = 0; i < kSamples; ++i) {
    const double x = draw(rng);
    oracle.add(x);
    sum += x;
  }
  EXPECT_EQ(h.count(), kSamples);
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.mean(), sum / static_cast<double>(kSamples));
  EXPECT_EQ(h.min(), oracle.min());
  EXPECT_EQ(h.max(), oracle.max());
  for (const double q : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const double want = oracle.quantile(q);
    const double got = h.quantile(q);
    if (exact || want == 0.0) {
      EXPECT_EQ(got, want) << "q=" << q;
    } else {
      EXPECT_LE(got, want) << "q=" << q;
      EXPECT_LT(want - got, want * 0x1p-7) << "q=" << q;
    }
  }
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_LE(h.p99(), h.max());
}

TEST(LogHistogram, FoldedContinuousQuantilesWithinRelativeBound) {
  // Log-uniform over 2^-24 .. 2^24, plus exact zeros.
  check_folded_against_oracle(
      [](std::mt19937_64& rng) {
        return rng() % 64 == 0 ? 0.0 : std::exp2(48.0 * unit(rng) - 24.0);
      },
      /*exact=*/false);
}

TEST(LogHistogram, FoldedSmallIntegersStayExact) {
  // Buffer-depth-like values: 0 .. 255, skewed toward small depths.
  check_folded_against_oracle(
      [](std::mt19937_64& rng) {
        const double u = unit(rng);
        return std::floor(256.0 * u * u);
      },
      /*exact=*/true);
}

TEST(Registry, LookupCreatesAndReferencesAreStable) {
  Registry r;
  Counter& c = r.counter("a.b");
  c.add(2);
  r.counter("z.z").add(1);  // map growth must not invalidate `c`
  c.add(3);
  EXPECT_EQ(r.counter_value("a.b"), 5u);
  EXPECT_EQ(r.counter_value("absent"), 0u);
  EXPECT_EQ(r.find_histogram("absent"), nullptr);
  EXPECT_EQ(r.find_gauge("absent"), nullptr);
  r.gauge("g").set(7.0);
  ASSERT_NE(r.find_gauge("g"), nullptr);
  EXPECT_DOUBLE_EQ(r.find_gauge("g")->value(), 7.0);
}

TEST(Registry, JsonExportContainsEverything) {
  Registry r;
  r.counter("lams.sender.iframe_tx").add(12);
  r.gauge("scenario.efficiency").set(0.75);
  r.histogram("lams.sender.holding_time_ms").observe(2.0);
  const std::string js = r.json();
  EXPECT_EQ(js.front(), '{');
  EXPECT_NE(js.find("\"counters\""), std::string::npos);
  EXPECT_NE(js.find("\"lams.sender.iframe_tx\":12"), std::string::npos);
  EXPECT_NE(js.find("\"scenario.efficiency\""), std::string::npos);
  EXPECT_NE(js.find("\"lams.sender.holding_time_ms\""), std::string::npos);
  EXPECT_NE(js.find("\"p99\""), std::string::npos);
}

TEST(Registry, CsvExportOneRowPerMetric) {
  Registry r;
  r.counter("c.one").add(1);
  r.gauge("g.one").set(2.5);
  r.histogram("h.one").observe(4.0);
  const std::string csv = r.csv();
  EXPECT_NE(csv.find("type,name,value,count,min,mean,p50,p90,p99,max"),
            std::string::npos);
  EXPECT_NE(csv.find("counter,c.one,1"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g.one,2.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h.one,"), std::string::npos);
  // Header plus exactly three metric rows.
  std::size_t lines = 0;
  for (const char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, 4u);
}

TEST(Registry, ExportOrderIsDeterministic) {
  Registry a, b;
  a.counter("x").add(1);
  a.counter("a").add(2);
  b.counter("a").add(2);
  b.counter("x").add(1);
  EXPECT_EQ(a.json(), b.json());
  EXPECT_LT(a.json().find("\"a\""), a.json().find("\"x\""));
}

}  // namespace
}  // namespace lamsdlc::obs
