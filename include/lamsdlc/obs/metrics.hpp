#pragma once
/// \file metrics.hpp
/// \brief Named metric registry: counters, gauges, log-bucketed histograms.
///
/// A `Registry` is the shared aggregation surface for one run: protocol
/// instrumentation feeds it through the event collector (`collector.hpp`),
/// harness-level quantities (goodput, efficiency) are set directly, and the
/// JSON / CSV exporters give bench tables, the chaos harness and external
/// tooling one machine-readable summary instead of per-harness private
/// accumulators.
///
/// Metric name convention: dot-separated `component.quantity[_unit]`, e.g.
/// `lams.sender.iframe_retx`, `lams.sender.holding_time_ms`.  The full
/// catalogue lives in docs/OBSERVABILITY.md.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "lamsdlc/core/stats.hpp"

namespace lamsdlc::obs {

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t d = 1) noexcept { v_ += d; }
  [[nodiscard]] std::uint64_t value() const noexcept { return v_; }

 private:
  std::uint64_t v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { v_ = v; }
  [[nodiscard]] double value() const noexcept { return v_; }

 private:
  double v_{0.0};
};

/// Distribution summary: count, sum, min and max, plus the p50/p90/p99 the
/// exporters report.  Quantiles come from one of two stores, chosen by the
/// sample count alone:
///
///  - Up to kExactCap samples, every sample is kept (`Percentiles`) and the
///    quantiles are exact nearest-rank.  Every test and bench-table run
///    stays in this regime, so their metrics stay exact.
///  - Past the cap the samples fold into kSubBuckets linear sub-buckets per
///    power-of-two bucket and the exact store is freed.  A quantile is then
///    the lower edge of the sub-bucket holding the nearest-rank sample,
///    clamped to [min, max]: never above the exact value and below it by a
///    relative error under 2^-7 (for samples in [2^-kBucketBias, 2^64)).
///    Zero and the integers below 256, such as buffer depths, stay exact;
///    other non-positive or non-finite samples read as 0.  Memory is one
///    fixed table of kSlots counts (~96 KiB), and a read walks it instead
///    of sorting.
///
/// count, sum, mean, min and max are exact in both regimes.  Power-of-two
/// bucket i spans [2^(i-kBucketBias), 2^(i+1-kBucketBias)); bucket 0 also
/// takes everything below it, the top bucket everything above.
class LogHistogram {
 public:
  static constexpr int kBucketBias = 32;
  static constexpr std::size_t kBuckets = 96;  ///< Covers ~2^-32 .. 2^64.
  /// Samples kept exactly before the fold.
  static constexpr std::size_t kExactCap = std::size_t{1} << 14;
  /// Linear sub-buckets per power-of-two bucket once folded.
  static constexpr std::size_t kSubBuckets = 128;
  /// Folded table: one slot for samples below bucket 0's span (zero among
  /// them), then kSubBuckets per bucket.
  static constexpr std::size_t kSlots = 1 + kBuckets * kSubBuckets;

  void observe(double x) {
    ++count_;
    sum_ += x;
    if (slots_.empty()) {
      if (samples_.count() < kExactCap) {
        samples_.add(x);
        return;
      }
      fold();
    }
    ++slots_[slot_of(x)];
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const { return folded() ? min_ : samples_.min(); }
  [[nodiscard]] double max() const { return folded() ? max_ : samples_.max(); }
  /// Nearest-rank quantile, q in [0, 1]; 0.0 when empty.
  [[nodiscard]] double quantile(double q) const {
    return folded() ? folded_quantile(q) : samples_.quantile(q);
  }
  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p90() const { return quantile(0.90); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  /// Sample count per power-of-two bucket, tallied on each call.
  [[nodiscard]] std::array<std::uint64_t, kBuckets> buckets() const;
  /// True once past kExactCap: the exact store is gone.
  [[nodiscard]] bool folded() const noexcept { return !slots_.empty(); }

  /// Lower edge of bucket \p i (2^(i-kBucketBias)).
  [[nodiscard]] static double bucket_lo(std::size_t i) noexcept {
    return std::ldexp(1.0, static_cast<int>(i) - kBucketBias);
  }
  [[nodiscard]] static std::size_t bucket_of(double x) noexcept {
    const std::size_t k = slot_of(x);
    return k == 0 ? 0 : (k - 1) / kSubBuckets;
  }

 private:
  /// Folded-table slot of \p x.  A positive double's exponent and top seven
  /// mantissa bits, read as one integer, are exactly (bucket, sub-bucket).
  [[nodiscard]] static std::size_t slot_of(double x) noexcept {
    static_assert(kSubBuckets == 128, "seven mantissa bits per sub-bucket");
    if (!(x > 0.0) || !std::isfinite(x)) return 0;
    constexpr std::int64_t kFirst = std::int64_t{1023 - kBucketBias} << 7;
    const auto key =
        static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(x) >> 45) - kFirst;
    if (key < 0) return 0;
    return static_cast<std::size_t>(
               std::min<std::int64_t>(key, std::int64_t{kSlots} - 2)) + 1;
  }
  void fold();
  [[nodiscard]] double folded_quantile(double q) const;

  Percentiles samples_;               ///< Exact store; freed at the fold.
  std::vector<std::uint64_t> slots_;  ///< Folded counts; empty until the fold.
  std::uint64_t count_{0};
  double sum_{0.0};
  double min_{0.0};  ///< Kept from the fold on (the exact store knows its own).
  double max_{0.0};
};

/// Named metrics for one run.  Lookup creates on first use; references stay
/// valid for the registry's lifetime (std::map nodes are stable).  Export
/// order is deterministic (lexicographic by name).
class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  LogHistogram& histogram(const std::string& name) { return histograms_[name]; }

  /// Read a counter without creating it (0 when absent).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }

  /// Read-only lookup; nullptr when absent.
  [[nodiscard]] const LogHistogram* find_histogram(const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, LogHistogram>& histograms() const noexcept {
    return histograms_;
  }

  /// One JSON object: {"counters":{..},"gauges":{..},"histograms":{name:
  /// {"count":..,"min":..,"max":..,"mean":..,"p50":..,"p90":..,"p99":..}}}.
  void write_json(std::ostream& os) const;

  /// One row per metric: type,name,value,count,min,mean,p50,p90,p99,max
  /// (header included; empty fields for types without the column).
  void write_csv(std::ostream& os) const;

  [[nodiscard]] std::string json() const;
  [[nodiscard]] std::string csv() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LogHistogram> histograms_;
};

}  // namespace lamsdlc::obs
