#include "lamsdlc/obs/metrics.hpp"

#include <iomanip>
#include <sstream>

#include "lamsdlc/obs/expose.hpp"

namespace lamsdlc::obs {
namespace {

void json_number(std::ostream& os, double v) {
  if (std::isnan(v) || std::isinf(v)) {
    os << "null";
    return;
  }
  std::ostringstream tmp;
  tmp << std::setprecision(12) << v;
  os << tmp.str();
}

}  // namespace

void LogHistogram::fold() {
  slots_.assign(kSlots, 0);
  for (const double x : samples_.samples()) ++slots_[slot_of(x)];
  min_ = samples_.min();
  max_ = samples_.max();
  samples_ = Percentiles{};  // releases the exact store
}

double LogHistogram::folded_quantile(double q) const {
  const auto n = static_cast<double>(count_);
  const auto rank = static_cast<std::uint64_t>(std::clamp(std::ceil(q * n), 1.0, n));
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < kSlots; ++k) {
    seen += slots_[k];
    if (seen < rank) continue;
    const double lo =
        k == 0 ? 0.0
               : bucket_lo((k - 1) / kSubBuckets) *
                     (1.0 + static_cast<double>((k - 1) % kSubBuckets) / kSubBuckets);
    return std::clamp(lo, min_, max_);
  }
  return max_;
}

std::array<std::uint64_t, LogHistogram::kBuckets> LogHistogram::buckets() const {
  std::array<std::uint64_t, kBuckets> out{};
  if (!folded()) {
    for (const double x : samples_.samples()) ++out[bucket_of(x)];
    return out;
  }
  out[0] = slots_[0];
  for (std::size_t k = 1; k < kSlots; ++k) out[(k - 1) / kSubBuckets] += slots_[k];
  return out;
}

void Registry::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << '"';
    os << ':' << c.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << '"';
    os << ':';
    json_number(os, g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << '"';
    os << ":{\"count\":" << h.count() << ",\"min\":";
    json_number(os, h.min());
    os << ",\"mean\":";
    json_number(os, h.mean());
    os << ",\"p50\":";
    json_number(os, h.p50());
    os << ",\"p90\":";
    json_number(os, h.p90());
    os << ",\"p99\":";
    json_number(os, h.p99());
    os << ",\"max\":";
    json_number(os, h.max());
    os << '}';
  }
  os << "}}";
}

void Registry::write_csv(std::ostream& os) const {
  os << "type,name,value,count,min,mean,p50,p90,p99,max\n";
  for (const auto& [name, c] : counters_) {
    os << "counter," << name << ',' << c.value() << ",,,,,,,\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << "gauge," << name << ',' << g.value() << ",,,,,,,\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << "histogram," << name << ",," << h.count() << ',' << h.min() << ','
       << h.mean() << ',' << h.p50() << ',' << h.p90() << ',' << h.p99()
       << ',' << h.max() << '\n';
  }
}

std::string Registry::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

std::string Registry::csv() const {
  std::ostringstream os;
  write_csv(os);
  return os.str();
}

}  // namespace lamsdlc::obs
