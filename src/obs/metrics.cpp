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
