#include "lamsdlc/obs/expose.hpp"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

namespace lamsdlc::obs {
namespace {

bool legal_body_byte(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

/// Prometheus sample values: decimal float, `NaN`/`+Inf`/`-Inf` spelled out.
void prom_number(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
    return;
  }
  if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
    return;
  }
  std::ostringstream tmp;
  tmp << std::setprecision(12) << v;
  os << tmp.str();
}

}  // namespace

std::string prometheus_name(std::string_view name, std::string_view prefix) {
  std::string out;
  out.reserve(prefix.size() + name.size() + 1);
  out.append(prefix);
  if (prefix.empty() && !name.empty() && name.front() >= '0' &&
      name.front() <= '9') {
    out.push_back('_');
  }
  for (const char c : name) {
    out.push_back(legal_body_byte(c) ? c : '_');
  }
  return out;
}

void write_prometheus(std::ostream& os, const Registry& reg,
                      std::string_view prefix) {
  for (const auto& [name, c] : reg.counters()) {
    const std::string pn = prometheus_name(name, prefix) + "_total";
    os << "# TYPE " << pn << " counter\n";
    os << pn << ' ' << c.value() << '\n';
  }
  for (const auto& [name, g] : reg.gauges()) {
    const std::string pn = prometheus_name(name, prefix);
    os << "# TYPE " << pn << " gauge\n";
    os << pn << ' ';
    prom_number(os, g.value());
    os << '\n';
  }
  for (const auto& [name, h] : reg.histograms()) {
    const std::string pn = prometheus_name(name, prefix);
    os << "# TYPE " << pn << " summary\n";
    if (h.count() > 0) {
      os << pn << "{quantile=\"0.5\"} ";
      prom_number(os, h.p50());
      os << '\n' << pn << "{quantile=\"0.9\"} ";
      prom_number(os, h.p90());
      os << '\n' << pn << "{quantile=\"0.99\"} ";
      prom_number(os, h.p99());
      os << '\n';
    }
    os << pn << "_sum ";
    prom_number(os, h.count() > 0 ? h.mean() * static_cast<double>(h.count())
                                  : 0.0);
    os << '\n' << pn << "_count " << h.count() << '\n';
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace lamsdlc::obs
