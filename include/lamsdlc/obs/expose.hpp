#pragma once
/// \file expose.hpp
/// \brief Prometheus text exposition of a `Registry`, plus `json_escape`,
/// the one JSON string escaper (registry JSON, Perfetto export, the
/// daemon's status documents).
///
/// The registry's native exports (`write_json`/`write_csv`) are for this
/// repo's own tooling; `write_prometheus` renders the same registry in the
/// Prometheus text exposition format (version 0.0.4) so a stock scraper can
/// pull a live `lamsdlcd` without translation:
///
///   - counters become `<prefix><name>_total` with `# TYPE ... counter`;
///   - gauges become `<prefix><name>` with `# TYPE ... gauge`;
///   - histograms become summaries: `{quantile="0.5|0.9|0.99"}` sample
///     lines (exact percentiles — the registry keeps sorted samples, not
///     sketches) plus `_sum` and `_count`.
///
/// Metric names here are dot-separated (`lams.sender.iframe_retx`);
/// Prometheus names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`, so
/// `prometheus_name` maps every illegal byte to `_`
/// (`lamsdlc_lams_sender_iframe_retx`).  The mapping is not injective in
/// general but is for every name in the catalogue (docs/OBSERVABILITY.md).

#include <ostream>
#include <string>
#include <string_view>

#include "lamsdlc/obs/metrics.hpp"

namespace lamsdlc::obs {

/// `<prefix><name>` with every byte outside [a-zA-Z0-9_:] replaced by '_'
/// (a leading digit also gets a '_' prepended).  \p prefix is emitted as-is
/// and must itself be a legal name start.
[[nodiscard]] std::string prometheus_name(std::string_view name,
                                          std::string_view prefix = "lamsdlc_");

/// Render \p reg in Prometheus text exposition format 0.0.4.  Deterministic:
/// lexicographic by metric name within each registry section.
void write_prometheus(std::ostream& os, const Registry& reg,
                      std::string_view prefix = "lamsdlc_");

/// JSON-escape \p s (no surrounding quotes): \" \\ control bytes -> \uXXXX.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace lamsdlc::obs
