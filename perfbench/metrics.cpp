#include <cmath>
#include <cstdio>
#include <vector>

#include "lamsdlc/frame/codec.hpp"
#include "lamsdlc/frame/frame.hpp"
#include "lamsdlc/phy/crc.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lamsdlc;

void set_end_to_end(Metrics& m, const EndToEnd& e) {
  m.set("items_per_s", e.items_per_s, "1/s");
  m.set("cpu_us_per_mib", e.cpu_us_per_mib, "us/MiB");
  m.set("latency_p50_ms", e.latency_p50_ms, "ms");
  m.set("latency_p90_ms", e.latency_p90_ms, "ms");
  m.set("peak_rss_mib", peak_rss_mib(), "MiB");
  m.set("setup_s", e.setup_s, "s");
}

namespace {

struct Entry {
  const char* name;
  const char* unit;
};

// Per-layer catalogue, grouped by the module each metric is measured at.
constexpr Entry kPerLayer[] = {
    {"phy.crc16_ns_per_kib", "ns/KiB"},
    {"frame.codec_ns_per_frame", "ns"},
    {"frame.byte_path_share", "share"},
    {"frame.rejects_per_item", "1/item"},
    {"core.events_per_item", "1/item"},
    {"core.events_per_s", "1/s"},
    {"link.frames_per_item", "1/item"},
    {"link.corrupted_per_frame", "share"},
    {"lams.retx_per_item", "1/item"},
    {"lams.control_per_item", "1/item"},
    {"lams.useful_ratio", "share"},
    {"net.hops_per_item", "1/item"},
    {"net.inject_ns_per_packet", "ns"},
    {"net.parked", "count"},
    {"orbit.contact_plan_s", "s"},
    {"net.build_s", "s"},
    {"net.routes_s", "s"},
    {"sim.build_s", "s"},
    {"workload.submit_s", "s"},
    {"obs.events_per_item", "1/item"},
    {"obs.ns_per_event", "ns"},
    {"obs.cpu_share", "share"},
    {"rt.send_ns_per_datagram", "ns"},
    {"rt.recv_ns_per_datagram", "ns"},
    {"rt.datagrams_per_item", "1/item"},
    {"rt.write_ns_per_item", "ns"},
    {"rt.loop_lateness_p50_us", "us"},
    {"rt.loop_lateness_p99_us", "us"},
    {"rt.busy_ratio", "share"},
    {"rt.reassembly_held_max", "count"},
    {"rt.socket_loop_share", "share"},
    {"rt.bind_s", "s"},
    {"bench.generator_late_p99_ms", "ms"},
    {"host.steal_pct", "%"},
    {"trace.overhead_items_pct", "%"},
    {"trace.overhead_cpu_pct", "%"},
    {"trace.root_s", "s"},
};

std::string self_metric(SpanName n) {
  return n == SpanName::kRoot ? std::string{"self.unattributed"}
                              : std::string{"self."} + span_label(n);
}

}  // namespace

void init_per_layer(Metrics& m) {
  for (const Entry& e : kPerLayer) m.set(e.name, 0.0, e.unit);
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount); ++i) {
    m.set(self_metric(static_cast<SpanName>(i)), 0.0, "s");
  }
}

void set_protocol_layers(Metrics& m, const LinkCounts& c, std::uint64_t rejects,
                         std::uint64_t items, std::int64_t run_ns) {
  const auto per_item = [items](std::uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(items);
  };
  m.set("frame.rejects_per_item", per_item(rejects), "1/item");
  m.set("core.events_per_item", per_item(c.events), "1/item");
  m.set("core.events_per_s",
        static_cast<double>(c.events) * 1e9 / static_cast<double>(run_ns), "1/s");
  if (c.frames_sent > 0) {
    m.set("link.frames_per_item", per_item(c.frames_sent), "1/item");
    m.set("link.corrupted_per_frame",
          static_cast<double>(c.frames_corrupted) / static_cast<double>(c.frames_sent),
          "share");
  }
  m.set("lams.retx_per_item", per_item(c.iframe_retx), "1/item");
  m.set("lams.control_per_item", per_item(c.control_tx), "1/item");
  m.set("lams.useful_ratio",
        static_cast<double>(c.iframe_tx - c.iframe_retx) / static_cast<double>(c.iframe_tx),
        "share");
}

void set_self_times(Metrics& m, const Tracer& t, Outcome& out) {
  double sum = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount); ++i) {
    const auto n = static_cast<SpanName>(i);
    const double self = static_cast<double>(t.totals(n).self_ns) * 1e-9;
    m.set(self_metric(n), self, "s");
    sum += self;
  }
  const double root = static_cast<double>(t.totals(SpanName::kRoot).total_ns) * 1e-9;
  m.set("trace.root_s", root, "s");
  if (t.totals(SpanName::kRoot).count != 1 || t.depth() != 0 ||
      std::fabs(sum - root) > 1e-6 * std::max(1.0, root)) {
    out.violate("span self times do not add up to the root span");
  }
}

void set_trace_overhead(Metrics& m, double items_untraced, double items_traced,
                        double cpu_untraced, double cpu_traced) {
  m.set("trace.overhead_items_pct",
        items_untraced > 0 ? 100.0 * (items_untraced - items_traced) / items_untraced
                           : 0.0,
        "%");
  m.set("trace.overhead_cpu_pct",
        cpu_untraced > 0 ? 100.0 * (cpu_traced - cpu_untraced) / cpu_untraced : 0.0,
        "%");
}

double crc16_ns_per_kib(std::size_t bytes) {
  std::vector<std::uint8_t> buf(bytes);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  }
  const std::uint64_t reps = std::max<std::uint64_t>(1, (64u << 20) / bytes);
  std::vector<double> samples;
  std::uint16_t acc = 0;
  for (int round = 0; round < 7; ++round) {
    const std::int64_t t0 = wall_ns();
    for (std::uint64_t i = 0; i < reps; ++i) {
      buf[0] = static_cast<std::uint8_t>(acc);  // chain the calls
      acc = static_cast<std::uint16_t>(acc ^ phy::crc16_ccitt(buf));
    }
    const double ns = static_cast<double>(wall_ns() - t0);
    samples.push_back(ns / static_cast<double>(reps) /
                      (static_cast<double>(bytes) / 1024.0));
  }
  if (acc == 0x1234) std::fprintf(stderr, " ");  // keep `acc` observable
  return median(samples);
}

double codec_ns_per_frame(std::uint32_t bytes, Outcome& out) {
  frame::Frame f;
  f.body = frame::IFrame{42, 7, bytes, {}};
  std::vector<std::uint8_t> wire;
  const std::uint64_t reps = std::max<std::uint64_t>(1, (32u << 20) / bytes);
  std::vector<double> samples;
  std::uint64_t ok = 0;
  for (int round = 0; round < 7; ++round) {
    const std::int64_t t0 = wall_ns();
    for (std::uint64_t i = 0; i < reps; ++i) {
      frame::encode_into(f, wire);
      ok += frame::decode(wire).has_value() ? 1 : 0;
    }
    samples.push_back(static_cast<double>(wall_ns() - t0) /
                      static_cast<double>(reps));
  }
  if (ok != 7 * reps) out.violate("frame codec round trip failed");
  return median(samples);
}

}  // namespace perfbench
