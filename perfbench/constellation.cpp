/// \file constellation.cpp
/// \brief `constellation`: the 112-satellite / 8-plane Walker network.
///
/// 8000 km ISL range gives 224 links that stay up for the whole run, all on
/// the fast (non-byte-level) wire with no channel errors, so the kernel,
/// per-frame LAMS bookkeeping, store-and-forward and idle checkpointing do
/// the work and CRC/codec do none.  Traffic is seeded waves of 1 KiB packets
/// between random satellite pairs; waves are 2 s apart so the periodic
/// checkpoints and window barriers between waves are a visible share of the
/// run.  Execution is serial through the windowed path `sim::run_network`
/// uses at `partitions = 1`.
///
/// A run is a sequence of jobs; job k is one complete constellation run
/// (build, waves, drain) with seed (seed, k).  The run is composed here from
/// the library's public calls rather than taken from `sim::run_network`, so
/// that set-up is timed apart from the run; `--check-run-network` proves the two
/// produce the same `NetworkReport`.

#include <map>
#include <string>
#include <vector>

#include "lamsdlc/core/random.hpp"
#include "lamsdlc/net/contact_schedule.hpp"
#include "lamsdlc/net/network.hpp"
#include "lamsdlc/orbit/constellation.hpp"
#include "lamsdlc/sim/run_network.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lamsdlc;

namespace {

sim::NetworkRunConfig net_config(std::uint64_t job_seed) {
  sim::NetworkRunConfig cfg;
  cfg.satellites = 112;
  cfg.planes = 8;
  cfg.max_range_m = 8.0e6;
  cfg.horizon = Time::seconds_int(60);
  cfg.partitions = 1;
  cfg.waves = 3;
  cfg.wave_interval = Time::seconds_int(2);
  cfg.packets_per_wave = 10000;
  cfg.packet_bytes = 1024;
  cfg.seed = job_seed;
  return cfg;
}

bool same_report(const net::NetworkReport& a, const net::NetworkReport& b) {
  return a.packets_sent == b.packets_sent &&
         a.packets_delivered == b.packets_delivered &&
         a.duplicate_deliveries == b.duplicate_deliveries &&
         a.packets_lost == b.packets_lost &&
         a.packets_forwarded == b.packets_forwarded &&
         a.packets_parked == b.packets_parked &&
         a.messages_completed == b.messages_completed &&
         a.mean_delay_s == b.mean_delay_s && a.max_delay_s == b.max_delay_s;
}

/// Protocol outcome of one job: deterministic for a job seed.
struct JobCounts {
  LinkCounts link;
  net::NetworkReport report;
  std::uint64_t links = 0;
  bool completed = false;
  bool operator==(const JobCounts& o) const {
    return link == o.link && same_report(report, o.report) && links == o.links &&
           completed == o.completed;
  }
};

struct Job {
  JobCounts counts;
  Slice run;  ///< Packets delivered, wall and CPU time of the run phase.
  std::uint64_t decode_rejects = 0;
  std::int64_t plan_ns = 0;
  std::int64_t build_ns = 0;
  std::int64_t routes_ns = 0;
  std::int64_t setup_ns = 0;   ///< Everything before the run, including the above.
  std::int64_t inject_ns = 0;  ///< Network::send_packet calls inside the waves.
  /// Simulated: a wave's packets are injected at one instant, so the longest
  /// packet delay is the time the slowest wave took to be delivered in full.
  double transfer_s = 0;
};

/// `sim::run_network` (without observability), composed from public calls
/// so each set-up step is timed on its own.
Job run_job(const sim::NetworkRunConfig& cfg, Tracer& tr) {
  Job j;
  Simulator sim;
  net::Network net{sim, cfg.seed};
  std::map<std::pair<std::size_t, std::size_t>, net::LinkId> link_map;
  {
    Span setup{tr, SpanName::kSetup};
    const std::int64_t s0 = wall_ns();
    net.enable_pdes(cfg.partitions, cfg.satellites);
    orbit::WalkerParams wp;
    wp.total = cfg.satellites;
    wp.planes = cfg.planes;
    wp.phasing = cfg.phasing;
    wp.altitude_m = cfg.altitude_m;
    wp.inclination_rad = cfg.inclination_rad;
    const orbit::Constellation constellation{wp};
    for (std::size_t i = 0; i < constellation.size(); ++i) {
      net.add_node("sat" + std::to_string(i));
    }

    std::int64_t t0 = wall_ns();
    std::vector<orbit::Contact> plan;
    {
      Span sp{tr, SpanName::kOrbitContactPlan};
      plan = orbit::contact_plan(constellation, cfg.horizon, cfg.contact_step,
                                 cfg.max_range_m, cfg.min_contact);
    }
    j.plan_ns = wall_ns() - t0;

    net::LinkSpec proto;
    proto.data_rate_bps = cfg.data_rate_bps;
    proto.lams.checkpoint_interval = cfg.checkpoint_interval;
    proto.lams.cumulation_depth = cfg.cumulation_depth;
    proto.lams.max_rtt = cfg.max_rtt;
    t0 = wall_ns();
    {
      Span sp{tr, SpanName::kNetBuild};
      link_map = net::build_contact_network(net, constellation, plan, proto,
                                            cfg.max_range_m);
    }
    j.build_ns = wall_ns() - t0;
    t0 = wall_ns();
    {
      Span sp{tr, SpanName::kNetRoutes};
      net.compute_routes();
    }
    j.routes_ns = wall_ns() - t0;

    // The traffic schedule, drawn exactly as sim::run_network draws it.
    Span sp{tr, SpanName::kNetSubmit};
    RandomStream traffic{cfg.seed, "netrun.traffic"};
    const auto node_count = static_cast<std::int64_t>(constellation.size());
    for (std::uint32_t w = 0; w < cfg.waves; ++w) {
      std::vector<std::pair<net::NodeId, net::NodeId>> draws;
      draws.reserve(cfg.packets_per_wave);
      for (std::uint32_t k = 0; k < cfg.packets_per_wave; ++k) {
        const auto src =
            static_cast<net::NodeId>(traffic.uniform_int(0, node_count - 1));
        auto dst =
            static_cast<net::NodeId>(traffic.uniform_int(0, node_count - 2));
        if (dst >= src) ++dst;
        draws.emplace_back(src, dst);
      }
      const Time at = Time::picoseconds(cfg.wave_interval.ps() *
                                        (static_cast<std::int64_t>(w) + 1));
      net.at(at, [&net, &tr, &j, bytes = cfg.packet_bytes,
                  draws = std::move(draws)] {
        Span inject{tr, SpanName::kNetInject};
        const std::int64_t i0 = wall_ns();
        for (const auto& [src, dst] : draws) net.send_packet(src, dst, bytes);
        j.inject_ns += wall_ns() - i0;
      });
    }
    j.setup_ns = wall_ns() - s0;
  }
  {
    Span run{tr, SpanName::kRun};
    const std::int64_t c0 = cpu_ns();
    const std::int64_t p0 = thread_cpu_ns();
    const std::int64_t t0 = wall_ns();
    {
      Span sp{tr, SpanName::kNetRun};
      j.counts.completed = net.run_parallel_to_completion(cfg.horizon);
    }
    j.run.wall_ns = wall_ns() - t0;
    j.run.thread_ns = thread_cpu_ns() - p0;
    j.run.cpu_ns = cpu_ns() - c0;
    j.counts.report = net.report();
    j.counts.links = link_map.size();
    j.run.items = j.counts.report.packets_delivered;
    j.transfer_s = j.counts.report.max_delay_s;
    LinkCounts& c = j.counts.link;
    c.events = sim.events_executed();
    if (cfg.partitions == 1) c.events += net.sim_for(0).events_executed();
    for (const auto& [pair_ids, id] : link_map) {
      for (const link::SimplexChannel* ch : {&net.link_channels(id).forward(),
                                             &net.link_channels(id).reverse()}) {
        c.frames_sent += ch->frames_sent();
        c.frames_corrupted += ch->frames_corrupted();
        j.decode_rejects += ch->decode_rejects().total();
      }
      for (const net::NodeId from : {static_cast<net::NodeId>(pair_ids.first),
                                     static_cast<net::NodeId>(pair_ids.second)}) {
        const sim::DlcStats& s = net.flow(id, from).stats();
        c.iframe_tx += s.iframe_tx;
        c.iframe_retx += s.iframe_retx;
        c.control_tx += s.control_tx;
      }
    }
  }
  return j;
}

/// Every packet delivered exactly once, none left parked.
void check_job(std::uint64_t k, const Job& j, const sim::NetworkRunConfig& cfg,
               Outcome& out) {
  const net::NetworkReport& r = j.counts.report;
  const std::uint64_t sent = std::uint64_t{cfg.waves} * cfg.packets_per_wave;
  if (!j.counts.completed || r.packets_sent != sent || r.packets_delivered != sent ||
      r.packets_lost != 0 || r.duplicate_deliveries != 0 || r.packets_parked != 0) {
    out.violate("constellation job " + std::to_string(k) + ": delivered " +
                std::to_string(r.packets_delivered) + "/" + std::to_string(sent) +
                ", duplicates " + std::to_string(r.duplicate_deliveries) +
                ", parked " + std::to_string(r.packets_parked));
  }
  out.attempted += sent;
  out.failed += (sent - std::min(r.packets_delivered, sent)) + r.duplicate_deliveries;
}

std::uint64_t digest(const JobCounts& c) {
  Digest d;
  c.link.add_to(d);
  const net::NetworkReport& r = c.report;
  for (const std::uint64_t v :
       {r.packets_sent, r.packets_delivered, r.duplicate_deliveries, r.packets_lost,
        r.packets_forwarded, r.packets_parked, r.messages_completed, c.links,
        std::uint64_t{c.completed}}) {
    d.add(v);
  }
  d.add(r.mean_delay_s);
  d.add(r.max_delay_s);
  return d.value();
}

double median_ns_as_s(const std::vector<Job>& jobs, std::int64_t Job::*field) {
  std::vector<double> v;
  for (const Job& j : jobs) v.push_back(static_cast<double>(j.*field) * 1e-9);
  return median(v);
}

}  // namespace

bool check_constellation_matches_run_network(std::uint64_t seed) {
  const sim::NetworkRunConfig cfg = net_config(mix_seed(seed, 0));
  const sim::NetworkRunResult shipped = sim::run_network(cfg);
  Tracer off{false};
  const Job composed = run_job(cfg, off);
  const net::NetworkReport& a = shipped.report;
  const net::NetworkReport& b = composed.counts.report;
  std::printf("constellation seed %llu: run_network delivered %llu/%llu "
              "forwarded %llu mean delay %.9f s; composed delivered %llu/%llu "
              "forwarded %llu mean delay %.9f s\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(a.packets_delivered),
              static_cast<unsigned long long>(a.packets_sent),
              static_cast<unsigned long long>(a.packets_forwarded), a.mean_delay_s,
              static_cast<unsigned long long>(b.packets_delivered),
              static_cast<unsigned long long>(b.packets_sent),
              static_cast<unsigned long long>(b.packets_forwarded), b.mean_delay_s);
  const bool ok = same_report(a, b) && shipped.completed == composed.counts.completed &&
                  shipped.links == composed.counts.links;
  std::printf("%s\n", ok ? "composed run matches sim::run_network"
                         : "MISMATCH: composed run differs from sim::run_network");
  return ok;
}

void run_constellation(const Options& opt, Metrics& m, Outcome& out) {
  // Jobs k of this seed, `count` of them or for `seconds` when count is 0.
  const auto leg_of = [&opt](double seconds, std::uint64_t count, Tracer& tr,
                             Outcome& o) {
    return run_jobs(
        seconds, count,
        [&](std::uint64_t k) { return run_job(net_config(mix_seed(opt.seed, k)), tr); },
        [&](std::uint64_t k, const Job& j) {
          check_job(k, j, net_config(mix_seed(opt.seed, k)), o);
        });
  };
  const sim::NetworkRunConfig cfg0 = net_config(opt.seed);
  Tracer off{false};
  // Warm-up: job 0 once, unmeasured.  Its outcome must repeat exactly.
  const JobCounts warm = run_job(net_config(mix_seed(opt.seed, 0)), off).counts;
  const auto leg = leg_of(opt.seconds, 0, off, out);
  if (!(leg.jobs.front().counts == warm)) {
    out.violate("constellation job 0: protocol outcome differs between two runs");
  }
  std::printf("outcome digest of job 0: %016llx\n",
              static_cast<unsigned long long>(digest(warm)));

  if (!opt.trace) {
    const EndToEnd e = sim_end_to_end(leg, cfg0.packet_bytes);
    set_end_to_end(m, e);
    std::printf("constellation: %zu jobs of %u waves x %u packets, %llu links, "
                "latency = simulated wave delivery time (%zu samples), "
                "steal %.2f%%\n",
                leg.jobs.size(), cfg0.waves, cfg0.packets_per_wave,
                static_cast<unsigned long long>(warm.links), e.latency_samples,
                leg.steal_pct);
    return;
  }

  // Traced leg: the same jobs again, spans on.  Reruns of already-counted
  // jobs do not count twice.
  Outcome scratch;
  Tracer tr{true};
  const auto traced = [&] {
    Span root{tr, SpanName::kRoot};
    return leg_of(0, leg.jobs.size(), tr, scratch);
  }();
  if (const std::ptrdiff_t k = leg.first_difference(traced); k >= 0) {
    out.violate("constellation job " + std::to_string(k) +
                ": protocol outcome differs between the untraced and traced runs");
  }
  for (const std::string& v : scratch.violations) out.violate(v);
  tr.save("constellation");

  init_per_layer(m);
  LinkCounts sum;
  std::uint64_t rejects = 0, forwarded = 0, parked = 0;
  std::int64_t inject_ns = 0;
  for (const Job& j : leg.jobs) {
    sum += j.counts.link;
    rejects += j.decode_rejects;
    forwarded += j.counts.report.packets_forwarded;
    parked += j.counts.report.packets_parked;
    inject_ns += j.inject_ns;
  }
  const auto items = static_cast<double>(leg.items);
  m.set("phy.crc16_ns_per_kib", crc16_ns_per_kib(cfg0.packet_bytes), "ns/KiB");
  m.set("frame.codec_ns_per_frame", codec_ns_per_frame(cfg0.packet_bytes, out), "ns");
  set_protocol_layers(m, sum, rejects, leg.items, leg.run_ns);
  m.set("net.hops_per_item", (items + static_cast<double>(forwarded)) / items,
        "1/item");
  m.set("net.inject_ns_per_packet", static_cast<double>(inject_ns) / items, "ns");
  m.set("net.parked", static_cast<double>(parked), "count");
  m.set("orbit.contact_plan_s", median_ns_as_s(leg.jobs, &Job::plan_ns), "s");
  m.set("net.build_s", median_ns_as_s(leg.jobs, &Job::build_ns), "s");
  m.set("net.routes_s", median_ns_as_s(leg.jobs, &Job::routes_ns), "s");
  m.set("host.steal_pct", leg.steal_pct, "%");
  set_trace_overhead(m, leg.items_per_s(), traced.items_per_s(),
                     leg.cpu_us_per_mib(cfg0.packet_bytes),
                     traced.cpu_us_per_mib(cfg0.packet_bytes));
  set_self_times(m, tr, out);
}

}  // namespace perfbench
