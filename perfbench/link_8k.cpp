/// \file link_8k.cpp
/// \brief `link_8k`: one LAMS link in the paper's high regime, byte path on.
///
/// 1 Gbps, 10 ms one way, 8 KiB I-frames, Bernoulli BER 1e-6 on both
/// directions, every frame serialized through the real codec and CRC-16.
/// A run is a sequence of jobs; job k is one complete transfer of
/// kFramesPerJob frames whose channel error streams derive from
/// (seed, k), so a run's inputs are a pure function of its seed.  A job's
/// latency is the simulated time from submitting its frames until the last
/// one is delivered (`ScenarioReport::elapsed_s`).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lamsdlc/sim/scenario.hpp"
#include "lamsdlc/workload/sources.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lamsdlc;

namespace {

constexpr std::uint32_t kFrameBytes = 8192;
constexpr std::uint64_t kFramesPerJob = 16384;  // 128 MiB of payload

sim::ScenarioConfig link_config(std::uint64_t job_seed, bool byte_level) {
  sim::ScenarioConfig cfg;
  cfg.protocol = sim::Protocol::kLams;
  cfg.data_rate_bps = 1e9;
  cfg.prop_delay = Time::milliseconds(10);
  cfg.frame_bytes = kFrameBytes;
  cfg.byte_level_wire = byte_level;
  cfg.forward_error.kind = sim::ErrorConfig::Kind::kBernoulliBer;
  cfg.forward_error.ber = 1e-6;
  cfg.reverse_error = cfg.forward_error;
  cfg.seed = job_seed;
  return cfg;
}

/// Protocol outcome of one job: deterministic for a job seed, so any two
/// runs of it must agree field for field.
struct JobCounts {
  LinkCounts link;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t lost = 0;
  bool completed = false;
  bool operator==(const JobCounts&) const = default;
};

struct Job {
  JobCounts counts;
  Slice run;  ///< Frames delivered, wall and CPU time of the run phase.
  std::uint64_t decode_rejects = 0;  ///< Byte path only.
  std::uint64_t codec_mismatches = 0;
  std::int64_t build_ns = 0;
  std::int64_t submit_ns = 0;
  std::int64_t setup_ns = 0;
  double transfer_s = 0;  ///< Simulated: first submit to last delivery.
};

Job run_job(std::uint64_t job_seed, bool byte_level, Tracer& tr) {
  Job j;
  std::unique_ptr<sim::Scenario> s;
  {
    Span setup{tr, SpanName::kSetup};
    const std::int64_t t0 = wall_ns();
    {
      Span sp{tr, SpanName::kSimBuild};
      s = std::make_unique<sim::Scenario>(link_config(job_seed, byte_level));
    }
    const std::int64_t t1 = wall_ns();
    {
      Span sp{tr, SpanName::kWorkloadSubmit};
      workload::submit_batch(s->simulator(), s->sender(), s->tracker(),
                             s->ids(), kFramesPerJob, kFrameBytes);
    }
    const std::int64_t t2 = wall_ns();
    j.build_ns = t1 - t0;
    j.submit_ns = t2 - t1;
    j.setup_ns = t2 - t0;
  }
  {
    Span run{tr, SpanName::kRun};
    const std::int64_t c0 = cpu_ns();
    const std::int64_t p0 = thread_cpu_ns();
    const std::int64_t t0 = wall_ns();
    {
      Span sp{tr, SpanName::kSimRun};
      j.counts.completed = s->run_to_completion(Time::seconds_int(600));
    }
    j.run.wall_ns = wall_ns() - t0;
    j.run.thread_ns = thread_cpu_ns() - p0;
    j.run.cpu_ns = cpu_ns() - c0;
    const sim::ScenarioReport r = s->report();
    j.run.items = r.unique_delivered;
    j.transfer_s = r.elapsed_s;
    j.counts.delivered = r.unique_delivered;
    j.counts.duplicates = r.duplicates;
    j.counts.lost = r.lost;
    LinkCounts& c = j.counts.link;
    c.iframe_tx = r.iframe_tx;
    c.iframe_retx = r.iframe_retx;
    c.control_tx = r.control_tx;
    for (const link::SimplexChannel* ch :
         {&s->link().forward(), &s->link().reverse()}) {
      c.frames_sent += ch->frames_sent();
      c.frames_corrupted += ch->frames_corrupted();
      j.decode_rejects += ch->decode_rejects().total();
      j.codec_mismatches += ch->codec_mismatches();
    }
    c.events = s->simulator().events_executed();
  }
  return j;
}

/// Every frame delivered exactly once and the codec round trip exact.
void check_job(std::uint64_t k, const Job& j, Outcome& out) {
  const JobCounts& c = j.counts;
  if (!c.completed || c.delivered != kFramesPerJob || c.lost != 0 ||
      c.duplicates != 0 || j.codec_mismatches != 0) {
    out.violate("link_8k job " + std::to_string(k) + ": delivered " +
                std::to_string(c.delivered) + "/" +
                std::to_string(kFramesPerJob) + ", duplicates " +
                std::to_string(c.duplicates) + ", codec mismatches " +
                std::to_string(j.codec_mismatches));
  }
  out.attempted += kFramesPerJob;
  out.failed += (kFramesPerJob - std::min(c.delivered, kFramesPerJob)) + c.duplicates;
}

std::uint64_t digest(const JobCounts& c) {
  Digest d;
  c.link.add_to(d);
  for (const std::uint64_t v : {c.delivered, c.duplicates, c.lost,
                                std::uint64_t{c.completed}}) {
    d.add(v);
  }
  return d.value();
}

}  // namespace

void run_link_8k(const Options& opt, Metrics& m, Outcome& out) {
  // Jobs k of this seed, `count` of them or for `seconds` when count is 0.
  const auto leg_of = [&opt](double seconds, std::uint64_t count, bool byte_level,
                             Tracer& tr, Outcome& o) {
    return run_jobs(
        seconds, count,
        [&](std::uint64_t k) { return run_job(mix_seed(opt.seed, k), byte_level, tr); },
        [&](std::uint64_t k, const Job& j) { check_job(k, j, o); });
  };
  Tracer off{false};
  // Warm-up: job 0 once, unmeasured.  Its outcome must repeat exactly.
  const JobCounts warm = run_job(mix_seed(opt.seed, 0), true, off).counts;
  const auto leg = leg_of(opt.seconds, 0, true, off, out);
  if (!(leg.jobs.front().counts == warm)) {
    out.violate("link_8k job 0: protocol outcome differs between two runs");
  }
  std::printf("outcome digest of job 0: %016llx\n",
              static_cast<unsigned long long>(digest(warm)));

  if (!opt.trace) {
    const EndToEnd e = sim_end_to_end(leg, kFrameBytes);
    set_end_to_end(m, e);
    std::printf("link_8k: %zu jobs of %llu frames, latency = simulated batch "
                "delivery time (%zu samples), steal %.2f%%\n",
                leg.jobs.size(), static_cast<unsigned long long>(kFramesPerJob),
                e.latency_samples, leg.steal_pct);
    return;
  }

  // Traced leg: the same jobs again, spans on; then the differential leg,
  // the same jobs with the byte-level wire off.  Reruns of already-counted
  // jobs do not count twice.
  Outcome scratch;
  Tracer tr{true};
  const auto traced = [&] {
    Span root{tr, SpanName::kRoot};
    return leg_of(0, leg.jobs.size(), true, tr, scratch);
  }();
  const auto fast = leg_of(0, leg.jobs.size(), false, off, scratch);
  for (const auto& [other, what] : {std::pair{&traced, "the untraced and traced runs"},
                                    std::pair{&fast, "byte-level wire on and off"}}) {
    if (const std::ptrdiff_t k = leg.first_difference(*other); k >= 0) {
      out.violate("link_8k job " + std::to_string(k) +
                  ": protocol outcome differs between " + what);
    }
  }
  for (const std::string& v : scratch.violations) out.violate(v);
  tr.save("link_8k");

  init_per_layer(m);
  LinkCounts sum;
  std::uint64_t rejects = 0;
  std::vector<double> build, submit;
  for (const Job& j : leg.jobs) {
    sum += j.counts.link;
    rejects += j.decode_rejects;
    build.push_back(static_cast<double>(j.build_ns) * 1e-9);
    submit.push_back(static_cast<double>(j.submit_ns) * 1e-9);
  }
  m.set("phy.crc16_ns_per_kib", crc16_ns_per_kib(kFrameBytes), "ns/KiB");
  m.set("frame.codec_ns_per_frame", codec_ns_per_frame(kFrameBytes, out), "ns");
  m.set("frame.byte_path_share",
        1.0 - static_cast<double>(fast.run_ns) / static_cast<double>(leg.run_ns),
        "share");
  set_protocol_layers(m, sum, rejects, leg.items, leg.run_ns);
  m.set("sim.build_s", median(build), "s");
  m.set("workload.submit_s", median(submit), "s");
  m.set("host.steal_pct", leg.steal_pct, "%");
  set_trace_overhead(m, leg.items_per_s(), traced.items_per_s(),
                     leg.cpu_us_per_mib(kFrameBytes), traced.cpu_us_per_mib(kFrameBytes));
  set_self_times(m, tr, out);
}

}  // namespace perfbench
