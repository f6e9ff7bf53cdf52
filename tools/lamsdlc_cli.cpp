/// \file lamsdlc_cli.cpp
/// \brief Command-line scenario driver.
///
/// Runs one protocol-over-link simulation from flags and prints either a
/// human-readable report or a CSV row (for sweeps driven by shell loops):
///
///   lamsdlc_cli --protocol lams --rate 300e6 --delay-ms 10 --pf 0.1
///       --frames 10000 --csv          (a single command line)
///
/// Subcommands add the chaos soak, the verification harness, event capture,
/// inspection and tracing, the live daemon and its clients, and the
/// constellation run; `lamsdlc_cli --help` lists them and
/// `lamsdlc_cli <subcommand> --help` lists that subcommand's flags with
/// their defaults.  Examples:
///
///   lamsdlc_cli chaos --seed 1 --seeds 500   (soak: seeds 1..500)
///   lamsdlc_cli verify --seeds 200            (sweep seeds 1..200 + fuzz)
///   lamsdlc_cli verify --repro --seed 17 --modulus 8 --cdepth 3 --packets 40
///   lamsdlc_cli verify --corrupt-state --seeds 250 --jobs 0
///   lamsdlc_cli capture --seed 42 --out run.ldlcap
///   lamsdlc_cli inspect run.ldlcap --timeline --bucket-ms 10
///   lamsdlc_cli trace run.ldlcap --perfetto run.json
///   lamsdlc_cli trace --seed 42 --explain worst
///   lamsdlc_cli serve --self-peer --bridge --deliver-dir /tmp/out
///   lamsdlc_cli connect --port 47101 < file.bin
///   lamsdlc_cli status --port 47103 --pretty
///   lamsdlc_cli watch --port 47103 --interval-ms 1000
///   lamsdlc_cli network --sats 112 --planes 8 --partitions 4
///
/// `trace` exits 1 when any delivered packet lacks a complete span tree;
/// `connect` exits 0 iff the bridge answered `OK <n>`.  A `network` run's
/// report and artifacts are byte-identical at every --partitions value (the
/// PDES identity contract; scripts/ci.sh holds the CLI to it with cmp).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "lamsdlc/analysis/model.hpp"
#include "lamsdlc/obs/capture.hpp"
#include "lamsdlc/obs/event.hpp"
#include "lamsdlc/obs/metrics.hpp"
#include "lamsdlc/obs/perfetto.hpp"
#include "lamsdlc/obs/trace.hpp"
#include "lamsdlc/sim/chaos.hpp"
#include "lamsdlc/sim/run_network.hpp"
#include "lamsdlc/sim/sweep.hpp"
#include "lamsdlc/sim/scenario.hpp"
#include "lamsdlc/verif/corrupt.hpp"
#include "lamsdlc/verif/fuzz.hpp"
#include "lamsdlc/verif/verify.hpp"
#include "lamsdlc/workload/sources.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "daemon_opts.hpp"

namespace {

using namespace lamsdlc;
using namespace lamsdlc::tools;

struct Options {
  sim::ScenarioConfig cfg;
  std::uint64_t frames = 1000;
  Time horizon = Time::seconds_int(600);
  double pf = 0, pc = 0, ber = -1;  // ber < 0 and a zero burst: not set
  Time burst{};
  bool csv = false;
  bool csv_header = false;
  bool analysis = false;
};

constexpr std::pair<const char*, sim::Protocol> kProtocols[] = {
    {"lams", sim::Protocol::kLams},
    {"sr", sim::Protocol::kSrHdlc},
    {"gbn", sim::Protocol::kGbnHdlc},
    {"nbdt", sim::Protocol::kNbdt}};

const char* protocol_name(sim::Protocol p) {
  for (const auto& [name, q] : kProtocols) {
    if (q == p) return name;
  }
  return "?";
}

Flags scenario_flags(Options& o) {
  sim::ScenarioConfig& c = o.cfg;
  return {
      {"--protocol", "NAME", "lams, sr, gbn or nbdt [lams]",
       [&c](const char* v) {
         for (const auto& [name, p] : kProtocols) {
           if (std::string_view{v} == name) {
             c.protocol = p;
             return true;
           }
         }
         return false;
       },
       "lams, sr, gbn or nbdt"},
      num("--rate", "BPS", "data rate [300e6]", c.data_rate_bps, kAboveZero),
      duration("--delay-ms", "MS", "one-way delay [10]", c.prop_delay, 1e-3),
      num("--frame-bytes", "B", "frame payload [1024]", c.frame_bytes, 1),
      num("--frames", "N", "batch size [1000]", o.frames, 1),
      num("--pf", "P", "I-frame error probability [0]", o.pf, 0.0, 1.0),
      num("--pc", "P", "control-frame error probability [0]", o.pc, 0.0, 1.0),
      num("--ber", "B", "bit error rate, not --pf [off]", o.ber, 0.0, 1.0),
      duration("--burst-ms", "MS", "mean error burst [off]", o.burst, 1e-3),
      duration("--icp-ms", "MS", "LAMS checkpoint interval [5]",
               c.lams.checkpoint_interval, 1e-3, true),
      num("--cdepth", "K", "cumulation depth [4]", c.lams.cumulation_depth, 1),
      also(num("--window", "W", "HDLC window, modulus 4W [64, modulus 128]",
               c.hdlc.window, 1, (1u << 30) - 1),
           [&c] { c.hdlc.modulus = 4 * c.hdlc.window; }),
      duration("--timeout-ms", "MS", "HDLC t_out [120]", c.hdlc.timeout, 1e-3,
               true),
      num("--seed", "S", "random seed [1]", c.seed, 0),
      set("--byte-level", "use the real byte codec", c.byte_level_wire, true),
      duration("--horizon-s", "S", "simulation horizon [600]", o.horizon, 1.0),
      set("--csv", "emit one CSV row instead of the report", o.csv, true),
      also(set("--csv-header", "--csv with a header row", o.csv_header, true),
           [&o] { o.csv = true; }),
      set("--analysis", "also print Section 4 closed forms", o.analysis, true),
  };
}

void print_subcommands(std::FILE* to) {
  std::fprintf(to,
               "subcommands:\n"
               "  chaos     replay seeded fault schedules under the invariant "
               "checker\n"
               "  verify    property-fuzzing + differential-oracle "
               "verification sweep\n"
               "  capture   run one chaos seed, record events to an .ldlcap "
               "file\n"
               "  inspect   decode an .ldlcap file to text, JSON or a "
               "timeline\n"
               "  trace     reconstruct packet span trees, attribute latency, "
               "export Perfetto JSON\n"
               "  serve     run the live transport daemon (same as the "
               "lamsdlcd binary)\n"
               "  connect   push one byte stream through a daemon's client "
               "bridge\n"
               "  status    one-shot snapshot of a live daemon's "
               "introspection port\n"
               "  watch     periodic sampled metric rates from a live "
               "daemon\n"
               "  network   constellation-scale multi-hop run (optionally "
               "PDES-partitioned)\n"
               "  (none)    run one scenario from flags and print a report\n");
}

void print_help() {
  std::printf(
      "usage: lamsdlc_cli [subcommand] [flags]\n"
      "\n"
      "Simulates the LAMS-DLC ARQ protocol (and HDLC/NBDT baselines) over a\n"
      "faulty link.  With no subcommand, runs one scenario and prints a\n"
      "report (or a CSV row with --csv).\n"
      "\n");
  print_subcommands(stdout);
  std::printf("\nflags with no subcommand:\n");
  Options o;
  print_flags(scenario_flags(o));
  std::printf(
      "\nRun `lamsdlc_cli <subcommand> --help` for that subcommand's flags.\n");
}

Options parse(int argc, char** argv) {
  Options o;
  parse_flags(argc, argv, 1, "lamsdlc_cli",
              "[flags]\nRuns one scenario; `lamsdlc_cli --help` alone also "
              "lists the subcommands.",
              scenario_flags(o));
  if (o.ber >= 0) {
    o.cfg.forward_error.kind = sim::ErrorConfig::Kind::kBernoulliBer;
    o.cfg.forward_error.ber = o.ber;
    o.cfg.reverse_error = o.cfg.forward_error;
  } else if (o.burst > Time{}) {
    o.cfg.forward_error.kind = sim::ErrorConfig::Kind::kGilbertElliott;
    o.cfg.forward_error.gilbert.mean_bad = o.burst;
    o.cfg.reverse_error = o.cfg.forward_error;
  } else if (o.pf > 0 || o.pc > 0) {
    o.cfg.forward_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
    o.cfg.forward_error.p_frame = o.pf;
    o.cfg.forward_error.p_control = o.pc;
    o.cfg.reverse_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
    o.cfg.reverse_error.p_frame = o.pc;
    o.cfg.reverse_error.p_control = o.pc;
  }
  // Keep the LAMS failure budget consistent with the configured delay.
  o.cfg.lams.max_rtt = o.cfg.prop_delay * 2 + Time::milliseconds(5);
  return o;
}

/// The chaos knobs, shared by `chaos`, `capture` and live `trace`.
Flags chaos_flags(sim::ChaosKnobs& k) {
  return {
      num("--seed", "S", "schedule seed, the first of a sweep [1]", k.seed, 0),
      num("--packets", "N", "workload size per run [200]", k.packets, 1),
      set("--reverse-only", "faults attack only the checkpoint path",
          k.allow_forward_faults, false),
      set("--forward-only", "faults attack only the I-frame path",
          k.allow_reverse_faults, false),
      set("--no-outage", "never schedule a full link outage",
          k.allow_link_outage, false),
      set("--no-suppress-duplicates", "ablation: deliver stale frames",
          k.suppress_duplicates, false),
      num("--reverse-noise", "P", "pin the checkpoint-path error rate [drawn]",
          k.reverse_noise, 0.0, 1.0),
      duration("--reverse-outage-from-ms", "MS", "reverse outage start [0]",
               k.reverse_outage_from, 1e-3),
      duration("--reverse-outage-ms", "MS", "reverse outage length [0]",
               k.reverse_outage_len, 1e-3),
      set("--self-heal", "self-audit, watchdog, RESYNC on", k.self_heal, true),
  };
}

/// `--seeds` and `--jobs` of a seed sweep; the output is the same for any
/// --jobs.
Flags sweep_flags(std::uint64_t& seeds, unsigned& jobs) {
  return {num("--seeds", "N", "number of consecutive seeds [1]", seeds, 0),
          num("--jobs", "N", "worker threads, 0 = all cores [1]", jobs, 0)};
}

Flag sample_flag(Time& period) {
  return duration("--sample-ms", "MS", "registry snapshot period [0 = off]",
                  period, 1e-3);
}

int run_chaos_command(int argc, char** argv) {
  sim::ChaosKnobs knobs;
  std::uint64_t seeds = 1;
  unsigned jobs = 1;
  parse_flags(argc, argv, 2, "lamsdlc_cli chaos", "[flags]",
              chaos_flags(knobs) + sweep_flags(seeds, jobs));

  // Seeds are independent simulations; the sweep returns verdicts in seed
  // order, so the output below is identical whatever --jobs is.
  const std::vector<sim::ChaosVerdict> verdicts =
      sim::run_chaos_sweep(knobs, knobs.seed, seeds, jobs);

  std::uint64_t violated = 0;
  for (std::uint64_t s = knobs.seed; s < knobs.seed + seeds; ++s) {
    const sim::ChaosVerdict& v = verdicts[s - knobs.seed];
    if (!v.ok) ++violated;
    if (!v.ok || seeds == 1) {
      std::printf("%s", v.to_string().c_str());
      std::printf(
          "  counters: drop=%llu dup=%llu delay=%llu trunc=%llu corrupt=%llu "
          "reverse=%llu congestion=%llu dup_suppressed=%llu rnak=%llu "
          "cp=%llu\n",
          static_cast<unsigned long long>(v.faults_dropped),
          static_cast<unsigned long long>(v.faults_duplicated),
          static_cast<unsigned long long>(v.faults_delayed),
          static_cast<unsigned long long>(v.faults_truncated),
          static_cast<unsigned long long>(v.frames_corrupted),
          static_cast<unsigned long long>(v.reverse_faulted),
          static_cast<unsigned long long>(v.congestion_discards),
          static_cast<unsigned long long>(v.duplicates_suppressed),
          static_cast<unsigned long long>(v.request_naks),
          static_cast<unsigned long long>(v.checkpoints_sent));
    }
  }
  if (seeds > 1) {
    std::printf("chaos soak: %llu seeds, %llu violated\n",
                static_cast<unsigned long long>(seeds),
                static_cast<unsigned long long>(violated));
  }
  return violated == 0 ? 0 : 1;
}

/// `verify --corrupt-state`: the state-corruption chaos tier.  Seeded
/// corruption schedules mutate live endpoint state mid-run; the verdict is
/// the self-stabilization contract (converge within the recovery budget or
/// tear down cleanly).  Failing seeds shrink and print a repro line.
int run_corrupt_state_command(int argc, char** argv) {
  verif::CorruptKnobs knobs;
  std::uint64_t seeds = 1;
  unsigned jobs = 1;
  bool repro = false;
  const Flags rows{
      {"--corrupt-state", nullptr, "this state-corruption tier",
       [](const char*) { return true; }},
      num("--seed", "S", "first (or only) seed [1]", knobs.seed, 0),
      num("--packets", "N", "workload size per run [120]", knobs.packets, 1),
      num("--injections", "N", "pin the injection count [0 = draw 1..4]",
          knobs.injections, 0),
      set("--no-sender", "spare the sender", knobs.allow_sender, false),
      set("--no-receiver", "spare the receiver", knobs.allow_receiver, false),
      set("--no-state-loss", "never destroy an in-flight slot outright",
          knobs.allow_state_loss, false),
      set("--no-noise", "no wire noise", knobs.background_noise, false),
      set("--no-self-heal", "ablation: self-audit, watchdog, RESYNC off",
          knobs.self_heal, false),
      num("--fault-scale", "X", "warp multiplier [1.0]", knobs.scale, 0.0),
      set("--repro", "print one seed's transcript verbatim", repro, true),
  };
  parse_flags(argc, argv, 2, "lamsdlc_cli verify --corrupt-state", "[flags]",
              rows + sweep_flags(seeds, jobs));

  if (repro || seeds == 1) {
    const verif::CorruptVerdict v = verif::run_corrupt(knobs);
    std::printf("%s", v.to_string().c_str());
    return v.ok ? 0 : 1;
  }

  const std::vector<verif::CorruptVerdict> verdicts =
      verif::run_corrupt_sweep(knobs, knobs.seed, seeds, jobs);
  std::uint64_t failed = 0, converged = 0, torn_down = 0, resyncs = 0;
  for (const verif::CorruptVerdict& v : verdicts) {
    converged += v.converged ? 1 : 0;
    torn_down += v.torn_down ? 1 : 0;
    resyncs += v.resyncs;
    if (v.ok) continue;
    ++failed;
    std::printf("seed %llu FAILED, shrinking...\n",
                static_cast<unsigned long long>(v.knobs.seed));
    const verif::CorruptVerdict small = verif::shrink_corrupt(v.knobs);
    std::printf("%s", small.to_string().c_str());
  }
  std::printf("corrupt-state sweep: %llu seeds, %llu converged, %llu torn "
              "down, %llu resyncs, %llu failed\n",
              static_cast<unsigned long long>(seeds),
              static_cast<unsigned long long>(converged),
              static_cast<unsigned long long>(torn_down),
              static_cast<unsigned long long>(resyncs),
              static_cast<unsigned long long>(failed));
  return failed == 0 ? 0 : 1;
}

int run_verify_command(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--corrupt-state") == 0) {
      return run_corrupt_state_command(argc, argv);
    }
  }
  verif::VerifyKnobs knobs;
  std::uint64_t seeds = 1;
  unsigned jobs = 1;
  std::uint64_t fuzz_iters = 10000;
  bool repro = false;
  const Flags rows{
      num("--seed", "S", "first (or only) seed [1]", knobs.seed, 0),
      num("--fuzz", "N", "codec fuzz cases, 0 = none [10000]", fuzz_iters, 0),
      num("--modulus", "M", "pin numbering size [0 = draw]", knobs.modulus, 0),
      num("--cdepth", "C", "pin cumulation depth [0 = draw]", knobs.c_depth, 0),
      num("--packets", "P", "pin workload size [0 = draw]", knobs.packets, 0),
      num("--fault-scale", "X", "fault window scale [1.0]", knobs.fault_scale,
          0.0),
      set("--no-faults", "drop fault-injector episodes", knobs.faults, false),
      set("--no-congestion", "drop congestion draws", knobs.congestion, false),
      set("--no-outage", "drop link outages", knobs.outage, false),
      set("--no-reverse", "no checkpoint faults", knobs.reverse_faults, false),
      set("--no-byte-level", "no byte-level wire", knobs.byte_level, false),
      set("--no-differential", "no SR/GBN oracle", knobs.differential, false),
      set("--no-analysis", "skip the closed-form model check",
          knobs.analysis_check, false),
      set("--repro", "print one seed's full transcript", repro, true),
  };
  parse_flags(argc, argv, 2, "lamsdlc_cli verify",
              "[flags]  (--corrupt-state: the state-corruption tier)",
              rows + sweep_flags(seeds, jobs));

  if (repro) {
    // Exact single-run replay: no shrinking, full transcript either way.
    const verif::VerifyVerdict v = verif::run_verify(knobs);
    std::printf("%s", v.to_string().c_str());
    return v.ok ? 0 : 1;
  }

  std::uint64_t failed = 0;

  // Wire-input leg first: it is cheap and a codec property violation makes
  // every byte-level scenario verdict suspect.
  if (fuzz_iters > 0) {
    verif::FuzzOptions fo;
    fo.seed = knobs.seed;
    fo.iterations = fuzz_iters;
    fo.seq_modulus = knobs.modulus != 0 ? knobs.modulus : 32;
    const verif::FuzzReport fr = verif::fuzz_codec(fo);
    std::printf("%s\n", fr.summary().c_str());
    if (!fr.ok()) failed += fr.failures.size();
  }

  const sim::ParallelSweep pool{jobs};
  const auto verdicts = pool.map<verif::VerifyVerdict>(
      static_cast<std::size_t>(seeds), [&knobs](std::size_t i) {
        verif::VerifyKnobs k = knobs;
        k.seed = knobs.seed + i;
        return verif::run_verify(k);
      });

  for (const verif::VerifyVerdict& v : verdicts) {
    if (v.ok && seeds > 1) continue;
    if (v.ok) {
      std::printf("%s", v.to_string().c_str());
      continue;
    }
    ++failed;
    std::printf("seed %llu FAILED, shrinking...\n",
                static_cast<unsigned long long>(v.knobs.seed));
    const verif::VerifyVerdict small = verif::shrink_failure(v.knobs);
    std::printf("%s", small.to_string().c_str());
  }
  if (seeds > 1) {
    std::printf("verify sweep: %llu seeds, %llu failed\n",
                static_cast<unsigned long long>(seeds),
                static_cast<unsigned long long>(failed));
  }
  return failed == 0 ? 0 : 1;
}

int run_capture_command(int argc, char** argv) {
  sim::ChaosKnobs knobs;
  std::string out;
  const Flags rows{
      text("--out", "FILE", "capture file [chaos-seed-S.ldlcap]", out),
      sample_flag(knobs.sample_period),
  };
  parse_flags(argc, argv, 2, "lamsdlc_cli capture", "[flags]",
              chaos_flags(knobs) + rows);
  if (out.empty()) {
    out = "chaos-seed-" + std::to_string(knobs.seed) + ".ldlcap";
  }

  std::ofstream os{out, std::ios::binary | std::ios::trunc};
  if (!os) {
    std::fprintf(stderr, "lamsdlc_cli: cannot open %s for writing\n",
                 out.c_str());
    return 1;
  }
  obs::CaptureWriter writer{os};
  knobs.tap = [&writer](sim::Scenario& s) {
    s.events().subscribe(writer.subscriber());
  };
  const sim::ChaosVerdict v = sim::run_chaos(knobs);
  os.flush();
  if (!os) {
    std::fprintf(stderr, "lamsdlc_cli: write error on %s\n", out.c_str());
    return 1;
  }

  std::printf("%s", v.to_string().c_str());
  std::printf("captured %llu events -> %s\n",
              static_cast<unsigned long long>(writer.written()), out.c_str());
  return v.ok ? 0 : 1;
}

/// `inspect --timeline`: render filtered events as a time-bucketed table —
/// per-bucket event rates, carried-forward buffer depths, and (when the
/// capture holds Sampler snapshots) per-bucket deltas of the busiest sampled
/// counters.
void print_timeline(const std::vector<obs::Event>& events, double bucket_ms) {
  if (events.empty()) {
    std::printf("timeline: no matching records\n");
    return;
  }
  const double t0 = events.front().at.ms();
  const double t1 = events.back().at.ms();
  if (bucket_ms <= 0) {
    bucket_ms = (t1 - t0) / 20.0;
    if (bucket_ms < 1.0) bucket_ms = 1.0;
  }
  const auto buckets =
      static_cast<std::size_t>((t1 - t0) / bucket_ms) + 1;

  struct Row {
    std::uint64_t tx = 0, retx = 0, delivered = 0, corrupted = 0, naks = 0,
                  checkpoints = 0;
  };
  std::vector<Row> rows(buckets);
  // Carried-forward depths: the last observed occupancy at or before each
  // bucket's end (a buffer that never changes inside a bucket keeps its
  // depth, it does not read as empty).
  std::vector<int64_t> send_depth(buckets, -1), recv_depth(buckets, -1);
  // Sampled counters: name -> cumulative value per bucket (last snapshot in
  // the bucket; -1 = no snapshot yet).
  std::map<std::string, std::vector<double>> sampled;

  for (const obs::Event& e : events) {
    auto b = static_cast<std::size_t>((e.at.ms() - t0) / bucket_ms);
    if (b >= buckets) b = buckets - 1;
    Row& r = rows[b];
    switch (e.kind) {
      case obs::EventKind::kFrameSent:
        if (e.source == obs::Source::kLamsSender && !e.p.frame.control) {
          ++r.tx;
          if (e.p.frame.attempt > 1) ++r.retx;
        }
        break;
      case obs::EventKind::kPacketDelivered:
        ++r.delivered;
        break;
      case obs::EventKind::kFrameCorrupted:
        ++r.corrupted;
        break;
      case obs::EventKind::kNakGenerated:
        ++r.naks;
        break;
      case obs::EventKind::kCheckpointEmitted:
        ++r.checkpoints;
        break;
      case obs::EventKind::kBufferOccupancy:
        (e.p.buffer.which == obs::BufferId::kSendBuffer
             ? send_depth
             : recv_depth)[b] = e.p.buffer.depth;
        break;
      case obs::EventKind::kMetricSample:
        if (e.p.sample.is_counter) {
          auto& series = sampled[std::string{e.p.sample.name_view()}];
          if (series.empty()) series.assign(buckets, -1.0);
          series[b] = e.p.sample.value;
        }
        break;
      default:
        break;
    }
  }
  // Carry depths forward through empty buckets.
  for (std::size_t b = 1; b < buckets; ++b) {
    if (send_depth[b] < 0) send_depth[b] = send_depth[b - 1];
    if (recv_depth[b] < 0) recv_depth[b] = recv_depth[b - 1];
  }

  std::printf("timeline: %zu buckets x %.3f ms, t=[%.3f ms, %.3f ms]\n",
              buckets, bucket_ms, t0, t1);
  std::printf("%12s %6s %6s %6s %6s %6s %6s %7s %7s\n", "t0_ms", "tx", "retx",
              "dlvr", "corr", "nak", "cp", "sendq", "recvq");
  for (std::size_t b = 0; b < buckets; ++b) {
    const Row& r = rows[b];
    char sendq[24] = "-", recvq[24] = "-";
    if (send_depth[b] >= 0) {
      std::snprintf(sendq, sizeof sendq, "%lld",
                    static_cast<long long>(send_depth[b]));
    }
    if (recv_depth[b] >= 0) {
      std::snprintf(recvq, sizeof recvq, "%lld",
                    static_cast<long long>(recv_depth[b]));
    }
    std::printf("%12.3f %6llu %6llu %6llu %6llu %6llu %6llu %7s %7s\n",
                t0 + static_cast<double>(b) * bucket_ms,
                static_cast<unsigned long long>(r.tx),
                static_cast<unsigned long long>(r.retx),
                static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.corrupted),
                static_cast<unsigned long long>(r.naks),
                static_cast<unsigned long long>(r.checkpoints), sendq, recvq);
  }

  if (!sampled.empty()) {
    // Busiest sampled counters, as per-bucket deltas (rates).  Snapshots are
    // cumulative, so carry the last seen value forward before differencing.
    std::vector<std::pair<double, const std::string*>> by_final;
    for (auto& [name, series] : sampled) {
      double last = 0;
      for (std::size_t b = 0; b < buckets; ++b) {
        if (series[b] < 0) {
          series[b] = last;
        } else {
          last = series[b];
        }
      }
      by_final.emplace_back(last, &name);
    }
    std::sort(by_final.begin(), by_final.end(),
              [](const auto& x, const auto& y) {
                return x.first != y.first ? x.first > y.first
                                          : *x.second < *y.second;
              });
    const std::size_t shown = by_final.size() < 4 ? by_final.size() : 4;
    std::printf("\nsampled counter deltas per bucket (%zu of %zu series):\n",
                shown, by_final.size());
    std::printf("%12s", "t0_ms");
    for (std::size_t c = 0; c < shown; ++c) {
      std::printf(" %24s", by_final[c].second->c_str());
    }
    std::printf("\n");
    for (std::size_t b = 0; b < buckets; ++b) {
      std::printf("%12.3f", t0 + static_cast<double>(b) * bucket_ms);
      for (std::size_t c = 0; c < shown; ++c) {
        const std::vector<double>& series = sampled[*by_final[c].second];
        const double prev = b == 0 ? 0.0 : series[b - 1];
        std::printf(" %24.0f", series[b] - prev);
      }
      std::printf("\n");
    }
  }
}

int run_inspect_command(int argc, char** argv) {
  std::string file;
  bool json = false, summary = false, timeline = false;
  std::optional<obs::EventKind> kind;
  std::optional<obs::Source> source;
  double from_ms = -1, to_ms = -1, bucket_ms = 0;
  std::uint64_t limit = 0;
  const char* prog = "lamsdlc_cli inspect";
  const Flags rows{
      set("--json", "one JSON object per record [text]", json, true),
      set("--summary", "per-kind/per-source counts only", summary, true),
      set("--timeline", "time-bucketed table instead of records", timeline,
          true),
      num("--bucket-ms", "MS", "timeline bucket [span/20, >= 1]", bucket_ms,
          kAboveZero),
      {"--kind", "NAME", "keep only this event kind",
       [&kind](const char* v) {
         kind = obs::kind_from_string(v);
         return kind.has_value();
       },
       "an event kind name"},
      {"--source", "NAME", "keep only this source (e.g. lams.sender)",
       [&source](const char* v) {
         source = obs::source_from_string(v);
         return source.has_value();
       },
       "a source name"},
      num("--from-ms", "MS", "keep records at t >= MS", from_ms, 0.0),
      num("--to-ms", "MS", "keep records at t < MS", to_ms, 0.0),
      num("--limit", "N", "stop after printing N records [0 = all]", limit, 0),
  };
  parse_flags(argc, argv, 2, prog, "FILE [flags]", rows, &file);
  if (file.empty()) usage_error(prog, "inspect needs a capture file argument");
  if (from_ms >= 0 && to_ms >= 0 && from_ms > to_ms) {
    usage_error(prog, "empty time filter: --from-ms " +
                          std::to_string(from_ms) + " is after --to-ms " +
                          std::to_string(to_ms));
  }

  std::ifstream is{file, std::ios::binary};
  if (!is) {
    std::fprintf(stderr, "lamsdlc_cli: cannot open %s\n", file.c_str());
    return 1;
  }
  obs::CaptureReader reader{is};

  std::uint64_t matched = 0, printed = 0;
  std::uint64_t by_kind[obs::kEventKindCount] = {};
  std::uint64_t by_source[obs::kSourceCount] = {};
  std::vector<obs::Event> bucketed;  // filtered records, timeline mode only
  Time first{}, last{};
  while (auto e = reader.next()) {
    if (kind && e->kind != *kind) continue;
    if (source && e->source != *source) continue;
    if (from_ms >= 0 && e->at.ms() < from_ms) continue;
    if (to_ms >= 0 && e->at.ms() >= to_ms) continue;
    if (matched == 0) first = e->at;
    last = e->at;
    ++matched;
    by_kind[static_cast<std::uint8_t>(e->kind)]++;
    by_source[static_cast<std::uint8_t>(e->source)]++;
    if (timeline) {
      bucketed.push_back(*e);
      continue;
    }
    if (summary || (limit != 0 && printed >= limit)) continue;
    ++printed;
    if (json) {
      std::printf("%s\n", obs::to_json(*e).c_str());
    } else {
      std::printf("%12.6f ms  %-13s %s\n", e->at.ms(),
                  obs::to_string(e->source), obs::describe(*e).c_str());
    }
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "lamsdlc_cli: %s: %s\n", file.c_str(),
                 reader.error().c_str());
    return 1;
  }
  if (timeline) {
    print_timeline(bucketed, bucket_ms);
    return 0;
  }
  if (summary) {
    std::printf("%s: version %u, %llu records, %llu matched\n", file.c_str(),
                reader.version(),
                static_cast<unsigned long long>(reader.read_count()),
                static_cast<unsigned long long>(matched));
    if (matched > 0) {
      std::printf("span: %.6f ms .. %.6f ms\n", first.ms(), last.ms());
      for (std::uint8_t k = 0; k < obs::kEventKindCount; ++k) {
        if (by_kind[k] == 0) continue;
        std::printf("  kind   %-21s %llu\n",
                    obs::to_string(static_cast<obs::EventKind>(k)),
                    static_cast<unsigned long long>(by_kind[k]));
      }
      for (std::uint8_t s = 0; s < obs::kSourceCount; ++s) {
        if (by_source[s] == 0) continue;
        std::printf("  source %-21s %llu\n",
                    obs::to_string(static_cast<obs::Source>(s)),
                    static_cast<unsigned long long>(by_source[s]));
      }
    }
  } else if (limit != 0 && matched > printed) {
    std::printf("... %llu more matching records (--limit %llu)\n",
                static_cast<unsigned long long>(matched - printed),
                static_cast<unsigned long long>(limit));
  }
  return 0;
}

int run_trace_command(int argc, char** argv) {
  sim::ChaosKnobs knobs;
  std::string file, perfetto_out, explain_arg;
  std::optional<std::uint64_t> explain_id;
  bool dump = false;
  bool live_flags = false;
  bool corrupt_state = false;
  std::uint32_t corrupt_injections = 0;
  const char* prog = "lamsdlc_cli trace";
  Flags live = chaos_flags(knobs) + Flags{
      sample_flag(knobs.sample_period),
      set("--corrupt-state", "live run uses the state-corruption tier",
          corrupt_state, true),
      num("--injections", "N", "pin the corrupt-state injections [0 = draw]",
          corrupt_injections, 0),
  };
  for (Flag& f : live) f = also(std::move(f), [&] { live_flags = true; });
  const Flags rows{
      text("--perfetto", "FILE", "write Chrome trace-event JSON",
           perfetto_out),
      {"--explain", "ID|worst", "print one packet's causal story",
       [&](const char* v) {
         explain_arg = v;
         explain_id = parse_number<std::uint64_t>(v);
         return explain_id || explain_arg == "worst";
       },
       "a packet id or worst"},
      set("--dump", "print the canonical reconstruction dump", dump, true),
  };
  parse_flags(argc, argv, 2, prog, "[FILE | live chaos flags] [flags]",
              live + rows, &file);
  if (!file.empty() && live_flags) {
    usage_error(prog,
                "trace takes a capture file OR live chaos flags, not both");
  }

  obs::TraceBuilder tb;
  if (!file.empty()) {
    std::ifstream is{file, std::ios::binary};
    if (!is) {
      std::fprintf(stderr, "lamsdlc_cli: cannot open %s\n", file.c_str());
      return 1;
    }
    obs::CaptureReader reader{is};
    while (auto e = reader.next()) tb.on_event(*e);
    if (!reader.ok()) {
      std::fprintf(stderr, "lamsdlc_cli: %s: %s\n", file.c_str(),
                   reader.error().c_str());
      return 1;
    }
  } else if (corrupt_state) {
    // Live state-corruption run: the trace shows the corruption instants,
    // the self-audit trips and each RESYNC episode as a recovery span.
    verif::CorruptKnobs ck;
    ck.seed = knobs.seed;
    ck.packets = knobs.packets;
    ck.injections = corrupt_injections;
    ck.tap = [&tb](sim::Scenario& s) {
      s.events().subscribe(tb.subscriber());
    };
    const verif::CorruptVerdict v = verif::run_corrupt(ck);
    std::printf("%s", v.to_string().c_str());
  } else {
    knobs.tap = [&tb](sim::Scenario& s) {
      s.events().subscribe(tb.subscriber());
    };
    const sim::ChaosVerdict v = sim::run_chaos(knobs);
    std::printf("%s", v.to_string().c_str());
  }

  const obs::TraceSummary sum = tb.summarize();
  std::printf(
      "trace: %zu packets, %zu complete, %zu delivered, %zu released, "
      "%llu attempts (max %u per packet)\n",
      sum.packets, sum.complete, sum.delivered, sum.released,
      static_cast<unsigned long long>(sum.attempts), sum.max_attempts);
  if (sum.resync_requeues > 0) {
    std::printf("trace: %llu attempt chains restarted by RESYNC requeues\n",
                static_cast<unsigned long long>(sum.resync_requeues));
  }
  if (sum.broken_chains > 0 || sum.orphan_events > 0 ||
      sum.extra_deliveries > 0) {
    std::printf("trace: ANOMALIES: %zu broken chains, %llu orphan events, "
                "%llu duplicate deliveries\n",
                sum.broken_chains,
                static_cast<unsigned long long>(sum.orphan_events),
                static_cast<unsigned long long>(sum.extra_deliveries));
  }

  obs::Registry reg;
  tb.fold_latency(reg);
  if (reg.counter_value("trace.packets_complete") > 0) {
    std::printf("latency attribution over %llu complete packets:\n",
                static_cast<unsigned long long>(
                    reg.counter_value("trace.packets_complete")));
    std::printf("  %-34s %10s %10s %10s %10s\n", "component (ms)", "mean",
                "p50", "p99", "max");
    for (const auto& [name, h] : reg.histograms()) {
      std::printf("  %-34s %10.3f %10.3f %10.3f %10.3f\n", name.c_str(),
                  h.mean(), h.p50(), h.p99(), h.max());
    }
  }

  if (dump) std::printf("%s", tb.dump().c_str());

  if (!perfetto_out.empty()) {
    std::ofstream os{perfetto_out, std::ios::trunc};
    if (!os) {
      std::fprintf(stderr, "lamsdlc_cli: cannot open %s for writing\n",
                   perfetto_out.c_str());
      return 1;
    }
    obs::write_perfetto(os, tb);
    os.flush();
    if (!os) {
      std::fprintf(stderr, "lamsdlc_cli: write error on %s\n",
                   perfetto_out.c_str());
      return 1;
    }
    std::printf("perfetto trace -> %s (load in ui.perfetto.dev)\n",
                perfetto_out.c_str());
  }

  if (!explain_arg.empty()) {
    const obs::PacketTrace* t = explain_id ? tb.find(*explain_id) : tb.worst();
    if (t == nullptr) {
      std::fprintf(stderr, "lamsdlc_cli: no trace for packet '%s'\n",
                   explain_arg.c_str());
      return 1;
    }
    std::printf("%s", obs::explain(*t).c_str());
  }

  // Acceptance gate: every packet that reached the client must have a fully
  // stitched span tree — a delivered-but-unstitchable packet is a trace bug.
  std::size_t incomplete_delivered = 0;
  for (const auto& [id, t] : tb.packets()) {
    if (t.delivered && !t.complete()) ++incomplete_delivered;
  }
  if (incomplete_delivered > 0) {
    std::fprintf(stderr,
                 "lamsdlc_cli: %zu delivered packets lack a complete span "
                 "tree\n",
                 incomplete_delivered);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `connect` — bridge client (modem discipline: stream, half-close, status).

/// Parses a daemon client's `--host`, its required `--port`, and \p rows.
void parse_client(int argc, char** argv, const char* prog,
                  const char* synopsis, std::string& host, std::uint16_t& port,
                  const Flags& rows) {
  const Flags endpoint{
      text("--host", "HOST", "daemon address [127.0.0.1]", host),
      num("--port", "N", "daemon TCP port (required)", port, 1, 65535),
  };
  parse_flags(argc, argv, 2, prog, synopsis, endpoint + rows);
  if (port == 0) usage_error(prog, "--port is required");
}

int run_connect_command(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string in_path;
  parse_client(argc, argv, "lamsdlc_cli connect",
               "--port N [flags]\nStreams stdin (or FILE) to a daemon's "
               "bridge, half-closes, and waits for\nthe OK/ERR status line.  "
               "Exits 0 iff OK.",
               host, port,
               {text("--in", "FILE", "bytes to send [stdin]", in_path)});

  std::FILE* in = stdin;
  if (!in_path.empty()) {
    in = std::fopen(in_path.c_str(), "rb");
    if (in == nullptr) {
      std::fprintf(stderr, "lamsdlc_cli: cannot open %s\n", in_path.c_str());
      return 1;
    }
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("lamsdlc_cli: socket");
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "lamsdlc_cli: bad bridge host %s\n", host.c_str());
    ::close(fd);
    return 1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    std::perror("lamsdlc_cli: connect");
    ::close(fd);
    return 1;
  }
  signal(SIGPIPE, SIG_IGN);

  char buf[16384];
  std::uint64_t sent = 0;
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, in);
    if (n == 0) break;
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::send(fd, buf + off, n - off, 0);
      if (w <= 0) {
        std::fprintf(stderr, "lamsdlc_cli: bridge write failed\n");
        ::close(fd);
        return 1;
      }
      off += static_cast<std::size_t>(w);
      sent += static_cast<std::uint64_t>(w);
    }
  }
  if (in != stdin) std::fclose(in);
  ::shutdown(fd, SHUT_WR);  // "that's all" — now wait for the verdict

  std::string status;
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) break;
    status.append(buf, static_cast<std::size_t>(r));
    if (status.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  if (const auto nl = status.find('\n'); nl != std::string::npos) {
    status.resize(nl);
  }
  if (status.empty()) {
    std::fprintf(stderr, "lamsdlc_cli: bridge closed without a status line "
                 "(%llu bytes sent)\n",
                 static_cast<unsigned long long>(sent));
    return 1;
  }
  std::printf("%s\n", status.c_str());
  return status.rfind("OK", 0) == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// `status` / `watch` — clients of the daemon's introspection port.

/// One request/response exchange with a status port: send \p verb, read to
/// EOF (the daemon answers one line-delimited request per connection and
/// closes).  Empty optional on connect/transport failure.
std::optional<std::string> fetch_status(const std::string& host,
                                        std::uint16_t port,
                                        const std::string& verb) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  const std::string req = verb + "\n";
  if (::send(fd, req.data(), req.size(), 0) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return std::nullopt;
  }
  std::string out;
  char buf[16384];
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return out;
}

int run_status_command(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string verb = "status";
  const Flags rows{
      set("--pretty", "server-rendered table instead of JSON", verb, "text"),
      set("--metrics", "Prometheus exposition instead of JSON", verb,
          "metrics"),
  };
  parse_client(argc, argv, "lamsdlc_cli status",
               "--port N [flags]\nOne-shot snapshot of a live daemon's "
               "introspection port (lamsdlcd --status).\nDefault output is "
               "one JSON line.",
               host, port, rows);
  const auto resp = fetch_status(host, port, verb);
  if (!resp.has_value()) {
    std::fprintf(stderr, "lamsdlc_cli: cannot reach status port %s:%u\n",
                 host.c_str(), port);
    return 1;
  }
  std::fwrite(resp->data(), 1, resp->size(), stdout);
  return 0;
}

/// Pull a string / number / bool field out of one of our own sampler-event
/// JSON lines.  Not a JSON parser — it only needs to read what
/// `obs::to_json` writes (flat object, known key set).
std::optional<std::string> json_field(const std::string& line,
                                      const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto at = line.find(pat);
  if (at == std::string::npos) return std::nullopt;
  std::size_t v = at + pat.size();
  if (v >= line.size()) return std::nullopt;
  if (line[v] == '"') {
    const auto end = line.find('"', v + 1);
    if (end == std::string::npos) return std::nullopt;
    return line.substr(v + 1, end - v - 1);
  }
  auto end = v;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(v, end - v);
}

int run_watch_command(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  long interval_ms = 1000;
  long count = 0;
  const Flags rows{
      num("--interval-ms", "MS", "fetch cadence [1000]", interval_ms, 1),
      num("--count", "N", "stop after N reports [0 = never]", count, 0),
  };
  parse_client(argc, argv, "lamsdlc_cli watch",
               "--port N [flags]\nFetches the daemon's latest sampler tick "
               "each interval and prints counter\nrates (computed "
               "client-side) and gauge levels.",
               host, port, rows);

  // name -> value at the previous *sampler* tick; rates divide by sampler
  // tick spacing (t_ps delta), not our fetch interval — the two cadences
  // are independent and only the former is exact.
  std::map<std::string, double> prev;
  double prev_t_s = -1.0;
  for (long n = 0; count == 0 || n < count;) {
    const auto resp = fetch_status(host, port, "samples");
    if (!resp.has_value()) {
      std::fprintf(stderr, "lamsdlc_cli: cannot reach status port %s:%u\n",
                   host.c_str(), port);
      return 1;
    }
    double t_s = -1.0;
    std::map<std::string, std::pair<double, bool>> tick;  // name -> (v, ctr)
    std::size_t start = 0;
    while (start < resp->size()) {
      auto end = resp->find('\n', start);
      if (end == std::string::npos) end = resp->size();
      const std::string line = resp->substr(start, end - start);
      start = end + 1;
      const auto name = json_field(line, "name");
      const auto value = json_field(line, "value");
      const auto t_ps = json_field(line, "t_ps");
      if (!name || !value || !t_ps) continue;
      t_s = parse_number<double>(*t_ps).value_or(0.0) * 1e-12;
      const bool is_counter =
          json_field(line, "is_counter").value_or("false") == "true";
      tick[*name] = {parse_number<double>(*value).value_or(0.0), is_counter};
    }
    if (t_s < 0) {
      std::printf("-- no samples yet (sampler warming up or disabled)\n");
      std::fflush(stdout);
    } else if (t_s != prev_t_s) {  // a fresh tick, not a re-read
      std::printf("-- t=%.1fs (%zu metrics)\n", t_s, tick.size());
      for (const auto& [name, vc] : tick) {
        const auto& [v, is_counter] = vc;
        if (!is_counter) {
          std::printf("   %-44s %14.3f\n", name.c_str(), v);
          continue;
        }
        const auto p = prev.find(name);
        if (p == prev.end() || prev_t_s < 0) {
          std::printf("   %-44s %14.0f\n", name.c_str(), v);
        } else {
          const double d = v - p->second;
          if (d == 0) continue;  // quiet metrics stay off the screen
          std::printf("   %-44s %14.0f  +%.0f (%.1f/s)\n", name.c_str(), v,
                      d, d / (t_s - prev_t_s));
        }
      }
      std::fflush(stdout);
      for (const auto& [name, vc] : tick) prev[name] = vc.first;
      prev_t_s = t_s;
      ++n;
      if (count != 0 && n >= count) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `network`: Walker-constellation multi-hop run via sim::run_network.  The
// printed report and both artifact files are byte-identical at every
// --partitions value — the PDES identity contract; scripts/ci.sh holds the
// CLI to it with cmp.
int run_network_command(int argc, char** argv) {
  sim::NetworkRunConfig cfg;
  std::string metrics_out;
  std::string capture_out;
  double range_km = 0;
  const auto observe = [&cfg] { cfg.observe = true; };
  const char* prog = "lamsdlc_cli network";
  const Flags rows{
      num("--sats", "N", "Walker total satellites [112]", cfg.satellites, 1),
      num("--planes", "P", "Walker planes, dividing --sats [8]", cfg.planes, 1),
      num("--partitions", "K", "PDES partitions, 1 = serial [1]",
          cfg.partitions, 1),
      num("--waves", "W", "traffic bursts [20]", cfg.waves, 1),
      num("--packets-per-wave", "N", "packets per burst [100]",
          cfg.packets_per_wave, 1),
      num("--packet-bytes", "B", "packet size [1024]", cfg.packet_bytes, 1),
      num("--message-segments", "S", "one S-segment message per wave [0]",
          cfg.message_segments, 0),
      duration("--wave-interval-ms", "MS", "time between bursts [1000]",
               cfg.wave_interval, 1e-3),
      duration("--horizon-s", "S", "simulation horizon [600]", cfg.horizon,
               1.0),
      also(num("--max-range-km", "KM", "ISL range, smaller => churn [8000]",
               range_km, 0.0),
           [&] { cfg.max_range_m = range_km * 1e3; }),
      num("--seed", "S", "random seed [1]", cfg.seed, 0),
      num("--pf", "P", "I-frame error probability [0]", cfg.p_frame, 0.0, 1.0),
      num("--pc", "P", "control error probability [0]", cfg.p_control, 0.0,
          1.0),
      set("--observe", "collect metrics + capture artifacts", cfg.observe,
          true),
      also(sample_flag(cfg.sample_period), observe),
      also(text("--metrics-out", "FILE", "metrics JSON file", metrics_out),
           observe),
      also(text("--capture-out", "FILE", ".ldlcap capture file", capture_out),
           observe),
  };
  parse_flags(argc, argv, 2, prog, "[flags]  (the last three imply --observe)",
              rows);
  if (cfg.satellites % cfg.planes != 0) {
    usage_error(prog, "--sats must be a multiple of --planes");
  }

  const sim::NetworkRunResult r = sim::run_network(cfg);

  std::printf("nodes/links/contacts: %zu / %zu / %llu\n", r.nodes, r.links,
              static_cast<unsigned long long>(r.contacts));
  std::printf("partitions:           %zu\n", cfg.partitions);
  std::printf("completed:            %s\n", r.completed ? "yes" : "NO");
  std::printf("sent/delivered/dup:   %llu / %llu / %llu\n",
              static_cast<unsigned long long>(r.report.packets_sent),
              static_cast<unsigned long long>(r.report.packets_delivered),
              static_cast<unsigned long long>(r.report.duplicate_deliveries));
  std::printf("forwarded/parked:     %llu / %llu\n",
              static_cast<unsigned long long>(r.report.packets_forwarded),
              static_cast<unsigned long long>(r.report.packets_parked));
  std::printf("messages completed:   %llu\n",
              static_cast<unsigned long long>(r.report.messages_completed));
  std::printf("mean/max delay:       %.6f / %.6f s\n", r.report.mean_delay_s,
              r.report.max_delay_s);
  if (cfg.observe) {
    std::printf("events:               %llu\n",
                static_cast<unsigned long long>(r.events));
  }
  std::fprintf(stderr, "lamsdlc_cli: network run took %.3f s wall\n",
               r.elapsed_s);

  if (!metrics_out.empty()) {
    std::ofstream f{metrics_out, std::ios::binary | std::ios::trunc};
    f << r.metrics_json;
    if (!f) {
      std::fprintf(stderr, "lamsdlc_cli: cannot write %s\n",
                   metrics_out.c_str());
      return 1;
    }
  }
  if (!capture_out.empty()) {
    std::ofstream f{capture_out, std::ios::binary | std::ios::trunc};
    f.write(r.capture.data(),
            static_cast<std::streamsize>(r.capture.size()));
    if (!f) {
      std::fprintf(stderr, "lamsdlc_cli: cannot write %s\n",
                   capture_out.c_str());
      return 1;
    }
  }
  return r.completed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    const std::string cmd = argv[1];
    if (cmd == "chaos") return run_chaos_command(argc, argv);
    if (cmd == "verify") return run_verify_command(argc, argv);
    if (cmd == "capture") return run_capture_command(argc, argv);
    if (cmd == "inspect") return run_inspect_command(argc, argv);
    if (cmd == "trace") return run_trace_command(argc, argv);
    if (cmd == "serve") {
      return lamsdlc::tools::run_daemon_main(argc, argv, 2,
                                             "lamsdlc_cli serve");
    }
    if (cmd == "connect") return run_connect_command(argc, argv);
    if (cmd == "status") return run_status_command(argc, argv);
    if (cmd == "watch") return run_watch_command(argc, argv);
    if (cmd == "network") return run_network_command(argc, argv);
    if (is_help(cmd) || cmd == "help") {
      print_help();
      return 0;
    }
    if (!cmd.empty() && cmd[0] != '-') {
      // A bare word that is not a subcommand must not fall through into the
      // scenario flag parser — it would be silently ignored there.
      std::fprintf(stderr, "lamsdlc_cli: unknown subcommand '%s'\n",
                   cmd.c_str());
      print_subcommands(stderr);
      return 2;
    }
  }
  Options o = parse(argc, argv);

  sim::Scenario s{o.cfg};
  workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(),
                         o.frames, o.cfg.frame_bytes);
  const bool done = s.run_to_completion(o.horizon);
  const auto r = s.report();

  if (o.csv) {
    if (o.csv_header) {
      std::printf(
          "protocol,frames,pf,pc,completed,delivered,lost,duplicates,"
          "efficiency,tx_per_frame,mean_delay_s,mean_holding_s,"
          "mean_send_buffer,peak_send_buffer,control_tx\n");
    }
    std::printf("%s,%llu,%g,%g,%d,%llu,%llu,%llu,%.6f,%.4f,%.6f,%.6f,%.1f,"
                "%.1f,%llu\n",
                protocol_name(o.cfg.protocol),
                static_cast<unsigned long long>(o.frames),
                o.cfg.forward_error.p_frame, o.cfg.forward_error.p_control,
                done ? 1 : 0,
                static_cast<unsigned long long>(r.unique_delivered),
                static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.duplicates), r.efficiency,
                r.tx_per_frame, r.mean_delay_s, r.mean_holding_s,
                r.mean_send_buffer, r.peak_send_buffer,
                static_cast<unsigned long long>(r.control_tx));
  } else {
    std::printf("protocol:             %s\n", protocol_name(o.cfg.protocol));
    std::printf("completed:            %s\n", done ? "yes" : "NO");
    std::printf("delivered/lost/dup:   %llu / %llu / %llu\n",
                static_cast<unsigned long long>(r.unique_delivered),
                static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.duplicates));
    std::printf("efficiency:           %.4f\n", r.efficiency);
    std::printf("tx per frame:         %.4f\n", r.tx_per_frame);
    std::printf("mean delay:           %.3f ms\n", 1e3 * r.mean_delay_s);
    std::printf("mean holding time:    %.3f ms\n", 1e3 * r.mean_holding_s);
    std::printf("send buffer mean/peak:%.1f / %.1f frames\n",
                r.mean_send_buffer, r.peak_send_buffer);
  }

  if (o.analysis) {
    const auto p = s.analysis_params();
    const double n = static_cast<double>(o.frames);
    std::printf("\nSection 4 closed forms at this operating point:\n");
    std::printf("  s_bar lams/hdlc:    %.4f / %.4f\n",
                analysis::s_bar_lams(p), analysis::s_bar_hdlc(p));
    std::printf("  H_frame:            %.3f ms\n",
                1e3 * analysis::h_frame_lams(p));
    std::printf("  B_LAMS:             %.1f frames\n", analysis::b_lams(p));
    std::printf("  efficiency lams:    %.4f\n", analysis::efficiency_lams(p, n));
    std::printf("  efficiency hdlc:    %.4f\n", analysis::efficiency_hdlc(p, n));
  }
  return done ? 0 : 1;
}
