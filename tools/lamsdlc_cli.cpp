/// \file lamsdlc_cli.cpp
/// \brief Command-line scenario driver.
///
/// Runs one protocol-over-link simulation from flags and prints either a
/// human-readable report or a CSV row (for sweeps driven by shell loops):
///
///   lamsdlc_cli --protocol lams --rate 300e6 --delay-ms 10 --pf 0.1
///       --frames 10000 --csv          (a single command line)
///
/// Flags (defaults in brackets):
///   --protocol lams|sr|gbn|nbdt   [lams]
///   --rate BPS               [100e6]     link data rate
///   --delay-ms MS            [5]         one-way propagation delay
///   --frame-bytes B          [1024]
///   --frames N               [1000]      batch size
///   --pf P                   [0]         I-frame error probability
///   --pc P                   [0]         control-frame error probability
///   --ber B                  [-]         use Bernoulli BER instead of pf/pc
///   --burst-ms MS            [-]         Gilbert-Elliott mean burst length
///   --icp-ms MS              [5]         LAMS checkpoint interval
///   --cdepth K               [4]         LAMS cumulation depth
///   --window W               [64]        HDLC window
///   --timeout-ms MS          [50]        HDLC t_out
///   --seed S                 [1]
///   --byte-level             [off]       serialize through the real codec
///   --horizon-s S            [600]
///   --csv                    emit one CSV row (header with --csv-header)
///   --analysis               also print the Section 4 closed forms
///
/// Subcommand `chaos`: replay seeded randomized fault schedules under the
/// protocol invariant checker and print the verdict plus fault counters:
///
///   lamsdlc_cli chaos --seed 42              (one run, full verdict)
///   lamsdlc_cli chaos --seed 1 --seeds 500   (soak: seeds 1..500)
///
/// Chaos flags:
///   --seed S                 [1]         first (or only) schedule seed
///   --seeds N                [1]         number of consecutive seeds to run
///   --jobs N                 [1]         worker threads for the sweep
///                            (0 = all cores; output is identical either way)
///   --packets N              [200]       workload size per run
///   --reverse-only           fault episodes attack only the checkpoint path
///   --forward-only           fault episodes attack only the I-frame path
///   --no-outage              never schedule a full link outage
///   --no-suppress-duplicates ablation: receiver delivers stale frames (the
///                            checker must then flag duplicate delivery)
///   --reverse-noise P        pin the reverse (checkpoint path) error rate
///                            instead of drawing it (feedback asymmetry)
///   --reverse-outage-from-ms MS / --reverse-outage-ms MS
///                            reverse-only outage window: checkpoints vanish
///                            while the forward channel stays up
///   --self-heal              enable the self-audit / watchdog / RESYNC layer
///                            in the chaos scenario config
///
/// Subcommand `verify`: property-based verification — seeded hostile
/// scenario generation cross-checked against the protocol invariants, the
/// SR/GBN differential oracle and the Section 4 closed forms, plus a
/// wire-level mutation fuzz of the frame codec.  Failing seeds auto-shrink
/// to a minimal configuration and print a `verify --repro` command line:
///
///   lamsdlc_cli verify --seeds 200            (sweep seeds 1..200 + fuzz)
///   lamsdlc_cli verify --repro --seed 17 --modulus 8 --cdepth 3 --packets 40
///
/// Verify flags:
///   --seed S                 [1]    first (or only) seed
///   --seeds N                [1]    number of consecutive seeds
///   --jobs N                 [1]    worker threads (0 = all cores)
///   --fuzz N                 [10000] codec fuzz iterations (0 disables)
///   --modulus M / --cdepth C / --packets P    pin drawn values (0 = draw)
///   --no-faults --no-congestion --no-outage --no-reverse --no-byte-level
///   --no-differential --no-analysis           drop scenario/oracle classes
///   --fault-scale X          [1.0]  scale fault windows (shrinker output)
///   --repro                  single seed: print the full transcript verbatim
///
/// `verify --corrupt-state`: the state-corruption chaos tier.  Instead of
/// attacking the wire, seeded injections mutate live endpoint state mid-run
/// (counters, slots, NAK history, cadence timers, anchors); the oracle is
/// the self-stabilization contract — converge to invariant-clean steady
/// state within the recovery budget, or tear down through the bounded-retry
/// RESYNC path.  Failing seeds shrink and print a repro line:
///
///   lamsdlc_cli verify --corrupt-state --seeds 250 --jobs 0
///   lamsdlc_cli verify --corrupt-state --seed 58 --no-self-heal --repro
///
/// Corrupt-state flags:
///   --seed S / --seeds N / --jobs N            as in verify
///   --packets N              [120]  workload size per run
///   --injections N           [0]    pin the injection count (0 = draw 1..4)
///   --no-sender / --no-receiver    restrict the corruption targets
///   --no-state-loss          never destroy an in-flight slot outright
///   --no-noise               no background wire noise
///   --no-self-heal           ablation: self-audit/watchdog/RESYNC layer OFF
///   --fault-scale X          [1.0]  warp-magnitude multiplier (shrinker)
///   --repro                  print one seed's transcript verbatim
///
/// Subcommand `capture`: run one chaos seed with every typed protocol event
/// recorded to an `.ldlcap` capture file (format: docs/OBSERVABILITY.md):
///
///   lamsdlc_cli capture --seed 42 --out run.ldlcap
///
/// Capture flags: the chaos flags above (single seed; no --seeds) plus
///   --out FILE               [chaos-seed-S.ldlcap]
///   --sample-ms MS           [off] periodic registry snapshots in the
///                            capture (kMetricSample records) at this cadence
///
/// Subcommand `inspect`: decode an `.ldlcap` file to text or JSON:
///
///   lamsdlc_cli inspect run.ldlcap --kind nak_generated --json
///   lamsdlc_cli inspect run.ldlcap --timeline --bucket-ms 10
///
/// Inspect flags:
///   --json                   one JSON object per record (default: text)
///   --summary                per-kind/per-source counts only
///   --timeline               time-bucketed rate/occupancy table instead of
///                            records (uses --bucket-ms)
///   --bucket-ms MS           [span/20, >=1] timeline bucket width
///   --kind NAME              keep only this event kind
///   --source NAME            keep only this source (e.g. lams.sender)
///   --from-ms MS / --to-ms MS  keep t in [from, to); from > to is rejected
///   --limit N                stop after printing N records
///
/// Subcommand `trace`: reconstruct per-packet lifecycle span trees
/// (admission -> sends/NAKs/renumbered retransmissions -> delivery ->
/// release) from an `.ldlcap` file, or live from one chaos seed, and report
/// latency attribution (docs/OBSERVABILITY.md describes the span model):
///
///   lamsdlc_cli trace run.ldlcap --perfetto run.json
///   lamsdlc_cli trace --seed 42 --explain worst
///
/// Trace flags: a positional capture file, or the chaos flags above (live
/// run, single seed) plus --sample-ms as in `capture`, and:
///   --corrupt-state          live run uses the state-corruption tier instead
///                            of wire chaos (--seed/--packets/--injections);
///                            RESYNC episodes render as recovery spans
///   --perfetto FILE          write Chrome trace-event JSON (ui.perfetto.dev)
///   --explain ID|worst       print one packet's full causal story
///   --dump                   print the canonical reconstruction dump
/// Exits 1 when any delivered packet lacks a complete span tree.
///
/// Subcommand `serve`: run the live transport daemon (identical to the
/// standalone `lamsdlcd` binary; flags documented in tools/daemon_opts.hpp):
///
///   lamsdlc_cli serve --self-peer --bridge --deliver-dir /tmp/out
///
/// Subcommand `connect`: push one byte stream through a daemon's client
/// bridge — stream stdin (or --in FILE) to the bridge socket, half-close,
/// and wait for the `OK <n>` / `ERR <why>` status line.  Exits 0 iff OK:
///
///   lamsdlc_cli connect --port 47101 < file.bin
///
/// Connect flags:
///   --host HOST              [127.0.0.1] bridge address
///   --port N                 bridge TCP port (required)
///   --in FILE                [stdin] bytes to send
///
/// Subcommand `status`: one-shot snapshot of a live daemon's introspection
/// port (`lamsdlcd --status`; schema in docs/OBSERVABILITY.md):
///
///   lamsdlc_cli status --port 47103            (one JSON line)
///   lamsdlc_cli status --port 47103 --pretty   (rendered table)
///   lamsdlc_cli status --port 47103 --metrics  (Prometheus exposition)
///
/// Status flags:
///   --host HOST              [127.0.0.1] status address
///   --port N                 status TCP port (required)
///   --pretty                 server-rendered table instead of JSON
///   --metrics                Prometheus text exposition instead of JSON
///
/// Subcommand `watch`: periodic sampled deltas from the same port — fetches
/// the daemon's latest `obs::Sampler` tick each interval and prints
/// client-side rates for counters (and levels for gauges):
///
///   lamsdlc_cli watch --port 47103 --interval-ms 1000
///
/// Watch flags:
///   --host HOST              [127.0.0.1] status address
///   --port N                 status TCP port (required)
///   --interval-ms MS         [1000] fetch cadence
///   --count N                [0] stop after N reports (0 = until killed)
///
/// `network --sample-ms MS` adds the same periodic registry sampling to a
/// constellation run's capture, so `inspect --timeline` works on PDES runs;
/// samples are synthesized on the canonical merged stream and stay
/// byte-identical at every --partitions value.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
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

struct Options {
  sim::ScenarioConfig cfg;
  std::uint64_t frames = 1000;
  double horizon_s = 600;
  bool csv = false;
  bool csv_header = false;
  bool analysis = false;
};

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
  std::printf(
      "\n"
      "Run `lamsdlc_cli <subcommand> --help` for that subcommand's flags;\n"
      "the header of tools/lamsdlc_cli.cpp documents every flag.\n");
}

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "lamsdlc_cli: %s (see the header of tools/lamsdlc_cli.cpp)\n",
               what.c_str());
  std::exit(2);
}

/// The value of the flag at argv[i], advancing \p i past it.
const char* need(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage_error(std::string("missing value for ") + argv[i]);
  return argv[++i];
}

Options parse(int argc, char** argv) {
  Options o;
  double pf = 0, pc = 0, ber = -1, burst_ms = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--protocol") {
      const std::string v = need(argc, argv, i);
      if (v == "lams") {
        o.cfg.protocol = sim::Protocol::kLams;
      } else if (v == "sr") {
        o.cfg.protocol = sim::Protocol::kSrHdlc;
      } else if (v == "gbn") {
        o.cfg.protocol = sim::Protocol::kGbnHdlc;
      } else if (v == "nbdt") {
        o.cfg.protocol = sim::Protocol::kNbdt;
      } else {
        usage_error("unknown protocol " + v);
      }
    } else if (a == "--rate") {
      o.cfg.data_rate_bps = std::atof(need(argc, argv, i));
    } else if (a == "--delay-ms") {
      o.cfg.prop_delay = Time::seconds(std::atof(need(argc, argv, i)) * 1e-3);
    } else if (a == "--frame-bytes") {
      o.cfg.frame_bytes =
          static_cast<std::uint32_t>(std::atoi(need(argc, argv, i)));
    } else if (a == "--frames") {
      o.frames = static_cast<std::uint64_t>(std::atoll(need(argc, argv, i)));
    } else if (a == "--pf") {
      pf = std::atof(need(argc, argv, i));
    } else if (a == "--pc") {
      pc = std::atof(need(argc, argv, i));
    } else if (a == "--ber") {
      ber = std::atof(need(argc, argv, i));
    } else if (a == "--burst-ms") {
      burst_ms = std::atof(need(argc, argv, i));
    } else if (a == "--icp-ms") {
      o.cfg.lams.checkpoint_interval =
          Time::seconds(std::atof(need(argc, argv, i)) * 1e-3);
    } else if (a == "--cdepth") {
      o.cfg.lams.cumulation_depth =
          static_cast<std::uint32_t>(std::atoi(need(argc, argv, i)));
    } else if (a == "--window") {
      o.cfg.hdlc.window =
          static_cast<std::uint32_t>(std::atoi(need(argc, argv, i)));
      o.cfg.hdlc.modulus = 4 * o.cfg.hdlc.window;
    } else if (a == "--timeout-ms") {
      o.cfg.hdlc.timeout = Time::seconds(std::atof(need(argc, argv, i)) * 1e-3);
    } else if (a == "--seed") {
      o.cfg.seed = static_cast<std::uint64_t>(std::atoll(need(argc, argv, i)));
    } else if (a == "--byte-level") {
      o.cfg.byte_level_wire = true;
    } else if (a == "--horizon-s") {
      o.horizon_s = std::atof(need(argc, argv, i));
    } else if (a == "--csv") {
      o.csv = true;
    } else if (a == "--csv-header") {
      o.csv = true;
      o.csv_header = true;
    } else if (a == "--analysis") {
      o.analysis = true;
    } else {
      usage_error("unknown flag " + a);
    }
  }
  if (ber >= 0) {
    o.cfg.forward_error.kind = sim::ErrorConfig::Kind::kBernoulliBer;
    o.cfg.forward_error.ber = ber;
    o.cfg.reverse_error = o.cfg.forward_error;
  } else if (burst_ms > 0) {
    o.cfg.forward_error.kind = sim::ErrorConfig::Kind::kGilbertElliott;
    o.cfg.forward_error.gilbert.mean_bad = Time::seconds(burst_ms * 1e-3);
    o.cfg.reverse_error = o.cfg.forward_error;
  } else if (pf > 0 || pc > 0) {
    o.cfg.forward_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
    o.cfg.forward_error.p_frame = pf;
    o.cfg.forward_error.p_control = pc;
    o.cfg.reverse_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
    o.cfg.reverse_error.p_frame = pc;
    o.cfg.reverse_error.p_control = pc;
  }
  // Keep the LAMS failure budget consistent with the configured delay.
  o.cfg.lams.max_rtt = o.cfg.prop_delay * 2 + Time::milliseconds(5);
  return o;
}

const char* protocol_name(sim::Protocol p) {
  switch (p) {
    case sim::Protocol::kLams:
      return "lams";
    case sim::Protocol::kSrHdlc:
      return "sr";
    case sim::Protocol::kGbnHdlc:
      return "gbn";
    case sim::Protocol::kNbdt:
      return "nbdt";
  }
  return "?";
}

/// Parse one chaos-style flag at argv[i]; shared between `chaos` and
/// `capture`.  Returns false when the flag is not a chaos knob.
bool parse_chaos_flag(int argc, char** argv, int& i, sim::ChaosKnobs& knobs) {
  const std::string a = argv[i];
  if (a == "--help" || a == "-h") {
    std::printf("flags for this subcommand: see the header of "
                "tools/lamsdlc_cli.cpp\n");
    std::exit(0);
  }
  if (a == "--seed") {
    knobs.seed = static_cast<std::uint64_t>(std::atoll(need(argc, argv, i)));
  } else if (a == "--packets") {
    knobs.packets = static_cast<std::uint64_t>(std::atoll(need(argc, argv, i)));
  } else if (a == "--reverse-only") {
    knobs.allow_forward_faults = false;
  } else if (a == "--forward-only") {
    knobs.allow_reverse_faults = false;
  } else if (a == "--no-outage") {
    knobs.allow_link_outage = false;
  } else if (a == "--no-suppress-duplicates") {
    knobs.suppress_duplicates = false;
  } else if (a == "--reverse-noise") {
    knobs.reverse_noise = std::atof(need(argc, argv, i));
  } else if (a == "--reverse-outage-from-ms") {
    knobs.reverse_outage_from =
        Time::seconds(std::atof(need(argc, argv, i)) * 1e-3);
  } else if (a == "--reverse-outage-ms") {
    knobs.reverse_outage_len =
        Time::seconds(std::atof(need(argc, argv, i)) * 1e-3);
  } else if (a == "--self-heal") {
    knobs.self_heal = true;
  } else {
    return false;
  }
  return true;
}

int run_chaos_command(int argc, char** argv) {
  sim::ChaosKnobs knobs;
  std::uint64_t seeds = 1;
  unsigned jobs = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (parse_chaos_flag(argc, argv, i, knobs)) continue;
    if (a == "--seeds") {
      seeds = static_cast<std::uint64_t>(std::atoll(need(argc, argv, i)));
    } else if (a == "--jobs") {
      // 0 = all cores
      jobs = static_cast<unsigned>(std::atoi(need(argc, argv, i)));
    } else {
      usage_error("unknown chaos flag " + a);
    }
  }

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
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt-state") continue;
    if (a == "--help" || a == "-h") {
      std::printf("flags for this subcommand: see the header of "
                  "tools/lamsdlc_cli.cpp\n");
      return 0;
    }
    if (a == "--seed") {
      knobs.seed = static_cast<std::uint64_t>(std::atoll(need(argc, argv, i)));
    } else if (a == "--seeds") {
      seeds = static_cast<std::uint64_t>(std::atoll(need(argc, argv, i)));
    } else if (a == "--jobs") {
      // 0 = all cores
      jobs = static_cast<unsigned>(std::atoi(need(argc, argv, i)));
    } else if (a == "--packets") {
      knobs.packets =
          static_cast<std::uint64_t>(std::atoll(need(argc, argv, i)));
    } else if (a == "--injections") {
      knobs.injections =
          static_cast<std::uint32_t>(std::atoi(need(argc, argv, i)));
    } else if (a == "--no-sender") {
      knobs.allow_sender = false;
    } else if (a == "--no-receiver") {
      knobs.allow_receiver = false;
    } else if (a == "--no-state-loss") {
      knobs.allow_state_loss = false;
    } else if (a == "--no-noise") {
      knobs.background_noise = false;
    } else if (a == "--no-self-heal") {
      knobs.self_heal = false;
    } else if (a == "--fault-scale") {
      knobs.scale = std::atof(need(argc, argv, i));
    } else if (a == "--repro") {
      repro = true;
    } else {
      usage_error("unknown verify --corrupt-state flag " + a);
    }
  }

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
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      std::printf("flags for this subcommand: see the header of "
                  "tools/lamsdlc_cli.cpp\n");
      return 0;
    }
    if (a == "--seed") {
      knobs.seed = static_cast<std::uint64_t>(std::atoll(need(argc, argv, i)));
    } else if (a == "--seeds") {
      seeds = static_cast<std::uint64_t>(std::atoll(need(argc, argv, i)));
    } else if (a == "--jobs") {
      // 0 = all cores
      jobs = static_cast<unsigned>(std::atoi(need(argc, argv, i)));
    } else if (a == "--fuzz") {
      fuzz_iters = static_cast<std::uint64_t>(std::atoll(need(argc, argv, i)));
    } else if (a == "--modulus") {
      knobs.modulus =
          static_cast<std::uint32_t>(std::atoi(need(argc, argv, i)));
    } else if (a == "--cdepth") {
      knobs.c_depth =
          static_cast<std::uint32_t>(std::atoi(need(argc, argv, i)));
    } else if (a == "--packets") {
      knobs.packets =
          static_cast<std::uint64_t>(std::atoll(need(argc, argv, i)));
    } else if (a == "--fault-scale") {
      knobs.fault_scale = std::atof(need(argc, argv, i));
    } else if (a == "--no-faults") {
      knobs.faults = false;
    } else if (a == "--no-congestion") {
      knobs.congestion = false;
    } else if (a == "--no-outage") {
      knobs.outage = false;
    } else if (a == "--no-reverse") {
      knobs.reverse_faults = false;
    } else if (a == "--no-byte-level") {
      knobs.byte_level = false;
    } else if (a == "--no-differential") {
      knobs.differential = false;
    } else if (a == "--no-analysis") {
      knobs.analysis_check = false;
    } else if (a == "--repro") {
      repro = true;
    } else {
      usage_error("unknown verify flag " + a);
    }
  }

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
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (parse_chaos_flag(argc, argv, i, knobs)) continue;
    if (a == "--out") {
      out = need(argc, argv, i);
    } else if (a == "--sample-ms") {
      knobs.sample_period =
          Time::seconds(std::atof(need(argc, argv, i)) * 1e-3);
    } else {
      usage_error("unknown capture flag " + a);
    }
  }
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
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      std::printf("flags for this subcommand: see the header of "
                  "tools/lamsdlc_cli.cpp\n");
      return 0;
    }
    if (a == "--json") {
      json = true;
    } else if (a == "--summary") {
      summary = true;
    } else if (a == "--timeline") {
      timeline = true;
    } else if (a == "--bucket-ms") {
      bucket_ms = std::atof(need(argc, argv, i));
      if (bucket_ms <= 0) usage_error("--bucket-ms must be positive");
    } else if (a == "--kind") {
      const std::string v = need(argc, argv, i);
      kind = obs::kind_from_string(v);
      if (!kind) usage_error("unknown event kind " + v);
    } else if (a == "--source") {
      const std::string v = need(argc, argv, i);
      source = obs::source_from_string(v);
      if (!source) usage_error("unknown source " + v);
    } else if (a == "--from-ms") {
      from_ms = std::atof(need(argc, argv, i));
    } else if (a == "--to-ms") {
      to_ms = std::atof(need(argc, argv, i));
    } else if (a == "--limit") {
      limit = static_cast<std::uint64_t>(std::atoll(need(argc, argv, i)));
    } else if (!a.empty() && a[0] != '-' && file.empty()) {
      file = a;
    } else {
      usage_error("unknown inspect flag " + a);
    }
  }
  if (file.empty()) usage_error("inspect needs a capture file argument");
  if (from_ms >= 0 && to_ms >= 0 && from_ms > to_ms) {
    usage_error("empty time filter: --from-ms " + std::to_string(from_ms) +
                " is after --to-ms " + std::to_string(to_ms));
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
  bool dump = false;
  bool live_flags = false;
  bool corrupt_state = false;
  std::uint32_t corrupt_injections = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (parse_chaos_flag(argc, argv, i, knobs)) {
      live_flags = true;
      continue;
    }
    if (a == "--corrupt-state") {
      corrupt_state = true;
      live_flags = true;
    } else if (a == "--injections") {
      corrupt_injections =
          static_cast<std::uint32_t>(std::atoi(need(argc, argv, i)));
      live_flags = true;
    } else if (a == "--sample-ms") {
      knobs.sample_period =
          Time::seconds(std::atof(need(argc, argv, i)) * 1e-3);
      live_flags = true;
    } else if (a == "--perfetto") {
      perfetto_out = need(argc, argv, i);
    } else if (a == "--explain") {
      explain_arg = need(argc, argv, i);
    } else if (a == "--dump") {
      dump = true;
    } else if (!a.empty() && a[0] != '-' && file.empty()) {
      file = a;
    } else {
      usage_error("unknown trace flag " + a);
    }
  }
  if (!file.empty() && live_flags) {
    usage_error("trace takes a capture file OR live chaos flags, not both");
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
    const obs::PacketTrace* t =
        explain_arg == "worst"
            ? tb.worst()
            : tb.find(static_cast<std::uint64_t>(std::atoll(explain_arg.c_str())));
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

int run_connect_command(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string in_path;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--host") {
      host = need(argc, argv, i);
    } else if (a == "--port") {
      port = static_cast<std::uint16_t>(std::atoi(need(argc, argv, i)));
    } else if (a == "--in") {
      in_path = need(argc, argv, i);
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: lamsdlc_cli connect --port N [--host HOST] [--in FILE]\n"
          "Streams stdin (or FILE) to a daemon's bridge, half-closes, and\n"
          "waits for the OK/ERR status line.  Exits 0 iff OK.\n");
      return 0;
    } else {
      usage_error("unknown connect flag " + a);
    }
  }
  if (port == 0) usage_error("connect wants --port");

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
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--host") {
      host = need(argc, argv, i);
    } else if (a == "--port") {
      port = static_cast<std::uint16_t>(std::atoi(need(argc, argv, i)));
    } else if (a == "--pretty") {
      verb = "text";
    } else if (a == "--metrics") {
      verb = "metrics";
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: lamsdlc_cli status --port N [--host HOST] "
          "[--pretty|--metrics]\n"
          "One-shot snapshot of a live daemon's introspection port\n"
          "(lamsdlcd --status).  Default output is one JSON line.\n");
      return 0;
    } else {
      usage_error("unknown status flag " + a);
    }
  }
  if (port == 0) usage_error("status wants --port");
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
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--host") {
      host = need(argc, argv, i);
    } else if (a == "--port") {
      port = static_cast<std::uint16_t>(std::atoi(need(argc, argv, i)));
    } else if (a == "--interval-ms") {
      interval_ms = std::atol(need(argc, argv, i));
      if (interval_ms <= 0) usage_error("--interval-ms must be positive");
    } else if (a == "--count") {
      count = std::atol(need(argc, argv, i));
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: lamsdlc_cli watch --port N [--host HOST] "
          "[--interval-ms MS] [--count N]\n"
          "Fetches the daemon's latest sampler tick each interval and prints\n"
          "counter rates (computed client-side) and gauge levels.\n");
      return 0;
    } else {
      usage_error("unknown watch flag " + a);
    }
  }
  if (port == 0) usage_error("watch wants --port");

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
      t_s = std::atof(t_ps->c_str()) * 1e-12;
      const bool is_counter =
          json_field(line, "is_counter").value_or("false") == "true";
      tick[*name] = {std::atof(value->c_str()), is_counter};
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
    ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `network`: Walker-constellation multi-hop run via sim::run_network.
//
//   lamsdlc_cli network --sats 112 --planes 8 --partitions 4
//       --waves 20 --packets-per-wave 100 --horizon-s 600 --seed 1
//
// Flags (defaults in brackets):
//   --sats N              [112]   Walker total satellites
//   --planes P            [8]     Walker planes (sats % planes == 0)
//   --partitions K        [1]     PDES logical processes (1 = serial)
//   --waves W             [20]    traffic bursts
//   --packets-per-wave N  [100]   packets per burst
//   --packet-bytes B      [1024]
//   --message-segments S  [0]     also inject one S-segment message per wave
//   --wave-interval-ms MS [1000]
//   --horizon-s S         [600]
//   --max-range-km KM     [8000]  ISL acquisition range (smaller => churn)
//   --seed S              [1]
//   --pf P                [0]     per-channel I-frame error probability
//   --pc P                [0]     per-channel control error probability
//   --observe             [off]   collect metrics + capture artifacts
//   --sample-ms MS        [off]   periodic registry samples in the capture,
//                                 synthesized on the canonical merged stream
//                                 (implies --observe; partition-invariant)
//   --metrics-out FILE    write the metrics registry JSON (implies --observe)
//   --capture-out FILE    write the raw .ldlcap bytes (implies --observe)
//
// The printed report and both artifact files are byte-identical at every
// --partitions value — the PDES identity contract; scripts/ci.sh holds the
// CLI to it with cmp.
int run_network_command(int argc, char** argv) {
  sim::NetworkRunConfig cfg;
  std::string metrics_out;
  std::string capture_out;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      std::printf("flags for this subcommand: see the header of "
                  "tools/lamsdlc_cli.cpp (run_network_command)\n");
      return 0;
    } else if (a == "--sats") {
      cfg.satellites =
          static_cast<std::uint32_t>(std::stoul(need(argc, argv, i)));
    } else if (a == "--planes") {
      cfg.planes = static_cast<std::uint32_t>(std::stoul(need(argc, argv, i)));
    } else if (a == "--partitions") {
      cfg.partitions = std::stoul(need(argc, argv, i));
    } else if (a == "--waves") {
      cfg.waves = static_cast<std::uint32_t>(std::stoul(need(argc, argv, i)));
    } else if (a == "--packets-per-wave") {
      cfg.packets_per_wave =
          static_cast<std::uint32_t>(std::stoul(need(argc, argv, i)));
    } else if (a == "--packet-bytes") {
      cfg.packet_bytes =
          static_cast<std::uint32_t>(std::stoul(need(argc, argv, i)));
    } else if (a == "--message-segments") {
      cfg.message_segments =
          static_cast<std::uint32_t>(std::stoul(need(argc, argv, i)));
    } else if (a == "--wave-interval-ms") {
      cfg.wave_interval = Time::milliseconds(std::stol(need(argc, argv, i)));
    } else if (a == "--horizon-s") {
      cfg.horizon = Time::seconds(std::stod(need(argc, argv, i)));
    } else if (a == "--max-range-km") {
      cfg.max_range_m = std::stod(need(argc, argv, i)) * 1e3;
    } else if (a == "--seed") {
      cfg.seed = std::stoull(need(argc, argv, i));
    } else if (a == "--pf") {
      cfg.p_frame = std::stod(need(argc, argv, i));
    } else if (a == "--pc") {
      cfg.p_control = std::stod(need(argc, argv, i));
    } else if (a == "--observe") {
      cfg.observe = true;
    } else if (a == "--sample-ms") {
      cfg.sample_period = Time::milliseconds(std::stol(need(argc, argv, i)));
      cfg.observe = true;
    } else if (a == "--metrics-out") {
      metrics_out = need(argc, argv, i);
      cfg.observe = true;
    } else if (a == "--capture-out") {
      capture_out = need(argc, argv, i);
      cfg.observe = true;
    } else {
      usage_error("unknown network flag " + a);
    }
  }
  if (cfg.satellites == 0 || cfg.planes == 0 ||
      cfg.satellites % cfg.planes != 0) {
    usage_error("--sats must be a positive multiple of --planes");
  }
  if (cfg.partitions == 0) usage_error("--partitions must be >= 1");

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
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
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
  const bool done = s.run_to_completion(Time::seconds(o.horizon_s));
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
