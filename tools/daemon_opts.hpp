#pragma once
/// \file daemon_opts.hpp
/// \brief Flag table + run loop shared by `lamsdlcd` and
///        `lamsdlc_cli serve` — one daemon, two front doors.
///
/// `lamsdlcd --help` lists every flag with its default.  On startup the
/// daemon prints one machine-readable line per bound socket (`udp <port>` /
/// `bridge <port>` / `status <port>`) and `ready`, then serves until killed
/// or --exit-after-streams is met; exit status 0 iff no stream failed.

#include <csignal>
#include <cstdio>
#include <string>

#include "flags.hpp"
#include "lamsdlc/rt/daemon.hpp"

namespace lamsdlc::tools {

inline rt::Daemon* g_daemon = nullptr;

inline void daemon_signal_handler(int) {
  if (g_daemon != nullptr) g_daemon->stop();
}

/// Parse `HOST:PORT` with a port in [1, 65535].
inline bool split_host_port(const std::string& s, std::string& host,
                            std::uint16_t& port) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  const auto p = parse_number<std::uint16_t>(s.substr(colon + 1));
  if (!p || *p == 0) return false;
  host = s.substr(0, colon);
  port = *p;
  return true;
}

/// A `--bridge [PORT]` row: turns \p on, and takes the next argument as the
/// port (0 = ephemeral) only when it is one.
inline Flag optional_port(const char* name, const char* help, bool& on,
                          std::uint16_t& port) {
  return {name, "PORT", help,
          [&on, &port](const char* v) {
            if (v != nullptr) {
              const auto p = parse_number<std::uint16_t>(v);
              if (!p) return false;
              port = *p;
            }
            on = true;
            return true;
          },
          "a port in [0, 65535]", /*optional=*/true};
}

inline Flags daemon_flags(rt::DaemonConfig& c) {
  phy::FaultInjector::Config& f = c.fault;
  return {
      text("--bind", "HOST", "UDP bind address [127.0.0.1]", c.bind_host),
      num("--port", "N", "UDP port, 0 = ephemeral [0]", c.udp_port, 0),
      {"--peer", "HOST:PORT", "remote daemon for outbound streams",
       [&c](const char* v) {
         return split_host_port(v, c.peer_host, c.peer_port);
       },
       "HOST:PORT with a port in [1, 65535]"},
      set("--self-peer", "peer with our own socket (one-process live mode)",
          c.self_peer, true),
      optional_port("--bridge", "local TCP client bridge [off]", c.bridge,
                    c.bridge_port),
      text("--deliver-dir", "DIR", "write inbound streams here [discard]",
           c.deliver_dir),
      num("--session-base", "N", "first outbound session id [pid-based]",
          c.session_base, 0),
      num("--exit-after-streams", "N", "exit after N streams [0 = never]",
          c.exit_after_streams, 0),
      num("--rate", "BPS", "modeled data rate [300e6]", c.data_rate_bps,
          kAboveZero),
      duration("--max-one-way-ms", "MS", "one-way delay bound [5]",
               c.max_one_way, 1e-3),
      num("--chunk-bytes", "B", "stream segmentation [1024]", c.chunk_bytes, 1),
      duration("--icp-ms", "MS", "LAMS checkpoint interval [5]",
               c.session.lams.checkpoint_interval, 1e-3, true),
      set("--impair", "send datagrams through the fault injector", c.impair,
          true),
      num("--p-drop", "P", "drop probability [0]", f.p_drop, 0.0, 1.0),
      num("--p-duplicate", "P", "duplication probability [0]", f.p_duplicate,
          0.0, 1.0),
      num("--p-reorder", "P", "reorder probability [0]", f.p_reorder, 0.0, 1.0),
      num("--p-corrupt", "P", "corruption probability [0]", f.p_corrupt, 0.0,
          1.0),
      num("--p-truncate", "P", "truncation probability [0]", f.p_truncate, 0.0,
          1.0),
      duration("--max-jitter-us", "US", "reorder jitter bound [40]",
               f.max_jitter, 1e-6),
      num("--fault-seed", "S", "fault injector seed [1]", c.fault_seed, 0),
      text("--capture", "PREFIX", "one PREFIX-s<sid>.ldlcap per session [off]",
           c.capture_prefix),
      optional_port("--status", "TCP introspection port [off]", c.status,
                    c.status_port),
      duration("--status-sample-ms", "MS", "sampler period, 0 = off [500]",
               c.status_sample_period, 1e-3),
      text("--recorder-dir", "DIR", "flight-recorder dump directory [.]",
           c.recorder_dir),
      num("--recorder-events", "N", "flight-recorder ring, 0 = off [4096]",
          c.recorder_events, 0),
      set("--no-telemetry", "detach all per-session telemetry", c.telemetry,
          false),
      set("--verbose", "progress lines on stderr", c.verbose, true),
  };
}

/// The shared daemon entry point: parse, start, announce ports, serve.
/// `prog` prefixes messages ("lamsdlcd" / "lamsdlc_cli serve").
inline int run_daemon_main(int argc, char** argv, int first,
                           const char* prog) {
  rt::DaemonConfig cfg;
  parse_flags(argc, argv, first, prog,
              "[flags]\nRuns LAMS-DLC sessions over a real UDP socket; a "
              "PORT after --bridge or\n--status is optional, 0 or none "
              "picks an ephemeral port.",
              daemon_flags(cfg));
  if (cfg.self_peer && !cfg.peer_host.empty()) {
    usage_error(prog, "--self-peer and --peer are mutually exclusive");
  }
  try {
    rt::Daemon daemon{std::move(cfg)};
    daemon.start();
    g_daemon = &daemon;
    std::signal(SIGINT, daemon_signal_handler);
    std::signal(SIGTERM, daemon_signal_handler);
    std::signal(SIGPIPE, SIG_IGN);  // a dying bridge client must not kill us

    std::printf("udp %u\n", daemon.udp_port());
    if (daemon.bridge_port() != 0) {
      std::printf("bridge %u\n", daemon.bridge_port());
    }
    if (daemon.status_port() != 0) {
      std::printf("status %u\n", daemon.status_port());
    }
    std::printf("ready\n");
    std::fflush(stdout);

    daemon.run();
    g_daemon = nullptr;

    std::printf("done streams=%u failed=%u\n", daemon.streams_completed(),
                daemon.streams_failed());
    return daemon.streams_failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    return 1;
  }
}

}  // namespace lamsdlc::tools
