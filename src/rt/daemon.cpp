#include "lamsdlc/rt/daemon.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <system_error>
#include <vector>

#include "lamsdlc/obs/bus.hpp"
#include "lamsdlc/obs/capture.hpp"
#include "lamsdlc/obs/collector.hpp"
#include "lamsdlc/obs/expose.hpp"
#include "lamsdlc/obs/flight_recorder.hpp"
#include "lamsdlc/obs/sampler.hpp"

namespace lamsdlc::rt {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nonblock(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl < 0 || ::fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0) {
    throw_errno("fcntl O_NONBLOCK");
  }
}

}  // namespace

struct Daemon::Impl {
  DaemonConfig cfg;
  WallClock loop;

  std::unique_ptr<UdpTransport> udp;
  std::unique_ptr<phy::FaultInjector> injector;
  std::unique_ptr<ImpairedTransport> impaired;
  std::unique_ptr<SessionMux> mux;

  PeerId peer_id = 0;
  bool have_peer = false;

  // ------------------------------------------------------------- bridge --
  int listen_fd = -1;
  std::uint16_t bridge_port = 0;
  struct Client {
    int fd = -1;
    std::uint32_t sid = 0;
    std::uint64_t bytes_in = 0;
    bool eof = false;           ///< Client half-closed; stream is draining.
    bool paused = false;        ///< Unwatched, waiting for a stream resume.
    EventId resume_event = 0;   ///< Deferred re-watch after a resume signal.
  };
  std::map<int, Client> clients;          // by fd
  std::map<std::uint32_t, int> sid_to_fd; // stream -> client

  std::uint32_t next_sid = 0;

  // ----------------------------------------------------------- delivery --
  struct Delivery {
    std::ofstream file;
    std::string part_path;
    std::string final_base;  ///< Rename target without extension.
    std::uint64_t bytes = 0;
  };
  std::map<std::uint64_t, Delivery> deliveries;  // by rx_key(peer, sid)

  // ---------------------------------------------------------- telemetry --
  /// Shared aggregation surface: one registry, fed by one collector per
  /// session bus.  (Per-bus collectors, not one on a merged bus: a
  /// collector correlates checkpoint sequence numbers and resync tokens,
  /// which alias across sessions.)
  obs::Registry registry;

  /// Everything hanging off one session's event bus.
  struct SessionTelemetry {
    obs::EventBus bus;
    std::unique_ptr<obs::MetricsCollector> collector;
    std::unique_ptr<obs::FlightRecorder> recorder;
    std::ofstream cap_file;
    std::unique_ptr<obs::CaptureWriter> cap_writer;
  };
  std::map<std::uint32_t, std::unique_ptr<SessionTelemetry>> sessions;  // sid

  // ------------------------------------------------------------- status --
  int status_listen_fd = -1;
  std::uint16_t status_port = 0;
  struct StatusConn {
    std::string request;  ///< Partial request line.
    EventId deadline = 0; ///< Closes the connection if the line never ends.
  };
  std::map<int, StatusConn> status_conns;  ///< By fd.
  obs::EventBus sample_bus;                ///< Sampler ticks land here.
  std::vector<obs::Event> last_samples;    ///< The most recent tick, whole.
  std::unique_ptr<obs::Sampler> sampler;

  std::uint32_t completed = 0;
  std::uint32_t failed = 0;
  bool started = false;

  explicit Impl(DaemonConfig c) : cfg{std::move(c)} {}

  void log(const std::string& line) const {
    if (cfg.verbose) std::fprintf(stderr, "lamsdlcd: %s\n", line.c_str());
  }

  obs::EventBus* bus_for(std::uint32_t sid) {
    const bool want_capture = !cfg.capture_prefix.empty();
    if (!want_capture && !cfg.telemetry) return nullptr;
    auto it = sessions.find(sid);
    if (it == sessions.end()) {
      auto st = std::make_unique<SessionTelemetry>();
      if (cfg.telemetry) {
        st->collector =
            std::make_unique<obs::MetricsCollector>(st->bus, registry);
        if (cfg.recorder_events > 0) {
          obs::FlightRecorder::Config rcfg;
          rcfg.capacity = cfg.recorder_events;
          rcfg.dump_prefix =
              (cfg.recorder_dir.empty() ? std::string{}
                                        : cfg.recorder_dir + "/") +
              "blackbox-s" + std::to_string(sid);
          st->recorder = std::make_unique<obs::FlightRecorder>(rcfg);
          st->bus.subscribe(st->recorder->subscriber());
        }
      }
      if (want_capture) {
        const std::string path =
            cfg.capture_prefix + "-s" + std::to_string(sid) + ".ldlcap";
        st->cap_file.open(path, std::ios::binary | std::ios::trunc);
        if (st->cap_file) {
          st->cap_writer = std::make_unique<obs::CaptureWriter>(st->cap_file);
          obs::CaptureWriter* w = st->cap_writer.get();
          st->bus.subscribe([w](const obs::Event& e) { w->write(e); });
        } else {
          log("capture open failed: " + path);
        }
      }
      if (!st->bus.enabled()) return nullptr;  // nothing attached after all
      it = sessions.emplace(sid, std::move(st)).first;
    }
    return &it->second->bus;
  }

  void start() {
    UdpTransport::Config ucfg;
    ucfg.bind_host = cfg.bind_host;
    ucfg.bind_port = cfg.udp_port;
    ucfg.accept_unknown = true;
    udp = std::make_unique<UdpTransport>(loop, ucfg);

    Transport* wire = udp.get();
    if (cfg.impair) {
      injector = std::make_unique<phy::FaultInjector>(
          cfg.fault, RandomStream{cfg.fault_seed, "rt.fault"});
      impaired = std::make_unique<ImpairedTransport>(
          loop, *udp, *injector, RandomStream{cfg.fault_seed, "rt.damage"});
      wire = impaired.get();
    }

    SessionMux::Config mcfg;
    mcfg.session = cfg.session;
    mcfg.data_rate_bps = cfg.data_rate_bps;
    mcfg.max_one_way = cfg.max_one_way;
    mcfg.chunk_bytes = cfg.chunk_bytes;
    mcfg.stream_buffer_packets = cfg.stream_buffer_packets;
    mcfg.accept_inbound = true;
    mcfg.bus_for = [this](std::uint32_t sid, bool) { return bus_for(sid); };
    mux = std::make_unique<SessionMux>(loop, *wire, mcfg);

    mux->set_stream_state_handler(
        [this](std::uint32_t sid, lams::SessionSender::State s) {
          on_stream_state(sid, s);
        });
    mux->set_stream_resume_handler(
        [this](std::uint32_t sid) { on_stream_resume(sid); });
    mux->set_inbound_data_handler(
        [this](PeerId p, std::uint32_t sid,
               std::span<const std::uint8_t> bytes) {
          on_inbound_data(p, sid, bytes);
        });
    mux->set_inbound_end_handler(
        [this](PeerId p, std::uint32_t sid, bool clean) {
          on_inbound_end(p, sid, clean);
        });

    if (cfg.self_peer) {
      const std::string self_host =
          cfg.bind_host == "0.0.0.0" ? "127.0.0.1" : cfg.bind_host;
      peer_id = udp->add_peer(self_host, udp->local_port());
      have_peer = true;
    } else if (!cfg.peer_host.empty()) {
      peer_id = udp->add_peer(cfg.peer_host, cfg.peer_port);
      have_peer = true;
    }

    next_sid = cfg.session_base != 0
                   ? cfg.session_base
                   : (static_cast<std::uint32_t>(::getpid()) << 8) & 0x7FFFFF00;
    if (next_sid == 0) next_sid = 1;

    if (cfg.bridge) open_bridge(cfg.bridge_port);

    if (cfg.telemetry) {
      // Node stability makes the pointer safe for the registry's lifetime.
      obs::LogHistogram* lateness =
          &registry.histogram("rt.loop.tick_lateness_us");
      loop.set_tick_observer([lateness](std::int64_t late_ns) {
        lateness->observe(static_cast<double>(late_ns) / 1000.0);
      });
    }
    if (cfg.status) {
      open_status(cfg.status_port);
      if (cfg.status_sample_period.ps() > 0) {
        sample_bus.subscribe([this](const obs::Event& e) {
          if (!last_samples.empty() && !(last_samples.front().at == e.at)) {
            last_samples.clear();
          }
          last_samples.push_back(e);
        });
        sampler = std::make_unique<obs::Sampler>(
            loop.sim(), registry, sample_bus, cfg.status_sample_period);
        sampler->start();
      }
    }

    started = true;
    log("udp " + cfg.bind_host + ":" + std::to_string(udp->local_port()) +
        (have_peer ? " (peer wired)" : " (serve-only)"));
  }

  // ------------------------------------------------------------- bridge --

  void open_bridge(std::uint16_t port) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) throw_errno("bridge socket");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, cfg.bind_host.c_str(), &addr.sin_addr) != 1) {
      errno = EINVAL;
      throw_errno("bridge bind_host");
    }
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) < 0) {
      throw_errno("bridge bind");
    }
    if (::listen(listen_fd, 16) < 0) throw_errno("bridge listen");
    set_nonblock(listen_fd);
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    bridge_port = ntohs(bound.sin_port);
    loop.watch_fd(listen_fd, [this] { on_accept(); });
  }

  void on_accept() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return;
      }
      if (!have_peer) {
        static const char err[] = "ERR no-peer\n";
        (void)!::write(fd, err, sizeof err - 1);
        ::close(fd);
        continue;
      }
      set_nonblock(fd);
      Client c;
      c.fd = fd;
      c.sid = next_sid++;
      clients[fd] = c;
      sid_to_fd[c.sid] = fd;
      mux->open_stream(peer_id, c.sid);
      loop.watch_fd(fd, [this, fd] { on_client_readable(fd); });
      log("bridge client -> stream s" + std::to_string(c.sid));
    }
  }

  void on_client_readable(int fd) {
    const auto it = clients.find(fd);
    if (it == clients.end()) return;
    Client& c = it->second;
    std::uint8_t buf[16384];
    for (;;) {
      if (!mux->stream_accepting(c.sid)) {
        // Backpressure: stop consuming, let the DLC drain, try again soon.
        pause_client(c);
        return;
      }
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        // Connection damage: abandon the stream; the session will drain
        // what was accepted and close.
        c.eof = true;
        loop.unwatch_fd(fd);
        mux->stream_close(c.sid);
        return;
      }
      if (n == 0) {
        // Half-close: the client's byte stream is complete.
        c.eof = true;
        loop.unwatch_fd(fd);
        mux->stream_close(c.sid);
        log("stream s" + std::to_string(c.sid) + " eof after " +
            std::to_string(c.bytes_in) + " bytes");
        return;
      }
      c.bytes_in += static_cast<std::uint64_t>(n);
      mux->stream_write(c.sid, std::span<const std::uint8_t>{
                                   buf, static_cast<std::size_t>(n)});
    }
  }

  void pause_client(Client& c) {
    // Stop consuming the client socket entirely; the kernel's TCP window
    // backpressures the client.  No polling: the mux fires the stream
    // resume handler the moment the session accepts again.
    loop.unwatch_fd(c.fd);
    c.paused = true;
  }

  void on_stream_resume(std::uint32_t sid) {
    const auto sit = sid_to_fd.find(sid);
    if (sit == sid_to_fd.end()) return;
    const auto it = clients.find(sit->second);
    if (it == clients.end() || !it->second.paused || it->second.eof) return;
    // The signal can arrive from inside datagram processing — defer the
    // re-watch and the read loop to a fresh loop turn.
    const int fd = it->second.fd;
    loop.sim().cancel(it->second.resume_event);
    it->second.resume_event = loop.sim().schedule_in(Time{}, [this, fd] {
      const auto cit = clients.find(fd);
      if (cit == clients.end() || cit->second.eof) return;
      cit->second.resume_event = 0;
      if (!mux->stream_accepting(cit->second.sid)) return;  // filled again
      cit->second.paused = false;
      loop.watch_fd(fd, [this, fd] { on_client_readable(fd); });
      on_client_readable(fd);
    });
  }

  void finish_client(std::uint32_t sid, bool ok, const char* why) {
    const auto sit = sid_to_fd.find(sid);
    if (sit == sid_to_fd.end()) return;
    const int fd = sit->second;
    const auto cit = clients.find(fd);
    if (cit != clients.end()) {
      std::string line =
          ok ? "OK " + std::to_string(cit->second.bytes_in) + "\n"
             : std::string("ERR ") + why + "\n";
      (void)!::write(fd, line.data(), line.size());
      loop.unwatch_fd(fd);
      loop.sim().cancel(cit->second.resume_event);
      ::close(fd);
      clients.erase(cit);
    }
    sid_to_fd.erase(sit);
  }

  void on_stream_state(std::uint32_t sid, lams::SessionSender::State s) {
    using State = lams::SessionSender::State;
    if (s != State::kClosed && s != State::kFailed) return;
    const bool ok = s == State::kClosed;
    log("stream s" + std::to_string(sid) + (ok ? " closed" : " FAILED"));
    finish_client(sid, ok, "session-failed");
    ++completed;
    if (!ok) ++failed;
    // Retire the session's state outside the state callback (the sender is
    // mid-transition under our feet).
    loop.sim().schedule_in(Time{}, [this, sid] { mux->drop_stream(sid); });
    maybe_exit();
  }

  // ------------------------------------------------------------- status --
  //
  // Connection discipline: one request line in, one response out, close.
  // The listener is just another fd on the single-threaded loop, so a
  // snapshot runs between protocol events and can never observe torn
  // state.  A request line must arrive within kStatusIdle of the accept,
  // or the connection is closed.  Responses are written with the socket
  // flipped to blocking plus a send timeout of the same length — a stalled
  // scraper costs at most that, and cannot wedge the daemon with a
  // partial-write buffer to manage.

  static constexpr Time kStatusIdle = Time::seconds_int(1);

  void open_status(std::uint16_t port) {
    status_listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (status_listen_fd < 0) throw_errno("status socket");
    const int one = 1;
    ::setsockopt(status_listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, cfg.bind_host.c_str(), &addr.sin_addr) != 1) {
      errno = EINVAL;
      throw_errno("status bind_host");
    }
    if (::bind(status_listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) < 0) {
      throw_errno("status bind");
    }
    if (::listen(status_listen_fd, 16) < 0) throw_errno("status listen");
    set_nonblock(status_listen_fd);
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(status_listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    status_port = ntohs(bound.sin_port);
    loop.watch_fd(status_listen_fd, [this] { on_status_accept(); });
  }

  void on_status_accept() {
    for (;;) {
      const int fd = ::accept(status_listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;
      }
      set_nonblock(fd);
      // Fd handlers run before the kernel catches up with the wall, so the
      // deadline is set from the wall, not from sim().now().
      status_conns[fd].deadline = loop.sim().schedule_at(
          loop.wall_now() + kStatusIdle, [this, fd] { close_status(fd); });
      loop.watch_fd(fd, [this, fd] { on_status_readable(fd); });
    }
  }

  void close_status(int fd) {
    loop.unwatch_fd(fd);
    ::close(fd);
    const auto it = status_conns.find(fd);
    if (it == status_conns.end()) return;
    loop.sim().cancel(it->second.deadline);
    status_conns.erase(it);
  }

  void on_status_readable(int fd) {
    const auto it = status_conns.find(fd);
    if (it == status_conns.end()) return;
    char buf[512];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        close_status(fd);
        return;
      }
      if (n == 0) {
        close_status(fd);
        return;
      }
      std::string& request = it->second.request;
      request.append(buf, static_cast<std::size_t>(n));
      const auto nl = request.find('\n');
      if (nl != std::string::npos) {
        std::string cmd = request.substr(0, nl);
        if (!cmd.empty() && cmd.back() == '\r') cmd.pop_back();
        send_and_close(fd, status_respond(cmd));
        return;
      }
      if (request.size() > 256) {  // no verb is this long
        close_status(fd);
        return;
      }
    }
  }

  void send_and_close(int fd, const std::string& s) {
    const int fl = ::fcntl(fd, F_GETFL, 0);
    if (fl >= 0) ::fcntl(fd, F_SETFL, fl & ~O_NONBLOCK);
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(kStatusIdle.sec());
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    std::size_t off = 0;
    while (off < s.size()) {
      const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    close_status(fd);
  }

  std::string status_respond(const std::string& cmd) {
    if (cmd.empty() || cmd == "status") return status_json() + "\n";
    if (cmd == "metrics") {
      std::ostringstream os;
      obs::write_prometheus(os, registry);
      return os.str();
    }
    if (cmd == "samples") return samples_text();
    if (cmd == "text") return status_text();
    return "ERR unknown-command\n";
  }

  [[nodiscard]] static int count_fds() {
    DIR* d = ::opendir("/proc/self/fd");
    if (d == nullptr) return -1;
    int n = 0;
    while (const dirent* ent = ::readdir(d)) {
      if (ent->d_name[0] != '.') ++n;
    }
    ::closedir(d);
    return n - 1;  // minus the opendir fd itself
  }

  std::string status_json() {
    std::ostringstream os;
    os << std::setprecision(12);
    os << "{\"daemon\":{\"pid\":" << ::getpid() << ",\"uptime_s\":"
       << static_cast<double>(loop.wall_now().ps()) * 1e-12
       << ",\"fds\":" << count_fds()
       << ",\"udp_port\":" << (udp ? udp->local_port() : 0)
       << ",\"bridge_port\":" << bridge_port
       << ",\"status_port\":" << status_port
       << ",\"bridge_clients\":" << clients.size()
       << ",\"streams_completed\":" << completed
       << ",\"streams_failed\":" << failed << '}';

    os << ",\"loop\":{";
    if (const obs::LogHistogram* h =
            registry.find_histogram("rt.loop.tick_lateness_us")) {
      os << "\"ticks\":" << h->count() << ",\"lateness_us\":{\"p50\":"
         << h->p50() << ",\"p90\":" << h->p90() << ",\"p99\":" << h->p99()
         << ",\"max\":" << h->max() << '}';
    } else {
      os << "\"ticks\":0";
    }
    os << '}';

    const frame::EnvelopeRejectCounts& er = mux->envelope_rejects();
    const frame::DecodeRejectCounts& fr = mux->frame_rejects();
    os << ",\"mux\":{\"outbound\":" << mux->outbound_count()
       << ",\"inbound\":" << mux->inbound_count()
       << ",\"undecodable\":" << mux->undecodable()
       << ",\"unroutable\":" << mux->unroutable()
       << ",\"envelope_rejects\":{\"runt_header\":" << er.runt_header
       << ",\"bad_magic\":" << er.bad_magic
       << ",\"bad_version\":" << er.bad_version
       << ",\"reserved_flags\":" << er.reserved_flags
       << ",\"truncated_id\":" << er.truncated_id
       << ",\"length_mismatch\":" << er.length_mismatch
       << ",\"empty_payload\":" << er.empty_payload
       << ",\"total\":" << er.total()
       << "},\"frame_rejects\":{\"truncated\":" << fr.truncated
       << ",\"bad_fcs\":" << fr.bad_fcs
       << ",\"length_overrun\":" << fr.length_overrun
       << ",\"trailing_bytes\":" << fr.trailing_bytes
       << ",\"unknown_kind\":" << fr.unknown_kind
       << ",\"limits\":" << fr.limits << ",\"total\":" << fr.total()
       << "}}";

    os << ",\"sessions_out\":[";
    bool first = true;
    for (const SessionMux::OutboundStatus& s : mux->outbound_status()) {
      if (!first) os << ',';
      first = false;
      os << "{\"sid\":" << s.session_id << ",\"peer\":" << s.peer
         << ",\"state\":\"" << lams::to_string(s.state)
         << "\",\"epoch\":" << s.epoch
         << ",\"resync_attempts\":" << s.resync_attempts << ",\"mode\":\""
         << lams::to_string(s.mode)
         << "\",\"outstanding\":" << s.outstanding_frames
         << ",\"buffer\":" << s.buffer_depth
         << ",\"buffer_high_water\":" << s.buffer_high_water
         << ",\"rate_factor\":" << s.rate_factor
         << ",\"chunks\":" << s.next_chunk
         << ",\"submitted\":" << s.packets_submitted
         << ",\"resolved\":" << s.packets_resolved
         << ",\"iframe_tx\":" << s.iframe_tx
         << ",\"iframe_retx\":" << s.iframe_retx
         << ",\"control_tx\":" << s.control_tx
         << ",\"request_naks\":" << s.request_naks
         << ",\"audit_trips\":" << s.audit_trips
         << ",\"resyncs_completed\":" << s.resyncs_completed << '}';
    }
    os << "],\"sessions_in\":[";
    first = true;
    for (const SessionMux::InboundStatus& s : mux->inbound_status()) {
      if (!first) os << ',';
      first = false;
      os << "{\"peer\":" << s.peer << ",\"sid\":" << s.session_id
         << ",\"in_session\":" << (s.in_session ? "true" : "false")
         << ",\"ended\":" << (s.ended ? "true" : "false")
         << ",\"epoch\":" << s.epoch
         << ",\"inits_accepted\":" << s.inits_accepted
         << ",\"held\":" << s.held_packets
         << ",\"next_index\":" << s.next_index
         << ",\"delivered\":" << s.packets_delivered
         << ",\"duplicates\":" << s.duplicates
         << ",\"checkpoints_sent\":" << s.checkpoints_sent
         << ",\"naks_generated\":" << s.naks_generated
         << ",\"iframe_corrupted_rx\":" << s.iframe_corrupted_rx
         << ",\"control_corrupted_rx\":" << s.control_corrupted_rx << '}';
    }
    os << ']';

    std::uint64_t rec_recorded = 0;
    std::uint64_t rec_dumps = 0;
    std::uint64_t rec_suppressed = 0;
    std::size_t rec_rings = 0;
    std::string rec_last;
    for (const auto& [sid, st] : sessions) {
      if (!st->recorder) continue;
      ++rec_rings;
      rec_recorded += st->recorder->recorded();
      rec_dumps += st->recorder->dumps();
      rec_suppressed += st->recorder->suppressed_triggers();
      if (!st->recorder->last_dump_path().empty()) {
        rec_last = st->recorder->last_dump_path();
      }
    }
    os << ",\"recorder\":{\"rings\":" << rec_rings
       << ",\"recorded\":" << rec_recorded << ",\"dumps\":" << rec_dumps
       << ",\"suppressed\":" << rec_suppressed << ",\"last_dump\":\""
       << obs::json_escape(rec_last) << "\"}";

    os << ",\"registry\":";
    registry.write_json(os);
    os << '}';
    return os.str();
  }

  /// Server-rendered table for `lamsdlc_cli status --pretty` — the daemon
  /// already has every struct in hand; shipping text keeps the client dumb.
  std::string status_text() {
    std::ostringstream os;
    os << std::fixed << std::setprecision(1);
    os << "lamsdlcd pid " << ::getpid() << "  uptime "
       << static_cast<double>(loop.wall_now().ps()) * 1e-12 << "s  udp "
       << (udp ? udp->local_port() : 0) << "  bridge " << bridge_port
       << "  status " << status_port << '\n';
    os << "streams: " << mux->outbound_count() << " out, "
       << mux->inbound_count() << " in, " << completed << " finished ("
       << failed << " failed), " << clients.size() << " bridge client(s)\n";
    os << "mux: undecodable " << mux->undecodable() << " (envelope "
       << mux->envelope_rejects().total() << ", frame "
       << mux->frame_rejects().total() << "), unroutable "
       << mux->unroutable() << '\n';
    if (const obs::LogHistogram* h =
            registry.find_histogram("rt.loop.tick_lateness_us")) {
      os << "loop: " << h->count() << " ticks, lateness p50 " << h->p50()
         << "us p99 " << h->p99() << "us max " << h->max() << "us\n";
    }
    for (const SessionMux::OutboundStatus& s : mux->outbound_status()) {
      os << "out s" << s.session_id << " -> p" << s.peer << "  "
         << lams::to_string(s.state) << " e" << s.epoch << "  mode "
         << lams::to_string(s.mode) << "  win " << s.outstanding_frames
         << "  buf " << s.buffer_depth << " (hw " << s.buffer_high_water
         << ")  tx " << s.iframe_tx << " (+" << s.iframe_retx
         << " retx)  naks " << s.request_naks << "  resyncs "
         << s.resyncs_completed << '\n';
    }
    for (const SessionMux::InboundStatus& s : mux->inbound_status()) {
      os << "in  p" << s.peer << " s" << s.session_id << "  "
         << (s.ended ? "ended" : s.in_session ? "in-session" : "opening")
         << " e" << s.epoch << "  delivered " << s.packets_delivered << " (+"
         << s.duplicates << " dup)  held " << s.held_packets << "  cp "
         << s.checkpoints_sent << "  naks " << s.naks_generated << '\n';
    }
    return os.str();
  }

  /// The latest sampler tick as line-delimited event JSON.  `watch` diffs
  /// two fetches client-side to print rates.
  std::string samples_text() {
    std::string out;
    for (const obs::Event& e : last_samples) {
      out += obs::to_json(e);
      out += '\n';
    }
    return out;
  }

  // ----------------------------------------------------------- delivery --

  void on_inbound_data(PeerId peer, std::uint32_t sid,
                       std::span<const std::uint8_t> bytes) {
    if (cfg.deliver_dir.empty()) return;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(peer) << 32) | sid;
    auto it = deliveries.find(key);
    if (it == deliveries.end()) {
      Delivery d;
      d.final_base = cfg.deliver_dir + "/stream-p" + std::to_string(peer) +
                     "-s" + std::to_string(sid);
      d.part_path = d.final_base + ".part";
      d.file.open(d.part_path, std::ios::binary | std::ios::trunc);
      if (!d.file) log("deliver open failed: " + d.part_path);
      it = deliveries.emplace(key, std::move(d)).first;
    }
    it->second.file.write(reinterpret_cast<const char*>(bytes.data()),
                          static_cast<std::streamsize>(bytes.size()));
    it->second.bytes += bytes.size();
  }

  void on_inbound_end(PeerId peer, std::uint32_t sid, bool clean) {
    log("inbound s" + std::to_string(sid) +
        (clean ? " complete" : " INCOMPLETE"));
    if (!cfg.deliver_dir.empty()) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(peer) << 32) | sid;
      const auto it = deliveries.find(key);
      if (it != deliveries.end()) {
        it->second.file.close();
        // Rename-on-complete: consumers never observe a torn file.
        const std::string target =
            it->second.final_base + (clean ? ".bin" : ".err");
        if (std::rename(it->second.part_path.c_str(), target.c_str()) != 0) {
          log("rename failed: " + target);
        }
        deliveries.erase(it);
      }
    }
    ++completed;
    if (!clean) ++failed;
    maybe_exit();
  }

  void maybe_exit() {
    if (cfg.exit_after_streams != 0 && completed >= cfg.exit_after_streams) {
      log("exit-after-streams reached");
      // Let in-flight CLOSE-ACK retransmissions settle before tearing the
      // loop down, so the peer also ends clean.
      loop.sim().schedule_in(Time::milliseconds(50), [this] { loop.stop(); });
    }
  }

  void shutdown() {
    for (auto& [fd, c] : clients) {
      loop.unwatch_fd(fd);
      ::close(fd);
    }
    clients.clear();
    sid_to_fd.clear();
    if (listen_fd >= 0) {
      loop.unwatch_fd(listen_fd);
      ::close(listen_fd);
      listen_fd = -1;
    }
    while (!status_conns.empty()) close_status(status_conns.begin()->first);
    if (status_listen_fd >= 0) {
      loop.unwatch_fd(status_listen_fd);
      ::close(status_listen_fd);
      status_listen_fd = -1;
    }
    for (auto& [sid, st] : sessions) {
      if (st->cap_writer) st->cap_file.flush();
    }
  }
};

Daemon::Daemon(DaemonConfig cfg) : impl_{std::make_unique<Impl>(std::move(cfg))} {}

Daemon::~Daemon() {
  if (impl_) impl_->shutdown();
}

void Daemon::start() { impl_->start(); }

void Daemon::run() {
  impl_->loop.run();
  // Captures must be complete on disk the moment run() returns — callers
  // (tests, the smoke script) read them before the daemon is destroyed.
  for (auto& [sid, st] : impl_->sessions) {
    if (st->cap_writer) st->cap_file.flush();
  }
}

void Daemon::stop() { impl_->loop.stop(); }

std::uint16_t Daemon::udp_port() const noexcept {
  return impl_->udp ? impl_->udp->local_port() : 0;
}

std::uint16_t Daemon::bridge_port() const noexcept {
  return impl_->bridge_port;
}

std::uint16_t Daemon::status_port() const noexcept {
  return impl_->status_port;
}

const obs::Registry& Daemon::registry() const noexcept {
  return impl_->registry;
}

std::string Daemon::status_json() { return impl_->status_json(); }

std::uint32_t Daemon::streams_completed() const noexcept {
  return impl_->completed;
}

std::uint32_t Daemon::streams_failed() const noexcept {
  return impl_->failed;
}

SessionMux& Daemon::mux() { return *impl_->mux; }

EventLoop& Daemon::loop() { return impl_->loop; }

}  // namespace lamsdlc::rt
