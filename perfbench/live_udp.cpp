/// \file live_udp.cpp
/// \brief `live_udp`: four streams through `rt::SessionMux` over two real
///        loopback UDP sockets on one `WallClock` thread.
///
/// Open loop: chunk i of stream s is due at start + phase_s + i * 81.92 us
/// (100 Mbps of 1 KiB chunks per stream, ~48.8k chunks/s in all) and is
/// written when due whether or not earlier chunks got through, so a stall
/// shows as latency instead of as a quieter generator.  Configuration is the
/// daemon's default: 300 Mbps pacing, a 256-packet stream buffer, and per
/// session a metrics collector plus a 4096-event flight recorder.
///
/// A chunk's latency runs from its due time until the receiving mux hands
/// its last byte up in order.  Every delivered byte is compared with the
/// seeded payload it was generated from.

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lamsdlc/core/random.hpp"
#include "lamsdlc/frame/envelope.hpp"
#include "lamsdlc/obs/collector.hpp"
#include "lamsdlc/obs/flight_recorder.hpp"
#include "lamsdlc/obs/metrics.hpp"
#include "lamsdlc/rt/event_loop.hpp"
#include "lamsdlc/rt/session_mux.hpp"
#include "lamsdlc/rt/transport.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lamsdlc;

namespace {

constexpr int kStreams = 4;
constexpr std::uint32_t kChunk = 1024;
constexpr std::int64_t kChunkIntervalPs = 81'920'000;  // 8192 bit at 100 Mbps
constexpr std::size_t kPoolBytes = 1u << 20;
// Set-up is timed kSetupRounds times, each after kSetupIdleNs asleep.  Back
// to back, the rounds all ran at whatever speed the process's vCPU had at
// that moment: medians of 25 such rounds spread 39% across ten runs.  After
// an idle gap each round starts cold, as each sim job's set-up does, and the
// median of 50 spread 4-9%.
constexpr int kSetupRounds = 50;
constexpr std::int64_t kSetupIdleNs = 20'000'000;
constexpr std::int64_t kWindowPs = 1'000'000'000'000;  // 1 s

/// Seeded payload: chunk i of stream s is a 1 KiB window of a 1 MiB random
/// pool at a seeded offset, so any chunk can be regenerated for comparison.
class Payload {
 public:
  explicit Payload(std::uint64_t seed) : seed_{seed}, pool_(kPoolBytes + kChunk) {
    RandomStream rng{seed, "perfbench.live.payload"};
    for (std::uint8_t& b : pool_) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
  }
  [[nodiscard]] std::span<const std::uint8_t> chunk(int stream,
                                                    std::uint64_t i) const {
    const std::size_t off =
        mix_seed(seed_ ^ (static_cast<std::uint64_t>(stream) << 56), i) % kPoolBytes;
    return {pool_.data() + off, kChunk};
  }

 private:
  std::uint64_t seed_;
  std::vector<std::uint8_t> pool_;
};

/// The envelope's packet id (data envelopes) or 0: the key that ties a
/// datagram's send and receive spans to the chunk it carries.
std::uint64_t envelope_key(std::span<const std::uint8_t> d) {
  constexpr std::size_t kIdAt = 10;  // magic, version, flags, session, length
  if (d.size() < kIdAt + 8 || (d[3] & frame::kEnvFlagData) == 0) return 0;
  std::uint64_t id = 0;
  for (int b = 7; b >= 0; --b) id = (id << 8) | d[kIdAt + static_cast<std::size_t>(b)];
  return id;
}

/// `rt::Transport` decorator timing `send` and the wrapped receive handler.
class TimedTransport final : public rt::Transport {
 public:
  TimedTransport(rt::Transport& under, Tracer& tr) : under_{under}, tr_{tr} {}

  bool send(rt::PeerId peer, std::span<const std::uint8_t> d) override {
    Span s{tr_, SpanName::kRtSend, envelope_key(d)};
    ++sent_;
    return under_.send(peer, d);
  }
  void set_recv_handler(RecvHandler h) override {
    under_.set_recv_handler(
        [this, h = std::move(h)](rt::PeerId peer, std::span<const std::uint8_t> d) {
          Span s{tr_, SpanName::kRtRecv, envelope_key(d)};
          h(peer, d);
        });
  }
  [[nodiscard]] std::size_t max_datagram() const noexcept override {
    return under_.max_datagram();
  }
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }

 private:
  rt::Transport& under_;
  Tracer& tr_;
  std::uint64_t sent_ = 0;
};

/// The daemon's default per-session telemetry for one mux: a metrics
/// collector into one shared registry plus a flight recorder, on one bus
/// per session.  With a tracer on, bracket subscribers registered first and
/// last on each bus time the collector and recorder as an `obs` span.
class Telemetry {
 public:
  Telemetry(bool attached, Tracer& tr) : attached_{attached}, tr_{tr} {}

  obs::EventBus* bus_for(std::uint32_t sid) {
    if (!attached_) return nullptr;
    auto it = sessions_.find(sid);
    if (it == sessions_.end()) {
      auto st = std::make_unique<Session>();
      if (tr_.enabled()) st->bus.subscribe([this](const obs::Event&) { tr_.open(SpanName::kObs); });
      st->collector = std::make_unique<obs::MetricsCollector>(st->bus, registry_);
      obs::FlightRecorder::Config rcfg;
      rcfg.capacity = 4096;  // the daemon's default ring; no dump files
      st->recorder = std::make_unique<obs::FlightRecorder>(rcfg);
      st->bus.subscribe(st->recorder->subscriber());
      if (tr_.enabled()) st->bus.subscribe([this](const obs::Event&) { tr_.close(); });
      it = sessions_.emplace(sid, std::move(st)).first;
    }
    return &it->second->bus;
  }
  [[nodiscard]] obs::Registry& registry() noexcept { return registry_; }
  [[nodiscard]] std::uint64_t events() const {
    std::uint64_t n = 0;
    for (const auto& [sid, st] : sessions_) n += st->bus.emitted();
    return n;
  }

 private:
  struct Session {
    obs::EventBus bus;
    std::unique_ptr<obs::MetricsCollector> collector;
    std::unique_ptr<obs::FlightRecorder> recorder;
  };
  bool attached_;
  Tracer& tr_;
  obs::Registry registry_;
  std::map<std::uint32_t, std::unique_ptr<Session>> sessions_;
};

struct Mode {
  bool wall = true;        ///< WallClock + UDP; false = SimClock + loopback.
  bool telemetry = true;   ///< Daemon-default per-session telemetry.
  bool instrument = false; ///< Transport decorator, lateness and held sampling.
};

/// One sender mux and one receiver mux with everything they hang off.
/// Members are declared in dependency order, so destruction runs muxes
/// first and the loop last.
struct Stack {
  std::unique_ptr<rt::EventLoop> loop;
  rt::WallClock* wall = nullptr;
  std::unique_ptr<rt::UdpTransport> udp_a, udp_b;
  std::unique_ptr<rt::LoopbackTransport> lo_a, lo_b;
  std::unique_ptr<TimedTransport> timed_a, timed_b;
  std::unique_ptr<Telemetry> tel_a, tel_b;
  std::unique_ptr<rt::SessionMux> mux_a, mux_b;
  rt::PeerId peer = 0;  ///< The receiver, as the sender's transport names it.
  std::int64_t bind_ns = 0;
};

std::uint32_t session_id(int s) { return 0x100u + static_cast<std::uint32_t>(s); }

std::unique_ptr<Stack> build_stack(const Mode& mode, Tracer& tr) {
  auto st = std::make_unique<Stack>();
  rt::Transport* wire_a = nullptr;
  rt::Transport* wire_b = nullptr;
  if (mode.wall) {
    auto wall = std::make_unique<rt::WallClock>();
    st->wall = wall.get();
    st->loop = std::move(wall);
    const std::int64_t t0 = wall_ns();
    {
      Span sp{tr, SpanName::kRtBind};
      st->udp_a = std::make_unique<rt::UdpTransport>(*st->loop, rt::UdpTransport::Config{});
      st->udp_b = std::make_unique<rt::UdpTransport>(*st->loop, rt::UdpTransport::Config{});
      st->peer = st->udp_a->add_peer("127.0.0.1", st->udp_b->local_port());
    }
    st->bind_ns = wall_ns() - t0;
    wire_a = st->udp_a.get();
    wire_b = st->udp_b.get();
  } else {
    st->loop = std::make_unique<rt::SimClock>();
    auto [a, b] = rt::LoopbackTransport::make_pair(*st->loop);
    st->lo_a = std::move(a);
    st->lo_b = std::move(b);
    wire_a = st->lo_a.get();
    wire_b = st->lo_b.get();
  }
  if (mode.instrument) {
    st->timed_a = std::make_unique<TimedTransport>(*wire_a, tr);
    st->timed_b = std::make_unique<TimedTransport>(*wire_b, tr);
    wire_a = st->timed_a.get();
    wire_b = st->timed_b.get();
  }
  Span sp{tr, SpanName::kRtMuxBuild};
  st->tel_a = std::make_unique<Telemetry>(mode.telemetry, tr);
  st->tel_b = std::make_unique<Telemetry>(mode.telemetry, tr);
  rt::SessionMux::Config mc;  // daemon defaults: 300 Mbps, 256-packet buffer
  mc.accept_inbound = false;
  mc.bus_for = [tel = st->tel_a.get()](std::uint32_t sid, bool) { return tel->bus_for(sid); };
  st->mux_a = std::make_unique<rt::SessionMux>(*st->loop, *wire_a, mc);
  mc.accept_inbound = true;
  mc.bus_for = [tel = st->tel_b.get()](std::uint32_t sid, bool) { return tel->bus_for(sid); };
  st->mux_b = std::make_unique<rt::SessionMux>(*st->loop, *wire_b, mc);
  return st;
}

/// Quantiles of one one-second window's samples.  Only these are kept, so
/// the benchmark's own records do not grow with the run and `peak_rss_mib`
/// stays the program's.
struct WindowQuantiles {
  std::size_t samples = 0;  ///< Chunks handed up in the window.
  double p50_ms = 0, p90_ms = 0, p99_ms = 0;  ///< Chunk latency.
  double late_p99_ms = 0;  ///< Generator lateness of the chunks written.
};

struct Leg {
  std::uint64_t written = 0;    ///< Chunks written (items attempted).
  std::uint64_t delivered = 0;  ///< Chunks handed up complete and in order.
  std::uint64_t mismatched = 0; ///< Chunks whose bytes differ from the payload.
  std::uint64_t backpressured = 0;  ///< Written while the stream was full.
  std::int64_t run_ns = 0;      ///< Generator start .. last chunk handed up.
  std::int64_t cpu_ns = 0;      ///< Process CPU over the run phase.
  std::vector<Slice> windows;   ///< One-second windows of the run phase.
  std::vector<WindowQuantiles> window_q;  ///< Their latency quantiles.
  std::vector<float> tick_late_us;
  std::vector<double> setup_s, bind_s;
  std::uint64_t datagrams = 0;
  std::uint64_t obs_events = 0;
  LinkCounts counts;  ///< Every stream, both muxes; no channel frames.
  std::uint64_t rejects = 0;
  std::size_t held_max = 0;
  double steal_pct = 0;

  /// Median over windows of the window's rate / CPU cost / quantile.
  [[nodiscard]] double items_per_s() const { return median_items_per_s(windows); }
  [[nodiscard]] double cpu_us_per_mib() const {
    return cpu_us_per_mib_quantile(windows, kChunk, 0.5);
  }
  [[nodiscard]] double median_of(double WindowQuantiles::*q) const {
    std::vector<double> v;
    for (const WindowQuantiles& w : window_q) {
      if (w.samples > 0) v.push_back(w.*q);
    }
    return median(v);
  }
  [[nodiscard]] double max_of(double WindowQuantiles::*q) const {
    double m = 0;
    for (const WindowQuantiles& w : window_q) m = std::max(m, w.*q);
    return m;
  }
  [[nodiscard]] std::size_t latency_samples() const {
    std::size_t n = 0;
    for (const WindowQuantiles& w : window_q) n += w.samples;
    return n;
  }
  /// Whole-run CPU per MiB (for legs compared with each other, not windowed).
  [[nodiscard]] double total_cpu_us_per_mib() const {
    const double mib = static_cast<double>(delivered) * kChunk / (1 << 20);
    return mib > 0 ? static_cast<double>(cpu_ns) * 1e-3 / mib : 0.0;
  }
};

/// Per-stream generator and receiver state.
struct StreamState {
  std::int64_t phase_ps = 0;
  std::uint64_t next = 0;      ///< Next chunk to write.
  std::uint64_t rx_bytes = 0;  ///< Bytes handed up so far.
  bool chunk_bad = false;      ///< Current inbound chunk already mismatched.
  bool closed = false;         ///< Sender reached kClosed.
  bool ended = false;          ///< Receiver saw CLOSE.
  rt::PeerId rx_peer = 0;
};

Leg run_leg(const Options& opt, const Mode& mode, const Payload& payload,
            Tracer& tr, Outcome& out) {
  Leg leg;
  const std::uint64_t limit = static_cast<std::uint64_t>(
      opt.seconds * 1e12 / static_cast<double>(kChunkIntervalPs));

  // Set-up, several times; the last stack runs.
  std::unique_ptr<Stack> st;
  for (int round = 0; round < kSetupRounds; ++round) {
    st.reset();
    idle(kSetupIdleNs);
    Span setup{tr, SpanName::kSetup};
    const std::int64_t t0 = wall_ns();
    st = build_stack(mode, tr);
    {
      Span sp{tr, SpanName::kRtOpen};
      for (int s = 0; s < kStreams; ++s) st->mux_a->open_stream(st->peer, session_id(s));
    }
    leg.setup_s.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
    leg.bind_s.push_back(static_cast<double>(st->bind_ns) * 1e-9);
  }

  rt::EventLoop& loop = *st->loop;
  rt::SessionMux& tx = *st->mux_a;
  rt::SessionMux& rx = *st->mux_b;
  const auto now_ps = [&]() -> std::int64_t {
    return st->wall != nullptr ? st->wall->wall_now().ps() : loop.sim().now().ps();
  };

  StreamState streams[kStreams];
  RandomStream phases{opt.seed, "perfbench.live.phase"};
  for (StreamState& s : streams) {
    s.phase_ps = phases.uniform_int(0, kChunkIntervalPs - 1);
  }
  std::int64_t start_ps = 0;
  std::int64_t last_delivery_ps = 0;
  // The current window's chunk latencies and generator lateness.
  std::vector<double> window_latency_ms, window_late_ms;
  window_latency_ms.reserve(2 * kWindowPs / kChunkIntervalPs * kStreams);
  window_late_ms.reserve(2 * kWindowPs / kChunkIntervalPs * kStreams);
  int finished = 0;
  bool timed_out = false;

  const auto due_ps = [&](int s, std::uint64_t i) {
    return start_ps + streams[s].phase_ps +
           static_cast<std::int64_t>(i) * kChunkIntervalPs;
  };
  const auto maybe_stop = [&] {
    if (finished == 2 * kStreams) loop.stop();
  };

  rx.set_inbound_data_handler(
      [&](rt::PeerId peer, std::uint32_t sid, std::span<const std::uint8_t> bytes) {
        Span sp{tr, SpanName::kBenchCheck};
        const int s = static_cast<int>(sid - session_id(0));
        if (s < 0 || s >= kStreams) {
          out.violate("live_udp: data for unknown session " + std::to_string(sid));
          return;
        }
        StreamState& ss = streams[s];
        ss.rx_peer = peer;
        while (!bytes.empty()) {
          const std::uint64_t c = ss.rx_bytes / kChunk;
          const std::size_t off = ss.rx_bytes % kChunk;
          const std::size_t n = std::min<std::size_t>(kChunk - off, bytes.size());
          if (std::memcmp(bytes.data(), payload.chunk(s, c).data() + off, n) != 0 &&
              !ss.chunk_bad) {
            ss.chunk_bad = true;
            ++leg.mismatched;
          }
          bytes = bytes.subspan(n);
          ss.rx_bytes += n;
          if (ss.rx_bytes % kChunk == 0) {
            const std::int64_t t = now_ps();
            window_latency_ms.push_back(static_cast<double>(t - due_ps(s, c)) * 1e-9);
            last_delivery_ps = t;
            ++leg.delivered;
            ss.chunk_bad = false;
          }
        }
      });
  rx.set_inbound_end_handler([&](rt::PeerId, std::uint32_t sid, bool clean) {
    const int s = static_cast<int>(sid - session_id(0));
    if (s < 0 || s >= kStreams || streams[s].ended) return;
    if (!clean) out.violate("live_udp: stream " + std::to_string(s) + " ended unclean");
    streams[s].ended = true;
    ++finished;
    maybe_stop();
  });
  tx.set_stream_state_handler([&](std::uint32_t sid, lams::SessionSender::State state) {
    const int s = static_cast<int>(sid - session_id(0));
    if (s < 0 || s >= kStreams) return;
    if (state == lams::SessionSender::State::kFailed) {
      out.violate("live_udp: stream " + std::to_string(s) + " failed");
    }
    if (state == lams::SessionSender::State::kClosed && !streams[s].closed) {
      streams[s].closed = true;
      ++finished;
      maybe_stop();
    }
  });

  obs::LogHistogram* lateness = nullptr;
  if (st->wall != nullptr && mode.telemetry) {
    lateness = &st->tel_a->registry().histogram("rt.loop.tick_lateness_us");
  }
  if (st->wall != nullptr && (lateness != nullptr || mode.instrument)) {
    st->wall->set_tick_observer([&leg, lateness, inst = mode.instrument](std::int64_t ns) {
      if (lateness != nullptr) lateness->observe(static_cast<double>(ns) / 1000.0);
      if (inst) leg.tick_late_us.push_back(static_cast<float>(ns) / 1000.0f);
    });
  }

  // The open-loop generator: one timer at the earliest due chunk, writing
  // every chunk that is due by the time it runs.
  std::function<void()> tick = [&] {
    Span gen{tr, SpanName::kBenchGenerate};
    const std::int64_t now = now_ps();
    std::int64_t next_due = INT64_MAX;
    for (int s = 0; s < kStreams; ++s) {
      StreamState& ss = streams[s];
      while (ss.next < limit && due_ps(s, ss.next) <= now) {
        const std::uint32_t sid = session_id(s);
        if (!tx.stream_accepting(sid)) ++leg.backpressured;
        window_late_ms.push_back(static_cast<double>(now - due_ps(s, ss.next)) * 1e-9);
        bool ok = false;
        {
          Span w{tr, SpanName::kRtWrite, (std::uint64_t{sid} << 32) | ss.next};
          ok = tx.stream_write(sid, payload.chunk(s, ss.next));
        }
        if (!ok) out.violate("live_udp: stream_write refused");
        ++ss.next;
        ++leg.written;
        if (ss.next == limit) tx.stream_close(sid);
      }
      if (ss.next < limit) next_due = std::min(next_due, due_ps(s, ss.next));
    }
    if (next_due != INT64_MAX) {
      loop.sim().schedule_at(Time::picoseconds(std::max(next_due, now)), [&] { tick(); });
    }
  };

  // Held-chunk sampling (instrumented legs): reassembly depth every 10 ms.
  std::function<void()> sample = [&] {
    for (const auto& in : rx.inbound_status()) leg.held_max = std::max(leg.held_max, in.held_packets);
    if (finished < 2 * kStreams) loop.sim().schedule_in(Time::milliseconds(10), [&] { sample(); });
  };

  // One-second windows over the generation phase.
  std::uint64_t window_items0 = 0;
  std::int64_t window_t0 = 0;
  std::int64_t window_c0 = 0;
  int window = 0;
  std::function<void()> close_window = [&] {
    const std::int64_t t = now_ps();
    const std::int64_t c = cpu_ns();
    leg.windows.push_back({leg.delivered - window_items0, (t - window_t0) / 1000,
                           c - window_c0});
    leg.window_q.push_back({window_latency_ms.size(), quantile(window_latency_ms, 0.5),
                            quantile(window_latency_ms, 0.9),
                            quantile(window_latency_ms, 0.99),
                            quantile(window_late_ms, 0.99)});
    window_latency_ms.clear();
    window_late_ms.clear();
    window_items0 = leg.delivered;
    window_t0 = t;
    window_c0 = cpu_ns();  // the quantiles above are the benchmark's work
    if (++window < static_cast<int>(opt.seconds)) {
      loop.sim().schedule_at(Time::picoseconds(start_ps + (window + 1) * kWindowPs),
                             [&] { close_window(); });
    }
  };

  Span run{tr, SpanName::kRun};
  const CpuJiffies j0 = read_cpu_jiffies();
  const std::int64_t c0 = cpu_ns();
  start_ps = now_ps();
  window_t0 = start_ps;
  window_c0 = c0;
  loop.sim().schedule_at(Time::picoseconds(start_ps + kWindowPs), [&] { close_window(); });
  loop.sim().schedule_at(Time::picoseconds(start_ps), [&] { tick(); });
  if (mode.instrument) loop.sim().schedule_at(Time::picoseconds(start_ps), [&] { sample(); });
  loop.sim().schedule_at(
      Time::picoseconds(start_ps) + Time::seconds(opt.seconds + 30.0), [&] {
        timed_out = true;
        loop.stop();
      });
  {
    Span sp{tr, mode.wall ? SpanName::kRtLoop : SpanName::kSimRun};
    loop.run();
  }
  leg.cpu_ns = cpu_ns() - c0;
  leg.steal_pct = steal_pct(j0, read_cpu_jiffies());
  leg.run_ns = (last_delivery_ps - start_ps) / 1000;
  if (st->wall != nullptr) st->wall->set_tick_observer(nullptr);

  if (timed_out) out.violate("live_udp: streams did not finish within the run");
  for (int s = 0; s < kStreams; ++s) {
    const StreamState& ss = streams[s];
    if (ss.rx_bytes != ss.next * kChunk) {
      out.violate("live_udp: stream " + std::to_string(s) + " delivered " +
                  std::to_string(ss.rx_bytes) + " of " +
                  std::to_string(ss.next * kChunk) + " bytes");
    }
    if (const sim::DlcStats* d = tx.stream_stats(session_id(s))) {
      leg.counts.iframe_tx += d->iframe_tx;
      leg.counts.iframe_retx += d->iframe_retx;
      leg.counts.control_tx += d->control_tx;
    }
    if (const sim::DlcStats* d = rx.inbound_stats(ss.rx_peer, session_id(s))) {
      leg.counts.control_tx += d->control_tx;
    }
  }
  if (leg.mismatched != 0) {
    out.violate("live_udp: " + std::to_string(leg.mismatched) +
                " chunks differ from the generated payload");
  }
  out.attempted += leg.written;
  out.failed += (leg.written - std::min(leg.written, leg.delivered)) + leg.mismatched;

  leg.counts.events = loop.sim().events_executed();
  leg.obs_events = st->tel_a->events() + st->tel_b->events();
  if (st->timed_a) leg.datagrams = st->timed_a->sent() + st->timed_b->sent();
  for (const rt::SessionMux* m : {&tx, &rx}) {
    leg.rejects += m->envelope_rejects().total() + m->frame_rejects().total();
  }
  st.reset();  // before the state its handlers capture goes away
  return leg;
}

}  // namespace

void run_live_udp(const Options& opt, Metrics& m, Outcome& out) {
  const Payload payload{opt.seed};
  Tracer off{false};
  const Leg leg = run_leg(opt, Mode{}, payload, off, out);

  if (!opt.trace) {
    EndToEnd e;
    e.items_per_s = leg.items_per_s();
    e.cpu_us_per_mib = leg.cpu_us_per_mib();
    e.latency_samples = leg.latency_samples();
    e.latency_p50_ms = leg.median_of(&WindowQuantiles::p50_ms);
    e.latency_p90_ms = leg.median_of(&WindowQuantiles::p90_ms);
    e.setup_s = median(leg.setup_s);
    set_end_to_end(m, e);
    std::printf("live_udp: %llu chunks written, %llu delivered, latency samples %zu "
                "in %zu windows (window p99 median %.4f max %.4f ms), busy %.3f, "
                "generator late p99 median %.3f max %.3f ms, backpressured writes "
                "%llu, retx %llu, steal %.2f%%\n",
                static_cast<unsigned long long>(leg.written),
                static_cast<unsigned long long>(leg.delivered), e.latency_samples,
                leg.windows.size(), leg.median_of(&WindowQuantiles::p99_ms),
                leg.max_of(&WindowQuantiles::p99_ms),
                static_cast<double>(leg.cpu_ns) / static_cast<double>(leg.run_ns),
                leg.median_of(&WindowQuantiles::late_p99_ms),
                leg.max_of(&WindowQuantiles::late_p99_ms),
                static_cast<unsigned long long>(leg.backpressured),
                static_cast<unsigned long long>(leg.counts.iframe_retx), leg.steal_pct);
    return;
  }

  Outcome scratch;  // reruns of already-counted streams do not count twice
  Tracer tr{true};
  Leg traced;
  {
    Span root{tr, SpanName::kRoot};
    traced = run_leg(opt, Mode{true, true, true}, payload, tr, scratch);
  }
  const Leg detached = run_leg(opt, Mode{true, false, false}, payload, off, scratch);
  const Leg simulated = run_leg(opt, Mode{false, true, false}, payload, off, scratch);
  for (const std::string& v : scratch.violations) out.violate(v);
  tr.save("live_udp");

  init_per_layer(m);
  const auto items = static_cast<double>(leg.delivered);
  const auto per = [](const Tracer& t, SpanName n) {
    const auto& tot = t.totals(n);
    return tot.count > 0 ? static_cast<double>(tot.self_ns) / static_cast<double>(tot.count)
                         : 0.0;
  };
  m.set("phy.crc16_ns_per_kib", crc16_ns_per_kib(kChunk), "ns/KiB");
  m.set("frame.codec_ns_per_frame", codec_ns_per_frame(kChunk, out), "ns");
  set_protocol_layers(m, leg.counts, leg.rejects, leg.delivered, leg.run_ns);
  m.set("obs.events_per_item", static_cast<double>(leg.obs_events) / items, "1/item");
  m.set("obs.ns_per_event",
        static_cast<double>(tr.totals(SpanName::kObs).total_ns) /
            static_cast<double>(std::max<std::uint64_t>(1, tr.totals(SpanName::kObs).count)),
        "ns");
  m.set("obs.cpu_share",
        1.0 - detached.total_cpu_us_per_mib() / leg.total_cpu_us_per_mib(), "share");
  m.set("rt.send_ns_per_datagram", per(tr, SpanName::kRtSend), "ns");
  m.set("rt.recv_ns_per_datagram", per(tr, SpanName::kRtRecv), "ns");
  m.set("rt.datagrams_per_item",
        static_cast<double>(traced.datagrams) / static_cast<double>(traced.delivered),
        "1/item");
  m.set("rt.write_ns_per_item", per(tr, SpanName::kRtWrite), "ns");
  std::vector<double> tick_late(traced.tick_late_us.begin(), traced.tick_late_us.end());
  m.set("rt.loop_lateness_p50_us", quantile(tick_late, 0.5), "us");
  m.set("rt.loop_lateness_p99_us", quantile(tick_late, 0.99), "us");
  m.set("rt.busy_ratio", static_cast<double>(leg.cpu_ns) / static_cast<double>(leg.run_ns),
        "share");
  m.set("rt.reassembly_held_max", static_cast<double>(traced.held_max), "count");
  m.set("rt.socket_loop_share",
        1.0 - simulated.total_cpu_us_per_mib() / leg.total_cpu_us_per_mib(), "share");
  m.set("rt.bind_s", median(leg.bind_s), "s");
  m.set("bench.generator_late_p99_ms", leg.median_of(&WindowQuantiles::late_p99_ms), "ms");
  m.set("host.steal_pct", leg.steal_pct, "%");
  set_trace_overhead(m, leg.items_per_s(), traced.items_per_s(), leg.cpu_us_per_mib(),
                     traced.cpu_us_per_mib());
  set_self_times(m, tr, out);
  std::printf("live_udp legs (cpu us/MiB): attached %.1f, traced %.1f, detached %.1f, "
              "simclock+loopback %.1f\n",
              leg.total_cpu_us_per_mib(), traced.total_cpu_us_per_mib(),
              detached.total_cpu_us_per_mib(), simulated.total_cpu_us_per_mib());
}

}  // namespace perfbench
