#pragma once
/// \file common.hpp
/// \brief Measurement plumbing shared by the three benchmark workloads:
///        clocks, quantiles, seed derivation, the span tracer and the
///        metric sink.
///
/// Everything here lives in the benchmark, outside the library: spans are
/// opened and closed around calls *into* the library's public functions, so
/// the library is measured exactly as it ships.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace perfbench {

// ----------------------------------------------------------------- clocks --

[[nodiscard]] inline std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + sys, every thread) in nanoseconds.
[[nodiscard]] inline std::int64_t cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time of the calling thread in nanoseconds.
[[nodiscard]] inline std::int64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Peak resident set of this process image, MiB.
[[nodiscard]] double peak_rss_mib();

/// Cumulative (steal, total) jiffies of the host from /proc/stat; zeros
/// when unreadable.
struct CpuJiffies {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuJiffies read_cpu_jiffies();
/// Steal share, in percent, of the host CPU time between two readings.
[[nodiscard]] double steal_pct(const CpuJiffies& a, const CpuJiffies& b);

/// Sleeps for \p ns.  The simulated workloads idle after each job for as
/// long as the job ran, so the measuring vCPU is busy half the time: on a
/// shared host a vCPU kept 100% busy ran the constellation 7-28% slower than
/// one busy half the time, by an amount that wandered from run to run.
inline void idle(std::int64_t ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

// ------------------------------------------------------------ statistics --

/// Exact quantile (linear interpolation between order statistics) of
/// \p v, which is reordered in place.  0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double>& v, double q);

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(v, 0.5);
}

/// One measured slice of a run phase: a job of a simulated workload, or a
/// one-second window of the live one.  End-to-end rates are quantiles over
/// slices, so a host stall that spoils a few slices does not move them.
struct Slice {
  std::uint64_t items = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;     ///< Process, every thread.
  std::int64_t thread_ns = 0;  ///< The protocol thread alone (sims).
};
[[nodiscard]] double median_items_per_s(const std::vector<Slice>& slices);
/// The \p q quantile of the slices' CPU cost, microseconds per MiB.
[[nodiscard]] double cpu_us_per_mib_quantile(const std::vector<Slice>& slices,
                                             double bytes_per_item, double q);

// ----------------------------------------------------------------- seeds --

/// SplitMix64 finaliser: derives independent, reproducible sub-seeds
/// (job k of seed s, stream i of seed s, ...).
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t a,
                                            std::uint64_t b = 0) noexcept {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a over 64-bit words: a digest of a run's protocol outcome counts,
/// compared across processes to show they repeat exactly for one seed.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// -------------------------------------------------------- simulated jobs --

/// Protocol outcome counts a simulated job shares with every other run of
/// it: summed over both directions of every link.
struct LinkCounts {
  std::uint64_t iframe_tx = 0;
  std::uint64_t iframe_retx = 0;
  std::uint64_t control_tx = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t events = 0;  ///< Kernel events executed.

  bool operator==(const LinkCounts&) const = default;
  LinkCounts& operator+=(const LinkCounts& o) noexcept {
    iframe_tx += o.iframe_tx;
    iframe_retx += o.iframe_retx;
    control_tx += o.control_tx;
    frames_sent += o.frames_sent;
    frames_corrupted += o.frames_corrupted;
    events += o.events;
    return *this;
  }
  void add_to(Digest& d) const noexcept {
    for (const std::uint64_t v : {iframe_tx, iframe_retx, control_tx,
                                  frames_sent, frames_corrupted, events}) {
      d.add(v);
    }
  }
};

/// The jobs of one leg of a simulated workload.  A job type carries `run`
/// (its run phase: items delivered, wall and CPU time), `setup_ns`,
/// `transfer_s` (simulated time from submitting a batch until its last item
/// is delivered) and a `counts` member comparable with `==`.
///
/// A job's rate is per second of the protocol thread's CPU time in its run
/// phase: that thread never waits, so this is the wall time less what the
/// hypervisor took.  On a shared 4-vCPU host that steal stretched single
/// link_8k jobs from 193 to 257 ms of wall time.  `cpu_us_per_mib` counts
/// every thread, so the two part when work moves onto other threads.
///
/// Rates and CPU cost are taken from the slow quartile of the jobs: the rate
/// three jobs in four reach, the CPU cost three in four stay under.  The
/// same constellation job took 442-771 ms from one second to the next, in
/// step with a 2 MiB pointer chase timed before each job (28-92 ms) while an
/// ALU loop timed alongside barely moved: the job slows when the host's
/// other tenants take the cache.  How many of a run's jobs were slowed
/// drifted from run to run, and the median job drifted with it; the slow
/// quartile, set by jobs that ran under contention, held steadier.
template <class Job>
struct JobLeg {
  std::vector<Job> jobs;
  std::uint64_t items = 0;
  std::int64_t run_ns = 0;  ///< Sum of the jobs' run phases (wall).
  double steal_pct = 0;

  [[nodiscard]] std::vector<Slice> slices() const {
    std::vector<Slice> v;
    for (const Job& j : jobs) v.push_back(j.run);
    return v;
  }
  [[nodiscard]] double items_per_s() const {
    std::vector<double> v;
    for (const Job& j : jobs) {
      if (j.run.thread_ns > 0) {
        v.push_back(static_cast<double>(j.run.items) * 1e9 /
                    static_cast<double>(j.run.thread_ns));
      }
    }
    return quantile(v, 0.25);
  }
  [[nodiscard]] double cpu_us_per_mib(double bytes_per_item) const {
    return cpu_us_per_mib_quantile(slices(), bytes_per_item, 0.75);
  }
  /// First job whose protocol outcome differs from the same job in \p o,
  /// or -1 when every job both legs ran agrees.
  [[nodiscard]] std::ptrdiff_t first_difference(const JobLeg& o) const {
    for (std::size_t k = 0; k < std::min(jobs.size(), o.jobs.size()); ++k) {
      if (!(jobs[k].counts == o.jobs[k].counts)) return static_cast<std::ptrdiff_t>(k);
    }
    return -1;
  }
};

/// Runs jobs k = 0, 1, ... until \p seconds of wall time have passed (or
/// exactly \p job_count jobs when nonzero), each followed by an idle gap as
/// long as its run phase.  `run_job(k)` runs job k; `check(k, job)` checks
/// its delivery and counts its failures.
template <class RunJob, class Check>
auto run_jobs(double seconds, std::uint64_t job_count, RunJob run_job, Check check) {
  JobLeg<std::invoke_result_t<RunJob&, std::uint64_t>> leg;
  const CpuJiffies j0 = read_cpu_jiffies();
  const std::int64_t deadline = wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t k = 0;
       job_count > 0 ? k < job_count : (k == 0 || wall_ns() < deadline); ++k) {
    auto j = run_job(k);
    check(k, j);
    leg.items += j.run.items;
    leg.run_ns += j.run.wall_ns;
    idle(j.run.wall_ns);
    leg.jobs.push_back(std::move(j));
  }
  leg.steal_pct = steal_pct(j0, read_cpu_jiffies());
  return leg;
}

// ----------------------------------------------------------------- spans --

/// Span names: one per boundary the benchmark's code crosses into a
/// library module, plus the benchmark's own work (`bench.*`).
enum class SpanName : std::uint8_t {
  kRoot,
  kSetup,
  kRun,
  kSimBuild,         ///< sim::Scenario constructor.
  kWorkloadSubmit,   ///< workload::submit_batch.
  kSimRun,           ///< Scenario::run_to_completion.
  kOrbitContactPlan, ///< orbit::contact_plan.
  kNetBuild,         ///< net::build_contact_network.
  kNetRoutes,        ///< Network::compute_routes.
  kNetSubmit,        ///< Scheduling the seeded waves (Network::at).
  kNetRun,           ///< Network::run_parallel_to_completion.
  kNetInject,        ///< One wave's Network::send_packet calls.
  kRtBind,           ///< rt::UdpTransport constructors (socket + bind).
  kRtMuxBuild,       ///< rt::SessionMux constructors + telemetry wiring.
  kRtOpen,           ///< SessionMux::open_stream.
  kRtLoop,           ///< WallClock::run (timers, pacing, socket reads).
  kRtWrite,          ///< SessionMux::stream_write.
  kRtSend,           ///< Transport::send (UDP sendto).
  kRtRecv,           ///< The mux's datagram handler.
  kObs,              ///< Collector + flight recorder on a session bus.
  kBenchGenerate,    ///< Open-loop generator bookkeeping.
  kBenchCheck,       ///< Payload comparison + latency recording.
  kCount
};

[[nodiscard]] const char* span_label(SpanName n) noexcept;

/// In-memory span recorder.  Spans nest strictly (one thread), so self
/// time — duration minus direct children — is settled when a span closes;
/// the self times of every span then add up to the root's duration by
/// construction, with the root's own self time being the part no named
/// boundary covers ("unattributed").  Raw spans are kept up to a cap for
/// the trace file written at the end of the run.
class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  struct Raw {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t key;
    std::int32_t parent;  ///< Index into raw spans, -1 for none / dropped.
    SpanName name;
  };

  explicit Tracer(bool enabled, std::size_t raw_cap = 200'000)
      : enabled_{enabled}, raw_cap_{raw_cap} {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void open(SpanName n, std::uint64_t key = 0) {
    if (!enabled_) return;
    const std::int64_t t = wall_ns();
    std::int32_t raw = -1;
    if (raw_.size() < raw_cap_) {
      raw = static_cast<std::int32_t>(raw_.size());
      raw_.push_back({t, 0, key, stack_.empty() ? -1 : stack_.back().raw, n});
    }
    stack_.push_back({n, t, 0, raw});
  }

  void close() {
    if (!enabled_) return;
    const std::int64_t t = wall_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = t - o.start_ns;
    Totals& tot = totals_[static_cast<std::size_t>(o.name)];
    ++tot.count;
    tot.total_ns += dur;
    tot.self_ns += dur - o.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (o.raw >= 0) raw_[static_cast<std::size_t>(o.raw)].end_ns = t;
  }

  [[nodiscard]] const Totals& totals(SpanName n) const noexcept {
    return totals_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] std::size_t depth() const noexcept { return stack_.size(); }
  [[nodiscard]] std::size_t raw_dropped() const noexcept {
    std::uint64_t all = 0;
    for (const Totals& t : totals_) all += t.count;
    return static_cast<std::size_t>(all) - raw_.size();
  }

  /// Writes the raw spans as Chrome trace-event JSON (loads in Perfetto /
  /// chrome://tracing) to `.bench_build/perfbench/trace-<workload>.json`
  /// under the working directory, and prints where they went.
  void save(const std::string& workload) const;

 private:
  struct Open {
    SpanName name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t raw;
  };
  bool enabled_;
  std::size_t raw_cap_;
  std::vector<Open> stack_;
  std::vector<Raw> raw_;
  Totals totals_[static_cast<std::size_t>(SpanName::kCount)]{};
};

/// RAII span; a no-op when the tracer is off.
class Span {
 public:
  Span(Tracer& t, SpanName n, std::uint64_t key = 0) : t_{t} { t_.open(n, key); }
  ~Span() { t_.close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

// --------------------------------------------------------------- metrics --

/// Named metrics in insertion order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      index_.emplace(name, rows_.size());
      rows_.push_back({name, value, unit});
    } else {
      rows_[it->second] = {name, value, unit};
    }
  }
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }

 private:
  std::vector<Row> rows_;
  std::map<std::string, std::size_t> index_;
};

/// What one invocation reports besides its metrics.
struct Outcome {
  std::uint64_t attempted = 0;  ///< Items submitted.
  std::uint64_t failed = 0;     ///< Undelivered + duplicated + mismatched.
  bool correct = true;          ///< Every output check passed.
  std::vector<std::string> violations;

  void violate(std::string why) {
    correct = false;
    violations.push_back(std::move(why));
  }
};

}  // namespace perfbench
