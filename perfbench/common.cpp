#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: the latter carries over the peak of
  // the image this process was exec'd from (a Python launcher, say).
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

CpuJiffies read_cpu_jiffies() {
  std::ifstream in{"/proc/stat"};
  std::string line;
  CpuJiffies j;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return j;
  std::istringstream fields{line.substr(4)};
  std::uint64_t v = 0;
  for (int i = 0; fields >> v; ++i) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already folded into user/nice.
    if (i < 8) j.total += v;
    if (i == 7) j.steal = v;
  }
  return j;
}

double steal_pct(const CpuJiffies& a, const CpuJiffies& b) {
  if (b.total <= a.total) return 0.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto at = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), at, v.end());
  if (lo + 1 == v.size()) return *at;
  const double next = *std::min_element(at + 1, v.end());
  return *at + (next - *at) * (pos - static_cast<double>(lo));
}

double median_items_per_s(const std::vector<Slice>& slices) {
  std::vector<double> v;
  for (const Slice& s : slices) {
    if (s.wall_ns > 0) {
      v.push_back(static_cast<double>(s.items) * 1e9 / static_cast<double>(s.wall_ns));
    }
  }
  return median(v);
}

double cpu_us_per_mib_quantile(const std::vector<Slice>& slices,
                               double bytes_per_item, double q) {
  std::vector<double> v;
  for (const Slice& s : slices) {
    const double mib = static_cast<double>(s.items) * bytes_per_item / (1 << 20);
    if (mib > 0) v.push_back(static_cast<double>(s.cpu_ns) * 1e-3 / mib);
  }
  return quantile(v, q);
}

const char* span_label(SpanName n) noexcept {
  switch (n) {
    case SpanName::kRoot: return "root";
    case SpanName::kSetup: return "setup";
    case SpanName::kRun: return "run";
    case SpanName::kSimBuild: return "sim.build";
    case SpanName::kWorkloadSubmit: return "workload.submit";
    case SpanName::kSimRun: return "sim.run";
    case SpanName::kOrbitContactPlan: return "orbit.contact_plan";
    case SpanName::kNetBuild: return "net.build";
    case SpanName::kNetRoutes: return "net.routes";
    case SpanName::kNetSubmit: return "net.submit";
    case SpanName::kNetRun: return "net.run";
    case SpanName::kNetInject: return "net.inject";
    case SpanName::kRtBind: return "rt.bind";
    case SpanName::kRtMuxBuild: return "rt.mux_build";
    case SpanName::kRtOpen: return "rt.open";
    case SpanName::kRtLoop: return "rt.loop";
    case SpanName::kRtWrite: return "rt.write";
    case SpanName::kRtSend: return "rt.send";
    case SpanName::kRtRecv: return "rt.recv";
    case SpanName::kObs: return "obs";
    case SpanName::kBenchGenerate: return "bench.generate";
    case SpanName::kBenchCheck: return "bench.check";
    case SpanName::kCount: break;
  }
  return "?";
}

void Tracer::save(const std::string& workload) const {
  const std::string path = ".bench_build/perfbench/trace-" + workload + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("spans not written: cannot open %s\n", path.c_str());
    return;
  }
  const std::int64_t t0 = raw_.empty() ? 0 : raw_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const Raw& r = raw_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"key\":%llu}}\n",
                 i == 0 ? "" : ",", span_label(r.name),
                 static_cast<double>(r.start_ns - t0) / 1000.0,
                 static_cast<double>(r.end_ns - r.start_ns) / 1000.0, i,
                 r.parent, static_cast<unsigned long long>(r.key));
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ns\",\"droppedSpans\":%zu}\n",
               raw_dropped());
  if (std::fclose(f) == 0) {
    std::printf("spans written to %s (%zu dropped)\n", path.c_str(), raw_dropped());
  } else {
    std::printf("spans not written: error writing %s\n", path.c_str());
  }
}

}  // namespace perfbench
