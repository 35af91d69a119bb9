// Repository benchmark program (see README.md in this directory).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--untraced-msgs-per-s X]
//   perfbench --check
//
// Runs passes over the workload's cells until S host seconds have gone,
// checking every delivered byte, and prints the metrics by name with their
// units. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// --check runs the oracle self-test, the figure-fidelity check and the
// determinism check, and exits non-zero if any fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/experiment.hpp"
#include "common/alloc_count.hpp"
#include "common/check.hpp"
#include "core/threshold_model.hpp"
#include "ddt/pack.hpp"
#include "harness.hpp"
#include "hw/machines.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using namespace dkf;
using schemes::Scheme;

// ------------------------------------------------------------ workloads --

struct WorkloadSpec {
  std::string name;
  std::vector<CellSpec> cells;
};

/// Virtual deadline per cell, 20x the longest cell (~50 ms): a message
/// that never completes trips it instead of polling forever.
constexpr TimeNs kWatchdog = sec(1);

/// The five schemes of Fig. 12.
constexpr Scheme kFig12Schemes[] = {Scheme::GpuSync, Scheme::GpuAsync,
                                    Scheme::CpuGpuHybrid, Scheme::Proposed,
                                    Scheme::ProposedTuned};

void addBulk(std::vector<CellSpec>& cells, const char* layout,
             workloads::Workload (*make)(std::size_t),
             std::initializer_list<std::size_t> dims) {
  for (std::size_t dim : dims) {
    for (Scheme s : kFig12Schemes) {
      CellSpec c;
      c.label = std::string(layout) + "/" + std::to_string(dim) + "/" +
                std::string(schemes::schemeName(s));
      c.b = BulkCell{layout, make, dim, s};
      cells.push_back(std::move(c));
    }
  }
}

CellSpec streamCell(const char* label, StreamCell s) {
  CellSpec c;
  c.label = label;
  c.bulk = false;
  c.s = s;
  return c;
}

bool makeWorkload(const std::string& name, WorkloadSpec& w) {
  w.name = name;
  if (name == "bulk_sparse") {
    // Fig. 12(a,b) at both ends of the dim axis: thousands of 4 B runs per
    // message at dim 128, launch-bound small messages at dim 8.
    addBulk(w.cells, "specfem3D_oc", workloads::specfem3dOc, {8, 128});
    addBulk(w.cells, "specfem3D_cm", workloads::specfem3dCm, {8, 128});
  } else if (name == "bulk_dense") {
    // Fig. 12(c,d): KiB runs, regions up to 2 MiB. The largest figure dims
    // (MILC 128, NAS_MG 96/128) are left out: NAS_MG 128 alone provisions
    // ~3 GiB of device arenas, and MILC 128 would triple the pass time.
    addBulk(w.cells, "MILC", workloads::milcZdown, {8, 64});
    addBulk(w.cells, "NAS_MG", workloads::nasMgFace, {16, 64});
  } else if (name == "msg_stream") {
    w.cells.push_back(
        streamCell("ring16/4096x4", StreamCell{4, 4, 4096, 0.0}));
  } else if (name == "msg_loss") {
    // 256-deep windows: under loss the progress engine's timed set is
    // scanned per pass, so a 4096-deep window costs ~70 us of host time
    // per message and leaves one or two windows per run. The window
    // latency under loss is the mean of a heavy-tailed draw; 96 windows
    // hold its spread across seeds to a few percent.
    w.cells.push_back(
        streamCell("ring16/256x96/loss12", StreamCell{4, 96, 256, 0.12}));
  } else {
    return false;
  }
  return true;
}

// -------------------------------------------------------------- helpers --

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string provenance() {
  return std::string("build_type=") + PERFBENCH_BUILD_TYPE + " compiler=\"" +
         PERFBENCH_COMPILER + "\" nproc=" +
         std::to_string(std::thread::hardware_concurrency()) +
         " alloc_counting=" + (allocCountingEnabled() ? "on" : "off");
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Sum of one virtual counter over a pass's cells.
double sumOf(const std::vector<CellResult>& pass, const char* key) {
  double s = 0;
  for (const CellResult& c : pass) {
    const auto it = c.virt.find(key);
    if (it != c.virt.end()) s += it->second;
  }
  return s;
}

double maxOf(const std::vector<CellResult>& pass, const char* key) {
  double m = 0;
  for (const CellResult& c : pass) {
    const auto it = c.virt.find(key);
    if (it != c.virt.end()) m = std::max(m, it->second);
  }
  return m;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

using Passes = std::vector<std::vector<CellResult>>;

/// Per cell, the median of `f` over the timed passes; summed over cells.
/// The first pass warms the process (heap, caches, pool slabs) and is left
/// out once there are three or more. Taking the median per cell rather than
/// per pass keeps a burst of host interference during one cell from setting
/// the figure.
template <class F>
double cellMedianSum(const Passes& passes, F f) {
  const std::size_t first = passes.size() >= 3 ? 1 : 0;
  double sum = 0;
  std::vector<double> v;
  for (std::size_t c = 0; c < passes.front().size(); ++c) {
    v.clear();
    for (std::size_t p = first; p < passes.size(); ++p) {
      v.push_back(f(passes[p][c]));
    }
    sum += median(v);
  }
  return sum;
}

/// A host-clock figure of the workload in reference seconds: each cell's
/// host seconds scaled by its host-speed samples (see SpeedReference).
template <class F>
double hostFigure(const Passes& passes, F f) {
  return cellMedianSum(passes, [&f](const CellResult& c) {
    return f(c) * c.speedScale();
  });
}

double setupOf(const CellResult& c) {
  return c.cluster_s + c.runtime_s + c.alloc_s;
}

double messagesOf(const std::vector<CellResult>& pass) {
  double s = 0;
  for (const CellResult& c : pass) s += static_cast<double>(c.messages);
  return s;
}

/// The simulator's own time in reference seconds: per segment between two
/// host-speed samples, the median over the timed passes; summed. Segment
/// bounds are fixed points of the rank bodies, so every pass of a cell has
/// the same segments holding the same work.
double scaledSimS(const Passes& passes) {
  const std::size_t first = passes.size() >= 3 ? 1 : 0;
  double sum = 0;
  std::vector<double> v;
  for (std::size_t c = 0; c < passes.front().size(); ++c) {
    const std::size_t segs = passes.front()[c].speed.seg_s.size();
    bool aligned = segs > 0;
    for (const auto& p : passes) aligned &= p[c].speed.seg_s.size() == segs;
    if (!aligned) {
      v.clear();
      for (std::size_t p = first; p < passes.size(); ++p) {
        v.push_back(passes[p][c].simSelf() * passes[p][c].speedScale());
      }
      sum += median(v);
      continue;
    }
    for (std::size_t k = 0; k < segs; ++k) {
      v.clear();
      for (std::size_t p = first; p < passes.size(); ++p) {
        v.push_back(passes[p][c].speed.scaledSeg(k));
      }
      sum += median(v);
    }
  }
  return sum;
}

double msgsPerSec(const Passes& passes) {
  return ratio(messagesOf(passes.front()), scaledSimS(passes));
}

// --------------------------------------------------------------- probes --

/// Standalone ddt cost of one layout, timed outside the simulation.
struct LayoutProbe {
  double flatten_us{0};
  double pack_ns{0};
  double unpack_ns{0};
};

LayoutProbe probeLayout(const workloads::Workload& wl, SpanLog& log,
                        int cell) {
  LayoutProbe p;
  std::vector<double> samples;
  const double t0 = hostNow();
  for (int r = 0; r < 9; ++r) {
    const double a = hostNow();
    const ddt::Layout flat = ddt::flatten(wl.type, wl.count);
    samples.push_back((hostNow() - a) * 1e6);
    DKF_CHECK(flat.size() > 0);
  }
  log.add("ddt.flatten", cell, -1, t0, hostNow());
  p.flatten_us = median(samples);

  const ddt::Layout layout = ddt::flatten(wl.type, wl.count);
  std::vector<std::byte> origin = basePattern(1, 0, wl.regionBytes());
  std::vector<std::byte> packed(layout.size());
  constexpr int kBatch = 8;
  constexpr int kBatches = 15;
  auto timeCalls = [&](const char* name, auto&& call) {
    std::vector<double> per_call;
    const double s0 = hostNow();
    for (int b = 0; b < kBatches; ++b) {
      const double a = hostNow();
      for (int i = 0; i < kBatch; ++i) call();
      per_call.push_back((hostNow() - a) * 1e9 / kBatch);
    }
    log.add(name, cell, -1, s0, hostNow());
    return median(per_call);
  };
  p.pack_ns = timeCalls("ddt.pack", [&] {
    ddt::packCpu(layout, origin, packed);
  });
  p.unpack_ns = timeCalls("ddt.unpack", [&] {
    ddt::unpackCpu(layout, packed, origin);
  });
  return p;
}

// ---------------------------------------------------------------- trace --

bool writeTrace(const std::string& path, const std::string& workload,
                std::uint64_t seed, const std::vector<CellSpec>& cells,
                const SpanLog& log, const std::vector<Metric>& metrics) {
  std::ofstream os(path);
  if (!os) return false;
  const double origin = log.spans().empty() ? 0.0 : log.spans().front().start;
  os << "{\"metadata\": {\"workload\": \"" << workload << "\", \"seed\": "
     << seed << ", \"provenance\": \"" << PERFBENCH_BUILD_TYPE << " / "
     << PERFBENCH_COMPILER << " / nproc "
     << std::thread::hardware_concurrency() << "\", \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    os << (i ? ", " : "") << "\"" << cells[i].label << "\"";
  }
  os << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": "
       << num(metrics[i].value);
  }
  os << "}},\n \"traceEvents\": [\n";
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "") << "  {\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " << s.cell
       << ", \"ts\": " << num((s.start - origin) * 1e6)
       << ", \"dur\": " << num((s.end - s.start) * 1e6)
       << ", \"args\": {\"id\": " << i << ", \"cell\": " << s.cell
       << ", \"parent\": " << s.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

// ------------------------------------------------------------------ run --

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool check{false};
  std::string trace_out;
  double untraced_msgs_per_s{0};
};

/// Compare a pass against the first one: virtual results and counters must
/// repeat exactly for one seed.
bool samePass(const std::vector<CellResult>& a,
              const std::vector<CellResult>& b,
              const std::vector<CellSpec>& cells, std::string& why) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].virt == b[i].virt) continue;
    for (const auto& [k, v] : a[i].virt) {
      const auto it = b[i].virt.find(k);
      if (it == b[i].virt.end() || it->second != v) {
        why = cells[i].label + ": " + k + " " + num(v) + " vs " +
              (it == b[i].virt.end() ? std::string("missing")
                                     : num(it->second));
        return false;
      }
    }
    why = cells[i].label + ": counter set differs";
    return false;
  }
  return true;
}

std::vector<Metric> endToEnd(const Passes& passes, double delivered_frac) {
  const auto& first = passes.front();
  double log_sum = 0;
  for (const CellResult& c : first) log_sum += std::log(c.virt.at("vlat_us"));
  return {
      {"setup_s", hostFigure(passes, setupOf), "s"},
      {"msgs_per_s", msgsPerSec(passes), "1/s"},
      {"peak_rss_mib", peakRssMib(), "MiB"},
      {"vlat_us", std::exp(log_sum / static_cast<double>(first.size())),
       "vus"},
      {"delivered_frac", delivered_frac, "frac"},
  };
}

std::vector<Metric> perLayer(const Passes& passes,
                             const std::vector<LayoutProbe>& probes,
                             const std::map<std::string, LayoutProbe>& distinct,
                             double untraced_msgs_per_s) {
  const auto& p0 = passes.front();
  const double msgs = messagesOf(p0);
  double pack_calls = 0;
  double pack_call_ns = 0;
  for (std::size_t i = 0; i < p0.size(); ++i) {
    const double calls = static_cast<double>(p0[i].pack_calls);
    pack_calls += calls;
    pack_call_ns += (probes[i].pack_ns + probes[i].unpack_ns) * calls;
  }
  double flatten_us = 0;
  double pack_ns = 0;
  double unpack_ns = 0;
  for (const auto& [key, pr] : distinct) {
    flatten_us += pr.flatten_us;
    pack_ns += pr.pack_ns;
    unpack_ns += pr.unpack_ns;
  }
  const auto n_layouts = static_cast<double>(distinct.size());
  // Estimated share of the simulator's own run time spent moving bytes in
  // pack/unpack: standalone per-call cost x calls the cell made.
  const double pack_s = pack_call_ns * 1e-9;
  const double cells_n = static_cast<double>(p0.size());
  const double layout_hits = sumOf(p0, "ddt.layout_hits");
  const double plan_hits = sumOf(p0, "core.plan_hits");
  const double retrans = sumOf(p0, "mpi.retransmissions");
  double verified = 0;
  for (const CellResult& c : p0) verified += static_cast<double>(c.verified);
  const double mib = 1024.0 * 1024.0;
  auto hostMedian = [&](double CellResult::*f) {
    return hostFigure(passes, [f](const CellResult& c) { return c.*f; });
  };
  const double sim_s = scaledSimS(passes);
  std::vector<Metric> m = {
      {"hw.cluster_s", hostMedian(&CellResult::cluster_s), "s"},
      {"mpi.runtime_s", hostMedian(&CellResult::runtime_s), "s"},
      {"gpu.alloc_s", hostMedian(&CellResult::alloc_s), "s"},
      {"gpu.arena_mib", maxOf(p0, "gpu.arena_bytes") / mib, "MiB"},
      {"gpu.kernels", sumOf(p0, "gpu.kernels"), "count"},
      {"gpu.copies", sumOf(p0, "gpu.copies"), "count"},
      {"gpu.busy_us", sumOf(p0, "gpu.busy_ns") / 1e3, "vus"},
      {"ddt.blocks", sumOf(p0, "ddt.blocks"), "count"},
      {"ddt.mean_block_b",
       ratio(sumOf(p0, "ddt.packed_bytes"), sumOf(p0, "ddt.blocks")), "B"},
      {"ddt.layout_hit_rate",
       ratio(layout_hits, layout_hits + sumOf(p0, "ddt.layout_misses")),
       "frac"},
      {"ddt.flatten_us", ratio(flatten_us, n_layouts), "us"},
      {"ddt.pack_calls", pack_calls, "count"},
      {"ddt.pack_ns", ratio(pack_ns, n_layouts), "ns"},
      {"ddt.unpack_ns", ratio(unpack_ns, n_layouts), "ns"},
      // Both sides unscaled: the probes take no speed samples.
      {"ddt.pack_share",
       ratio(pack_s, cellMedianSum(passes,
                                   [](const CellResult& c) {
                                     return c.simSelf();
                                   })),
       "frac"},
      {"core.plan_hit_rate",
       ratio(plan_hits, plan_hits + sumOf(p0, "core.plan_misses")), "frac"},
      {"core.plan_misses", sumOf(p0, "core.plan_misses"), "count"},
      {"core.fallbacks", sumOf(p0, "core.fallbacks"), "count"},
      {"core.fused_kernels", sumOf(p0, "core.fused_kernels"), "count"},
      {"core.requests_fused", sumOf(p0, "core.requests_fused"), "count"},
      {"core.mean_batch",
       ratio(sumOf(p0, "core.requests_fused"),
             sumOf(p0, "core.fused_kernels")), "count"},
      {"schemes.pack_unpack_us",
       sumOf(p0, "schemes.pack_unpack_ns") / cells_n / 1e3, "vus"},
      {"schemes.launch_us", sumOf(p0, "schemes.launch_ns") / cells_n / 1e3,
       "vus"},
      {"schemes.schedule_us",
       sumOf(p0, "schemes.schedule_ns") / cells_n / 1e3, "vus"},
      {"schemes.sync_us", sumOf(p0, "schemes.sync_ns") / cells_n / 1e3, "vus"},
      {"schemes.comm_us", sumOf(p0, "schemes.comm_ns") / cells_n / 1e3, "vus"},
      {"sim.events", sumOf(p0, "sim.events"), "count"},
      {"sim.peak_pending", maxOf(p0, "sim.peak_pending"), "count"},
      {"sim.host_ns_per_event", ratio(sim_s * 1e9, sumOf(p0, "sim.events")),
       "ns"},
      {"sim.run_s", sim_s, "s"},
      {"net.wire_msgs", sumOf(p0, "net.wire_msgs"), "count"},
      {"net.wire_mib", sumOf(p0, "net.wire_bytes") / mib, "MiB"},
      {"net.armed_events", sumOf(p0, "net.armed_events"), "count"},
      {"net.coalesced", sumOf(p0, "net.coalesced"), "count"},
      {"net.pool_hit_rate",
       sumOf(p0, "net.pool_checkouts") > 0
           ? ratio(sumOf(p0, "net.pool_reuses"),
                   sumOf(p0, "net.pool_checkouts"))
           : 1.0,
       "frac"},
      {"net.pool_slab_allocs", sumOf(p0, "net.pool_slab_allocs"), "count"},
      {"net.pool_peak_mib", maxOf(p0, "net.pool_peak_bytes") / mib, "MiB"},
      {"mpi.retransmissions", retrans, "count"},
      {"mpi.acks", sumOf(p0, "mpi.acks"), "count"},
      {"mpi.duplicates", sumOf(p0, "mpi.duplicates"), "count"},
      {"mpi.goodput", ratio(verified, msgs + retrans), "frac"},
      {"mpi.staging_fallbacks", sumOf(p0, "mpi.staging_fallbacks"), "count"},
  };
  if (allocCountingEnabled()) {
    m.push_back({"mpi.allocs_per_msg",
                 ratio(cellMedianSum(passes,
                                  [](const CellResult& c) {
                                    return static_cast<double>(c.allocs);
                                  }),
                       msgs),
                 "count"});
  }
  m.push_back({"fault.data_drops", sumOf(p0, "fault.data_drops"), "count"});
  m.push_back(
      {"fault.control_drops", sumOf(p0, "fault.control_drops"), "count"});
  m.push_back({"harness.fill_s", hostMedian(&CellResult::fill_s), "s"});
  m.push_back({"harness.check_s", hostMedian(&CellResult::check_s), "s"});
  std::vector<double> refs;
  for (const auto& p : passes) {
    for (const CellResult& c : p) {
      refs.insert(refs.end(), c.speed.samples.begin(), c.speed.samples.end());
    }
  }
  m.push_back({"harness.ref_ms", median(refs) * 1e3, "ms"});
  if (untraced_msgs_per_s > 0) {
    m.push_back({"trace.overhead",
                 msgsPerSec(passes) / untraced_msgs_per_s,
                 "ratio"});
  }
  return m;
}

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << num(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

int runWorkload(const Args& a) {
  WorkloadSpec w;
  if (!makeWorkload(a.workload, w)) {
    std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
    return 2;
  }
  SpanLog log(a.trace);
  SpeedReference ref;
  RunOptions opt;
  opt.seed = a.seed;
  opt.watchdog = kWatchdog;
  opt.ref = &ref;

  // Standalone ddt probes (traced run only), once per distinct layout:
  // cells of one layout under other schemes share the figures.
  std::vector<LayoutProbe> probes(w.cells.size());
  std::map<std::string, LayoutProbe> distinct;
  if (a.trace) {
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const CellSpec& c = w.cells[i];
      const std::string key =
          c.bulk ? c.b.layout + "/" + std::to_string(c.b.dim) : "byte";
      auto it = distinct.find(key);
      if (it == distinct.end()) {
        const workloads::Workload wl =
            c.bulk ? c.b.make(c.b.dim)
                   : workloads::Workload{"byte", ddt::Datatype::byte(),
                                         kMsgBytes};
        it = distinct.emplace(key, probeLayout(wl, log, static_cast<int>(i)))
                 .first;
      }
      probes[i] = it->second;
    }
  }

  std::vector<std::vector<CellResult>> passes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool deterministic = true;
  std::string errors;
  // Passes run while another one still fits in --seconds of wall time,
  // with a quarter of the longest pass to spare, so a run ends within its
  // budget rather than up to a pass past it.
  const double t_start = wallNow();
  double longest_pass = 0;
  while (passes.empty() ||
         wallNow() - t_start + 1.25 * longest_pass <= a.seconds) {
    const double p0 = wallNow();
    std::vector<CellResult> pass;
    pass.reserve(w.cells.size());
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      pass.push_back(runCell(w.cells[i], opt, log, static_cast<int>(i)));
      const CellResult& r = pass.back();
      attempted += r.messages;
      failed += r.failed();
      if (!r.error.empty() && errors.empty()) {
        errors = w.cells[i].label + ": " + r.error;
      }
    }
    std::string why;
    if (!passes.empty() && !samePass(passes.front(), pass, w.cells, why)) {
      deterministic = false;
      if (errors.empty()) errors = "pass not deterministic: " + why;
    }
    double setup = 0;
    double sim = 0;
    double scaled_sim = 0;
    for (const CellResult& c : pass) {
      setup += setupOf(c);
      sim += c.simSelf();
      for (std::size_t k = 0; k < c.speed.seg_s.size(); ++k) {
        scaled_sim += c.speed.scaledSeg(k);
      }
    }
    std::cerr << "pass " << passes.size() << ": setup_s " << num(setup)
              << " sim_s " << num(sim) << " (reference " << num(scaled_sim)
              << ") wall_s " << num(wallNow() - p0) << "\n";
    passes.push_back(std::move(pass));
    longest_pass = std::max(longest_pass, wallNow() - p0);
  }
  const double delivered =
      static_cast<double>(attempted - failed) / static_cast<double>(attempted);

  std::cout << "workload " << w.name << " seed " << a.seed << " cells "
            << w.cells.size() << " passes " << passes.size() << " messages "
            << attempted << "\nprovenance " << provenance() << "\n";
  if (!errors.empty()) std::cout << "error " << errors << "\n";

  std::vector<Metric> metrics =
      a.trace ? perLayer(passes, probes, distinct, a.untraced_msgs_per_s)
              : endToEnd(passes, delivered);
  if (!a.trace) {
    std::cout << "  fail_frac = " << num(1.0 - delivered) << " frac\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit
              << "\n";
  }
  if (!a.trace_out.empty() &&
      !writeTrace(a.trace_out, w.name, a.seed, w.cells, log, metrics)) {
    std::cerr << "perfbench: cannot write " << a.trace_out << "\n";
    return 1;
  }
  const bool correct = failed == 0 && deterministic && errors.empty() &&
                       std::string(PERFBENCH_BUILD_TYPE) == "Release";
  printResult(correct, attempted, failed, metrics);
  return 0;
}

// ---------------------------------------------------------------- check --

bool report(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
  return ok;
}

/// The oracle must see a flipped byte and a withheld message.
bool selfTest() {
  bool ok = true;
  SpanLog log(false);
  CellSpec bulk;
  bulk.label = "specfem3D_oc/8/Proposed (3 iterations)";
  bulk.b = BulkCell{"specfem3D_oc", workloads::specfem3dOc, 8,
                    Scheme::Proposed, 32, 2, 1};
  const CellSpec ring =
      streamCell("ring4/64x2", StreamCell{1, 2, 64, 0.0});
  for (const CellSpec& c : {bulk, ring}) {
    RunOptions opt;
    opt.seed = 7;
    const CellResult clean = runCell(c, opt, log, 0);
    ok &= report(clean.failed() == 0 && clean.error.empty(),
                 c.label + ": clean run delivers every message");
    opt.watchdog = static_cast<TimeNs>(clean.virt.at("vtime.end_ns")) * 4;
    opt.inject = Inject::FlipByte;
    const CellResult flip = runCell(c, opt, log, 0);
    ok &= report(flip.failed() == 1 && flip.error.empty(),
                 c.label + ": one flipped byte fails one message (fail_frac " +
                     num(ratio(flip.failed(), flip.messages)) + ")");
    opt.inject = Inject::Withhold;
    const CellResult held = runCell(c, opt, log, 0);
    ok &= report(held.failed() > 0 && !held.error.empty(),
                 c.label + ": a withheld message is caught (fail_frac " +
                     num(ratio(held.failed(), held.messages)) + ")");
  }
  return ok;
}

/// vlat_us of a bulk cell is the latency the paper-figure harness reports.
bool figureFidelity() {
  bool ok = true;
  SpanLog log(false);
  for (const BulkCell& b :
       {BulkCell{"specfem3D_cm", workloads::specfem3dCm, 128,
                 Scheme::Proposed},
        BulkCell{"MILC", workloads::milcZdown, 64, Scheme::ProposedTuned}}) {
    CellSpec c;
    c.b = b;
    RunOptions opt;
    opt.seed = 11;
    const CellResult mine = runCell(c, opt, log, 0);
    bench::ExchangeConfig cfg;
    cfg.machine = hw::lassen();
    cfg.scheme = b.scheme;
    cfg.workload = b.make(b.dim);
    cfg.n_ops = b.n_ops;
    cfg.iterations = b.iterations;
    cfg.warmup = b.warmup;
    if (b.scheme == Scheme::ProposedTuned) {
      const hw::MachineSpec m = hw::lassen();
      cfg.tuned_threshold =
          core::ThresholdModel(m.node.gpu, m.internode.bandwidth)
              .predict(ddt::flatten(cfg.workload.type, cfg.workload.count));
    }
    const bench::ExchangeResult ref = bench::runBulkExchange(cfg);
    const double v = mine.virt.at("vlat_us");
    const double end = mine.virt.at("vtime.end_ns");
    ok &= report(v == ref.meanLatencyUs() &&
                     end == static_cast<double>(ref.end_time) &&
                     mine.failed() == 0,
                 b.layout + "/" + std::to_string(b.dim) + "/" +
                     std::string(schemes::schemeName(b.scheme)) +
                     ": vlat_us " + num(v) + " vs runBulkExchange " +
                     num(ref.meanLatencyUs()) + ", end " + num(end) +
                     " ns vs " + std::to_string(ref.end_time) + " ns");
  }
  return ok;
}

/// One seed twice: identical virtual metrics, counters and payloads. A
/// fresh seed: new payload bytes; virtual metrics unchanged except where
/// the seed also drives the fault plan.
bool determinism() {
  bool ok = true;
  SpanLog log(false);
  for (const char* name : {"bulk_sparse", "bulk_dense", "msg_stream",
                           "msg_loss"}) {
    WorkloadSpec w;
    makeWorkload(name, w);
    auto pass = [&](std::uint64_t seed) {
      RunOptions opt;
      opt.seed = seed;
      opt.watchdog = kWatchdog;
      opt.hash_payloads = true;
      std::vector<CellResult> out;
      for (std::size_t i = 0; i < w.cells.size(); ++i) {
        out.push_back(runCell(w.cells[i], opt, log, static_cast<int>(i)));
      }
      return out;
    };
    const auto a1 = pass(21);
    const auto a2 = pass(21);
    const auto b = pass(22);
    auto hashes = [](const std::vector<CellResult>& p) {
      std::vector<std::uint64_t> h;
      for (const CellResult& c : p) h.push_back(c.payload_hash);
      return h;
    };
    std::string why;
    ok &= report(samePass(a1, a2, w.cells, why) && hashes(a1) == hashes(a2),
                 std::string(name) + ": same seed repeats virtual metrics, " +
                     "counters and payload bytes " + why);
    bool differ = true;
    for (std::size_t i = 0; i < a1.size(); ++i) {
      differ &= a1[i].payload_hash != b[i].payload_hash;
    }
    ok &= report(differ, std::string(name) +
                             ": a fresh seed changes every cell's payload");
    why.clear();
    const bool same_virt = samePass(a1, b, w.cells, why);
    if (w.name == "msg_loss") {
      std::cout << "INFO " << name << ": fresh seed "
                << (same_virt ? "kept" : "moved")
                << " the virtual metrics (the seed drives the fault plan)\n";
    } else {
      ok &= report(same_virt, std::string(name) +
                                  ": a fresh seed keeps virtual metrics " +
                                  why);
    }
  }
  return ok;
}

int runChecks() {
  std::cout << "provenance " << provenance() << "\n";
  bool ok = selfTest();
  ok &= figureFidelity();
  ok &= determinism();
  std::cout << (ok ? "all checks passed" : "CHECKS FAILED") << "\n";
  return ok ? 0 : 1;
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--check") {
      a.check = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--untraced-msgs-per-s") {
      a.untraced_msgs_per_s = std::strtod(v, nullptr);
    } else {
      return false;
    }
  }
  return a.check || !a.workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parseArgs(argc, argv, a)) {
    std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--untraced-msgs-per-s X]\n"
                 "       perfbench --check\n";
    return 2;
  }
  return a.check ? perfbench::runChecks() : perfbench::runWorkload(a);
}
