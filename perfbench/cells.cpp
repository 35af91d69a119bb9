// Cell runners: build the cluster and runtime, allocate every buffer, run
// the rank bodies through Runtime::runAll, check every delivered byte, and
// read the layers' counters through their public getters.
#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <optional>

#include "common/alloc_count.hpp"
#include "common/check.hpp"
#include "common/stats.hpp"
#include "core/threshold_model.hpp"
#include "fault/fault_plan.hpp"
#include "harness.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/runtime.hpp"
#include "schemes/fusion_engine.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using namespace dkf;

// ---------------------------------------------------------------- oracle --
//
// Message `index` from rank `src` carries, at buffer offset `o`,
//   base(seed, src)[o] ^ byte (o mod 8) of word(seed, src, index).
// The base pattern makes content position-dependent; the per-message word
// makes every message distinct, so stale, misrouted, reordered or
// corrupted deliveries all fail the comparison. Bytes outside the layout
// of a receive buffer hold kSentinel for the whole cell.

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<std::byte> basePattern(std::uint64_t seed, int src,
                                   std::size_t n) {
  std::vector<std::byte> out((n + 7) & ~std::size_t{7});
  std::uint64_t x = mix64(seed ^ (static_cast<std::uint64_t>(src) << 32));
  for (std::size_t i = 0; i < out.size(); i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(out.data() + i, &x, 8);
  }
  out.resize(n);
  return out;
}

SpeedReference::SpeedReference() : buf_(kBytes, std::byte{1}) {}

double SpeedReference::sample() {
  double timed = 0;
  for (int round = 0; round < 2; ++round) {  // the first round warms
    const int v = ++fill_ & 0xFF;
    const double t0 = hostNow();
    std::memset(buf_.data(), v, buf_.size());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < buf_.size(); i += 64) {
      sum += static_cast<std::uint64_t>(buf_[i]);
    }
    timed = hostNow() - t0;
    // Checking the sum keeps the read loop.
    DKF_CHECK(sum == buf_.size() / 64 * static_cast<std::uint64_t>(v));
  }
  return timed;
}

namespace {

constexpr std::byte kSentinel{0x5A};

std::uint64_t messageWord(std::uint64_t seed, int src, std::uint64_t index) {
  return mix64(mix64(seed ^ 0x6d7367ull) ^
               mix64((static_cast<std::uint64_t>(src) << 40) ^ index));
}

std::byte wordByte(std::uint64_t w, std::size_t o) {
  return static_cast<std::byte>(w >> (8 * (o & 7)));
}

/// dst[o] = base[o] ^ word-byte(o) over [off, off + len).
void fillRun(std::byte* dst, const std::byte* base, std::size_t off,
             std::size_t len, std::uint64_t word) {
  std::size_t o = off;
  const std::size_t end = off + len;
  for (; o < end && (o & 7) != 0; ++o) dst[o] = base[o] ^ wordByte(word, o);
  for (; o + 8 <= end; o += 8) {
    std::uint64_t b;
    std::memcpy(&b, base + o, 8);
    b ^= word;
    std::memcpy(dst + o, &b, 8);
  }
  for (; o < end; ++o) dst[o] = base[o] ^ wordByte(word, o);
}

/// True when got[o] == base[o] ^ word-byte(o) over [off, off + len).
bool runMatches(const std::byte* got, const std::byte* base, std::size_t off,
                std::size_t len, std::uint64_t word) {
  std::size_t o = off;
  const std::size_t end = off + len;
  std::uint64_t diff = 0;
  for (; o < end && (o & 7) != 0; ++o) {
    diff |= static_cast<std::uint64_t>(got[o] ^ base[o] ^ wordByte(word, o));
  }
  for (; o + 8 <= end; o += 8) {
    std::uint64_t g;
    std::uint64_t b;
    std::memcpy(&g, got + o, 8);
    std::memcpy(&b, base + o, 8);
    diff |= g ^ b ^ word;
  }
  for (; o < end; ++o) {
    diff |= static_cast<std::uint64_t>(got[o] ^ base[o] ^ wordByte(word, o));
  }
  return diff == 0;
}

struct Run {
  std::size_t off;
  std::size_t len;
};

/// The layout's runs in offset order (the oracle's own copy, walked once
/// per message).
std::vector<Run> runsOf(const ddt::Layout& layout) {
  std::vector<Run> runs;
  runs.reserve(layout.blockCount());
  layout.forEachRun([&](std::int64_t off, std::size_t len) {
    DKF_CHECK(off >= 0);
    runs.push_back({static_cast<std::size_t>(off), len});
  });
  return runs;
}

/// Word-wise FNV-1a over a byte range (payload hashes for the determinism
/// check).
std::uint64_t fnv1a(std::uint64_t h, const std::byte* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 1099511628211ull;
  }
  for (; i < n; ++i) {
    h = (h ^ static_cast<std::uint64_t>(p[i])) * 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
/// Sentinel guard after every receive buffer: catches writes past the end.
constexpr std::size_t kGuard = 64;
static_assert(kGuard >= 8, "word-wise checks read up to 7 bytes past a region");

/// True when every byte of [p, p + n) is the sentinel.
bool allSentinel(const std::byte* p, std::size_t n) {
  return std::all_of(p, p + n, [](std::byte b) { return b == kSentinel; });
}

/// Harness state shared by the rank bodies of one cell. Declared before
/// the engine in runCell so it outlives any coroutine frame the engine
/// still holds after a watchdog trip.
struct Harness {
  const RunOptions* opt{};
  SpanLog* log{};
  int cell{0};
  int run_span{-1};
  double fill_s{0};
  double check_s{0};
  std::uint64_t verified{0};
  std::uint64_t hash{kFnvBasis};
  // Virtual time of the timed iterations (windows): every rank's for
  // vlat_us, rank 0's alone for the Fig. 11 breakdown.
  SampleSet lat_us;
  SampleSet rank0_us;
  SpeedTrace speed;
  double ref_in_s{0};     ///< samples taken inside runAll
  bool in_run{false};     ///< runAll is on the stack
  double seg_start{0};    ///< host time the open segment began
  double seg_harness{0};  ///< harness time when it began

  void addFill(double t0, double t1) {
    fill_s += t1 - t0;
    log->add("harness.fill", cell, run_span, t0, t1);
  }
  void addCheck(double t0, double t1) {
    check_s += t1 - t0;
    log->add("harness.check", cell, run_span, t0, t1);
  }
  double harnessTime() const { return fill_s + check_s + ref_in_s; }
  /// Host-speed sample: closes the open segment and opens the next. A
  /// sample inside runAll is harness time.
  void sampleRef() {
    if (opt->ref == nullptr) return;
    const double t0 = hostNow();
    const double s = opt->ref->sample();
    const double t1 = hostNow();
    if (!speed.samples.empty()) {
      speed.seg_s.push_back(t0 - seg_start - (harnessTime() - seg_harness));
    }
    speed.samples.push_back(s);
    if (in_run) ref_in_s += t1 - t0;
    seg_start = t1;
    seg_harness = harnessTime();
    log->add("harness.ref", cell, in_run ? run_span : -1, t0, t1);
  }
};

struct BulkState {
  const BulkCell* cfg{};
  workloads::Workload wl;
  std::vector<Run> runs;
  std::size_t region{0};
  std::size_t words{0};  ///< region rounded up to whole 8-byte words
  /// Short runs (sparse layouts): fill and check whole words of the region
  /// instead of walking thousands of 4 B runs; `mask` marks layout bytes.
  bool wide{false};
  std::vector<std::uint64_t> mask;
  std::array<std::vector<std::byte>, 2> base;       // per sending rank
  std::array<std::vector<gpu::MemSpan>, 2> send;    // region bytes
  std::array<std::vector<gpu::MemSpan>, 2> recv;    // region (+ guard)
};

/// Runs shorter than this are filled and checked word-wise over the whole
/// region, where the region is only a few times the packed size.
constexpr double kWideMeanRun = 64.0;
constexpr std::uint64_t kSentinelWord = 0x5A5A5A5A5A5A5A5Aull;

void fillWide(std::byte* dst, const std::byte* base, std::size_t words,
              std::uint64_t w) {
  for (std::size_t k = 0; k < words; ++k) {
    std::uint64_t b;
    std::memcpy(&b, base + 8 * k, 8);
    b ^= w;
    std::memcpy(dst + 8 * k, &b, 8);
  }
}

/// Layout bytes carry the message, every other byte the sentinel.
bool wideMatches(const std::byte* got, const std::byte* base,
                 const std::uint64_t* mask, std::size_t words,
                 std::uint64_t w) {
  std::uint64_t diff = 0;
  for (std::size_t k = 0; k < words; ++k) {
    std::uint64_t g;
    std::uint64_t b;
    std::memcpy(&g, got + 8 * k, 8);
    std::memcpy(&b, base + 8 * k, 8);
    diff |= g ^ (((b ^ w) & mask[k]) | (kSentinelWord & ~mask[k]));
  }
  return diff == 0;
}

/// One rank of the paper loop: barrier, 32 irecv + 32 isend, waitall.
/// Rank 0 times the iterations exactly as bench::runBulkExchange does.
sim::Task<void> bulkRank(mpi::Proc& p, BulkState& st, Harness& h) {
  const BulkCell& c = *st.cfg;
  const int me = p.rank();
  const int peer = 1 - me;
  const auto side = static_cast<std::size_t>(me);
  const auto n_ops = static_cast<std::size_t>(c.n_ops);
  const int total = c.warmup + c.iterations;
  const std::uint64_t seed = h.opt->seed;

  for (int iter = 0; iter < total; ++iter) {
    co_await p.barrier(2);
    if (me == 0 && iter == c.warmup) p.ddtEngine().breakdown().reset();

    const double f0 = hostNow();
    for (std::size_t i = 0; i < n_ops; ++i) {
      const std::uint64_t w = messageWord(
          seed, me, static_cast<std::uint64_t>(iter) * n_ops + i);
      std::byte* dst = st.send[side][i].bytes.data();
      if (st.wide) {
        fillWide(dst, st.base[side].data(), st.words, w);
        continue;
      }
      for (const Run& r : st.runs) {
        fillRun(dst, st.base[side].data(), r.off, r.len, w);
      }
    }
    h.addFill(f0, hostNow());

    const TimeNs t0 = p.engine().now();
    std::vector<mpi::RequestPtr> reqs;
    reqs.reserve(2 * n_ops);
    for (std::size_t i = 0; i < n_ops; ++i) {
      reqs.push_back(co_await p.irecv(st.recv[side][i], st.wl.type,
                                      st.wl.count, peer, static_cast<int>(i)));
    }
    for (std::size_t i = 0; i < n_ops; ++i) {
      if (h.opt->inject == Inject::Withhold && me == 0 && iter == c.warmup &&
          i == 0) {
        continue;
      }
      reqs.push_back(co_await p.isend(st.send[side][i], st.wl.type,
                                      st.wl.count, peer, static_cast<int>(i)));
    }
    co_await p.waitall(std::move(reqs));
    const TimeNs t1 = p.engine().now();
    if (me == 0 && iter >= c.warmup) {
      h.lat_us.add(toUs(t1 - t0));
      h.rank0_us.add(toUs(t1 - t0));
    }

    if (h.opt->inject == Inject::FlipByte && me == 1 && iter == c.warmup) {
      st.recv[side][0].bytes[st.runs.front().off] ^= std::byte{0x01};
    }
    const double k0 = hostNow();
    const auto from = static_cast<std::size_t>(peer);
    for (std::size_t i = 0; i < n_ops; ++i) {
      const std::uint64_t w = messageWord(
          seed, peer, static_cast<std::uint64_t>(iter) * n_ops + i);
      const std::byte* got = st.recv[side][i].bytes.data();
      bool ok = !st.wide || wideMatches(got, st.base[from].data(),
                                        st.mask.data(), st.words, w);
      for (std::size_t r = 0; r < st.runs.size() && ok && !st.wide; ++r) {
        ok = runMatches(got, st.base[from].data(), st.runs[r].off,
                        st.runs[r].len, w);
      }
      if (ok) ++h.verified;
      if (h.opt->hash_payloads) h.hash = fnv1a(h.hash, got, st.region);
    }
    h.addCheck(k0, hostNow());
  }
}

struct StreamState {
  const StreamCell* cfg{};
  int ranks{0};
  std::vector<std::vector<std::byte>> base;  // per sending rank, one message
  std::vector<gpu::MemSpan> send;            // window x kMsgBytes
  std::vector<gpu::MemSpan> recv;            // window x (kMsgBytes + guard)
};

/// One rank of the ring: post a window of eager sends to the right and
/// receives from the left through the batch front door, waitall, check.
sim::Task<void> streamRank(mpi::Proc& p, StreamState& st, Harness& h) {
  const StreamCell& c = *st.cfg;
  const int me = p.rank();
  const int to = (me + 1) % st.ranks;
  const int from = (me + st.ranks - 1) % st.ranks;
  const auto mine = static_cast<std::size_t>(me);
  const std::uint64_t seed = h.opt->seed;
  const std::size_t slot = kMsgBytes + kGuard;
  const auto type = ddt::Datatype::byte();

  for (std::size_t win = 0; win < c.windows; ++win) {
    if (me == 0 && win == 1) p.ddtEngine().breakdown().reset();
    const double f0 = hostNow();
    for (std::size_t i = 0; i < c.window; ++i) {
      fillRun(st.send[mine].bytes.data() + i * kMsgBytes,
              st.base[mine].data(), 0, kMsgBytes,
              messageWord(seed, me, win * c.window + i));
    }
    h.addFill(f0, hostNow());

    const TimeNs t0 = p.engine().now();
    std::vector<mpi::Proc::RecvSpec> recvs;
    std::vector<mpi::Proc::SendSpec> sends;
    recvs.reserve(c.window);
    sends.reserve(c.window);
    for (std::size_t i = 0; i < c.window; ++i) {
      // Window-slot tags: windows are serialized by waitall.
      const int tag = static_cast<int>(i);
      recvs.push_back({st.recv[mine].subspan(i * slot, kMsgBytes), type,
                       kMsgBytes, from, tag});
      if (h.opt->inject == Inject::Withhold && me == 0 && win == 0 && i == 0) {
        continue;
      }
      sends.push_back({st.send[mine].subspan(i * kMsgBytes, kMsgBytes), type,
                       kMsgBytes, to, tag});
    }
    std::vector<mpi::RequestPtr> reqs =
        co_await p.irecvBatch(std::move(recvs));
    std::vector<mpi::RequestPtr> sr = co_await p.isendBatch(std::move(sends));
    reqs.insert(reqs.end(), sr.begin(), sr.end());
    co_await p.waitall(std::move(reqs));
    const TimeNs t1 = p.engine().now();
    if (win >= 1) {
      h.lat_us.add(toUs(t1 - t0));
      if (me == 0) h.rank0_us.add(toUs(t1 - t0));
    }

    if (h.opt->inject == Inject::FlipByte && me == 1 && win == 0) {
      st.recv[mine].bytes[7] ^= std::byte{0x01};
    }
    const double k0 = hostNow();
    const auto src = static_cast<std::size_t>(from);
    for (std::size_t i = 0; i < c.window; ++i) {
      const std::byte* got = st.recv[mine].bytes.data() + i * slot;
      if (runMatches(got, st.base[src].data(), 0, kMsgBytes,
                     messageWord(seed, from, win * c.window + i))) {
        ++h.verified;
      }
      if (h.opt->hash_payloads) h.hash = fnv1a(h.hash, got, kMsgBytes);
    }
    h.addCheck(k0, hostNow());
    // A stream cell runs for seconds: rank 0 samples the host speed about
    // a dozen times along the way.
    const std::size_t every = std::max<std::size_t>(1, c.windows / 12);
    if (me == 0 && (win + 1) % every == 0 && win + 1 < c.windows) {
      h.sampleRef();
    }
  }
}

/// Read every layer's counters after the run.
void collect(CellResult& out, sim::Engine& eng, hw::Cluster& cluster,
             mpi::Runtime& rt, const fault::FaultPlan* plan) {
  auto& v = out.virt;
  v["vtime.end_ns"] = static_cast<double>(eng.now());
  v["sim.events"] = static_cast<double>(eng.processedEvents());
  v["sim.peak_pending"] = static_cast<double>(eng.peakPending());
  for (std::size_t g = 0; g < cluster.gpuCount(); ++g) {
    gpu::Gpu& gp = cluster.gpu(g);
    v["gpu.kernels"] += static_cast<double>(gp.kernelsLaunched());
    v["gpu.copies"] += static_cast<double>(gp.copiesIssued());
    v["gpu.busy_ns"] += static_cast<double>(gp.busyTime());
    v["gpu.arena_bytes"] += static_cast<double>(gp.memory().capacity());
  }
  for (int r = 0; r < rt.worldSize(); ++r) {
    mpi::Proc& p = rt.proc(r);
    v["ddt.layout_hits"] += static_cast<double>(p.layoutCache().hits());
    v["ddt.layout_misses"] += static_cast<double>(p.layoutCache().misses());
    v["core.plan_hits"] += static_cast<double>(p.planCache().hits());
    v["core.plan_misses"] += static_cast<double>(p.planCache().misses());
    if (auto* fe = dynamic_cast<schemes::FusionEngine*>(&p.ddtEngine())) {
      v["core.fallbacks"] += static_cast<double>(fe->fallbacks());
      v["core.fused_kernels"] +=
          static_cast<double>(fe->scheduler().fusedKernelsLaunched());
      v["core.requests_fused"] +=
          static_cast<double>(fe->scheduler().requestsFused());
    }
    const mpi::TransportCounters& t = p.transport();
    v["mpi.retransmissions"] += static_cast<double>(t.retransmissions);
    v["mpi.acks"] += static_cast<double>(t.acks_sent);
    v["mpi.duplicates"] += static_cast<double>(t.duplicates_ignored);
    v["mpi.staging_fallbacks"] += static_cast<double>(t.host_staging_fallbacks);
  }
  net::Fabric& fab = cluster.fabric();
  v["net.wire_msgs"] = static_cast<double>(fab.totalMessages());
  v["net.wire_bytes"] = static_cast<double>(fab.totalBytesCarried());
  v["net.armed_events"] = static_cast<double>(fab.batchedArmedEvents());
  v["net.coalesced"] = static_cast<double>(fab.coalescedDeliveries());
  const net::PayloadPool& pool = fab.payloadPool();
  const net::PayloadPoolCounters& pc = pool.counters();
  v["net.pool_reuses"] = static_cast<double>(pc.slab_reuses);
  v["net.pool_slab_allocs"] = static_cast<double>(pc.slab_allocs);
  v["net.pool_checkouts"] = static_cast<double>(
      pc.slab_reuses + pc.slab_allocs + pc.oversize_allocs);
  v["net.pool_peak_bytes"] = static_cast<double>(pool.peakLiveBytes());
  if (plan != nullptr) {
    v["fault.data_drops"] = static_cast<double>(plan->counters().data_drops);
    v["fault.control_drops"] =
        static_cast<double>(plan->counters().control_drops);
  }
}

/// Fig. 11 categories per timed iteration from rank 0's DDT engine, with
/// communication as the residual, as bench::runBulkExchange reports them.
/// `lat` holds rank 0's timed iterations.
void collectBreakdown(CellResult& out, mpi::Proc& p0, const SampleSet& lat) {
  if (lat.count() == 0) return;
  const double n = static_cast<double>(lat.count());
  const TimeBreakdown& bd = p0.ddtEngine().breakdown();
  const double elapsed_ns = lat.mean() * 1e3;
  const double attributed = static_cast<double>(bd.launching + bd.scheduling +
                                                bd.synchronize) / n;
  auto& v = out.virt;
  v["schemes.pack_unpack_ns"] = static_cast<double>(bd.pack_unpack) / n;
  v["schemes.launch_ns"] = static_cast<double>(bd.launching) / n;
  v["schemes.schedule_ns"] = static_cast<double>(bd.scheduling) / n;
  v["schemes.sync_ns"] = static_cast<double>(bd.synchronize) / n;
  v["schemes.comm_ns"] = std::max(0.0, elapsed_ns - attributed);
}

/// runAll under the harness: times the run span, counts allocations, and
/// turns a CheckFailure (watchdog, deadlock dump) into a recorded error.
void runBodies(CellResult& out, mpi::Runtime& rt, Harness& h,
               const std::function<sim::Task<void>(mpi::Proc&)>& body) {
  h.sampleRef();  // opens the first segment
  const double t0 = hostNow();
  h.run_span = h.log->add("sim.run", h.cell, -1, t0, t0);
  h.in_run = true;
  const std::uint64_t a0 = allocCount();
  try {
    rt.runAll(body);
    if (rt.engine().unfinishedTasks() != 0) {
      out.error = std::to_string(rt.engine().unfinishedTasks()) +
                  " rank task(s) deadlocked";
    }
  } catch (const CheckFailure& e) {
    out.error = e.what();
  }
  const double t1 = hostNow();
  h.in_run = false;
  out.allocs = allocCount() - a0;
  h.log->setEnd(h.run_span, t1);
  h.sampleRef();  // closes the last segment
  out.run_s = t1 - t0;
  out.fill_s = h.fill_s;
  out.check_s = h.check_s;
  out.ref_in_s = h.ref_in_s;
  out.speed = std::move(h.speed);
}

CellResult runBulk(const BulkCell& c, const RunOptions& opt, SpanLog& log,
                   int cell) {
  CellResult out;
  Harness h;
  h.opt = &opt;
  h.log = &log;
  h.cell = cell;
  BulkState st;
  st.cfg = &c;
  st.wl = c.make(c.dim);
  const ddt::Layout layout = ddt::flatten(st.wl.type, st.wl.count);
  st.runs = runsOf(layout);
  DKF_CHECK(!st.runs.empty());
  // Buffers as bench::runBulkExchange sizes them; the arena is what they
  // need (3 x n_ops x region + 8 MiB) without runBulkExchange's 96 MiB
  // floor, whose zero-fill would be most of a sparse cell's host time and
  // leave fewer passes to measure the simulator in. Virtual results do not
  // depend on the arena size (see the fidelity check).
  st.region = std::max<std::size_t>(st.wl.regionBytes(), 64);
  st.words = (st.region + 7) / 8;
  hw::MachineSpec machine = hw::lassen();
  machine.node.gpu.arena_bytes =
      st.region * static_cast<std::size_t>(c.n_ops) * 3 + (8u << 20);
  machine.node.gpus_per_node = 1;

  const double s0 = hostNow();
  sim::Engine eng;
  hw::Cluster cluster(eng, machine, 2);
  const double s1 = hostNow();
  log.add("hw.Cluster", cell, -1, s0, s1);

  mpi::RuntimeConfig rc;
  rc.scheme = c.scheme;
  if (c.scheme == schemes::Scheme::ProposedTuned) {
    // The model-predicted threshold the figure sweeps use.
    const core::ThresholdModel model(machine.node.gpu,
                                     machine.internode.bandwidth);
    rc.tuned_threshold = model.predict(layout);
  }
  mpi::Runtime rt(cluster, rc);
  const double s2 = hostNow();
  log.add("mpi.Runtime", cell, -1, s1, s2);

  for (std::size_t side = 0; side < 2; ++side) {
    mpi::Proc& p = rt.proc(static_cast<int>(side));
    for (int i = 0; i < c.n_ops; ++i) {
      st.send[side].push_back(
          p.allocDevice(8 * st.words).subspan(0, st.region));
      // The guard is allocated with the buffer; the runtime sees only
      // the region.
      st.recv[side].push_back(
          p.allocDevice(st.region + kGuard).subspan(0, st.region));
    }
  }
  const double s3 = hostNow();
  log.add("gpu.allocDevice", cell, -1, s2, s3);
  out.cluster_s = s1 - s0;
  out.runtime_s = s2 - s1;
  out.alloc_s = s3 - s2;

  st.wide = layout.meanBlock() < kWideMeanRun;
  if (st.wide) {
    st.mask.assign(st.words, 0);
    auto* m = reinterpret_cast<unsigned char*>(st.mask.data());
    for (const Run& r : st.runs) std::fill_n(m + r.off, r.len, 0xFF);
  }
  for (std::size_t side = 0; side < 2; ++side) {
    st.base[side] =
        basePattern(opt.seed, static_cast<int>(side), 8 * st.words);
    for (const gpu::MemSpan& r : st.recv[side]) {
      std::fill_n(r.bytes.data(), st.region + kGuard, kSentinel);
    }
  }
  if (opt.watchdog > 0) eng.setWatchdog(opt.watchdog);

  runBodies(out, rt, h, [&](mpi::Proc& p) { return bulkRank(p, st, h); });

  // Stray writes: every byte outside the layout, and the guard, must still
  // hold the sentinel. A damaged buffer fails one more message.
  std::uint64_t damaged = 0;
  for (std::size_t side = 0; side < 2; ++side) {
    for (const gpu::MemSpan& r : st.recv[side]) {
      const std::byte* b = r.bytes.data();
      bool ok = allSentinel(b + st.region, kGuard);
      std::size_t cursor = 0;
      for (const Run& run : st.runs) {
        ok = ok && allSentinel(b + cursor, run.off - cursor);
        cursor = run.off + run.len;
      }
      ok = ok && allSentinel(b + cursor, st.region - cursor);
      damaged += ok ? 0 : 1;
    }
  }

  const auto per_iter = static_cast<std::uint64_t>(2 * c.n_ops);
  out.messages = per_iter * static_cast<std::uint64_t>(c.warmup + c.iterations);
  out.verified = h.verified - std::min(h.verified, damaged);
  out.pack_calls = layout.isContiguous() ? 0 : out.messages;
  out.payload_hash = h.hash;
  collect(out, eng, cluster, rt, nullptr);
  collectBreakdown(out, rt.proc(0), h.rank0_us);
  out.virt["vlat_us"] = h.lat_us.count() ? h.lat_us.mean() : 0.0;
  out.virt["ddt.blocks"] =
      static_cast<double>(layout.blockCount() * out.messages);
  out.virt["ddt.packed_bytes"] =
      static_cast<double>(layout.size() * out.messages);
  return out;
}

CellResult runStream(const StreamCell& c, const RunOptions& opt, SpanLog& log,
                     int cell) {
  CellResult out;
  Harness h;
  h.opt = &opt;
  h.log = &log;
  h.cell = cell;
  StreamState st;
  st.cfg = &c;
  const std::size_t slot = kMsgBytes + kGuard;

  const double s0 = hostNow();
  sim::Engine eng;
  std::optional<fault::FaultPlan> plan;
  if (c.loss > 0.0) {
    fault::FaultSpec fs;
    fs.seed = mix64(opt.seed ^ 0xfa17ull);
    fs.data_loss = c.loss;
    fs.control_loss = c.loss;
    plan.emplace(eng, fs);
  }
  hw::Cluster cluster(eng, hw::lassen(), c.nodes);
  if (plan) cluster.setFaultPlan(&*plan);
  const double s1 = hostNow();
  log.add("hw.Cluster", cell, -1, s0, s1);

  mpi::RuntimeConfig rc;
  if (plan) {
    // Backoff capped at 4x the base timeout: with an uncapped exponential
    // backoff a handful of messages lost six or more times in a row stall
    // the whole ring for milliseconds and set a run's mean on their own.
    rc.reliability.enabled = true;
    rc.reliability.base_timeout = us(40);
    rc.reliability.max_timeout = us(160);
    rc.reliability.max_retries = 60;
  }
  mpi::Runtime rt(cluster, rc);
  const double s2 = hostNow();
  log.add("mpi.Runtime", cell, -1, s1, s2);

  st.ranks = rt.worldSize();
  for (int r = 0; r < st.ranks; ++r) {
    st.send.push_back(rt.proc(r).allocDevice(c.window * kMsgBytes));
    st.recv.push_back(rt.proc(r).allocDevice(c.window * slot));
  }
  const double s3 = hostNow();
  log.add("gpu.allocDevice", cell, -1, s2, s3);
  out.cluster_s = s1 - s0;
  out.runtime_s = s2 - s1;
  out.alloc_s = s3 - s2;

  for (int r = 0; r < st.ranks; ++r) {
    st.base.push_back(basePattern(opt.seed, r, kMsgBytes));
    std::fill_n(st.recv[static_cast<std::size_t>(r)].bytes.data(),
                c.window * slot, kSentinel);
  }
  if (opt.watchdog > 0) eng.setWatchdog(opt.watchdog);

  runBodies(out, rt, h, [&](mpi::Proc& p) { return streamRank(p, st, h); });

  std::uint64_t damaged = 0;
  for (const gpu::MemSpan& r : st.recv) {
    for (std::size_t i = 0; i < c.window; ++i) {
      damaged += allSentinel(r.bytes.data() + i * slot + kMsgBytes, kGuard)
                     ? 0
                     : 1;
    }
  }
  out.messages = static_cast<std::uint64_t>(st.ranks) * c.windows * c.window;
  out.verified = h.verified - std::min(h.verified, damaged);
  out.pack_calls = 0;
  out.payload_hash = h.hash;
  collect(out, eng, cluster, rt, plan ? &*plan : nullptr);
  collectBreakdown(out, rt.proc(0), h.rank0_us);
  out.virt["vlat_us"] = h.lat_us.count() ? h.lat_us.mean() : 0.0;
  out.virt["ddt.blocks"] = static_cast<double>(out.messages);
  out.virt["ddt.packed_bytes"] = static_cast<double>(kMsgBytes * out.messages);
  return out;
}

}  // namespace

CellResult runCell(const CellSpec& spec, const RunOptions& opt, SpanLog& log,
                   int cell_id) {
  return spec.bulk ? runBulk(spec.b, opt, log, cell_id)
                   : runStream(spec.s, opt, log, cell_id);
}

}  // namespace perfbench
