// Shared pieces of the benchmark program: the host clock, the in-memory span
// log, the cell descriptions and the per-cell result record.
//
// A *cell* is one simulation: one hw::Cluster + mpi::Runtime built, run to
// completion and torn down. A workload is a fixed list of cells; one *pass*
// runs every cell once.
#pragma once

#include <time.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "schemes/factory.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

/// Host clock in seconds: CPU time of this process. Every host figure is
/// taken on it rather than on the wall clock, because on a shared virtual
/// machine the wall clock also runs while the vCPU is descheduled, and the
/// kernel keeps that (steal) time out of CPU time.
inline double hostNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall clock in seconds; paces a run against --seconds only.
inline double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans --

struct Span {
  const char* name;
  int cell;
  int parent;  ///< index into the log, -1 for a root span
  double start;
  double end;
};

/// Spans kept in memory and written out when the run ends. Untraced runs
/// take the same clock readings but keep nothing.
class SpanLog {
 public:
  explicit SpanLog(bool keep) : keep_(keep) {
    if (keep_) spans_.reserve(1 << 16);
  }
  int add(const char* name, int cell, int parent, double start, double end) {
    if (!keep_) return -1;
    spans_.push_back({name, cell, parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }
  void setEnd(int id, double end) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = end;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool keep_;
  std::vector<Span> spans_;
};

/// Position-dependent pattern of `n` bytes for sender `src`: the base the
/// oracle in cells.cpp derives every message's content from.
std::vector<std::byte> basePattern(std::uint64_t seed, int src, std::size_t n);

// ------------------------------------------------------ speed reference --

/// Host-speed reference. On a shared host the memory system's speed drifts
/// by tens of percent over seconds to minutes, and every host figure drifts
/// with it. The reference is a fixed sweep — memset, then one read per cache
/// line — over a private buffer, sampled around and inside every cell. The
/// simulator's time between two samples is scaled by kNominalS over their
/// mean, a cell's set-up time by kNominalS over the mean of its samples, so
/// both read as seconds on a host where the sweep takes kNominalS. The
/// sweep is the benchmark's own code and touches no simulator state.
class SpeedReference {
 public:
  static constexpr std::size_t kBytes = std::size_t{32} << 20;
  /// The sweep's time on an idle 4-vCPU Xeon (Sapphire Rapids) KVM guest.
  static constexpr double kNominalS = 0.008;

  SpeedReference();
  /// One sample: an untimed sweep brings the buffer in, a second is timed.
  /// Returns the timed sweep's host seconds.
  double sample();

 private:
  std::vector<std::byte> buf_;
  int fill_{0};
};

/// Host-speed samples of one cell, in run order, and the simulator's own
/// time between consecutive samples: segment k lies between samples k and
/// k + 1 and is scaled by their mean.
struct SpeedTrace {
  std::vector<double> samples;  ///< reference sweep seconds
  std::vector<double> seg_s;    ///< simulator seconds per segment

  double meanSample() const {
    double s = 0;
    for (double x : samples) s += x;
    return samples.empty() ? 0.0 : s / static_cast<double>(samples.size());
  }
  /// Segment k in reference seconds.
  double scaledSeg(std::size_t k) const {
    return seg_s[k] * 2.0 * SpeedReference::kNominalS /
           (samples[k] + samples[k + 1]);
  }
};

// ---------------------------------------------------------------- cells --

/// Harness fault injected by the oracle self-test.
enum class Inject { None, FlipByte, Withhold };

/// Paper loop (§V-A) between two ranks on two Lassen nodes.
struct BulkCell {
  std::string layout;  ///< workload name, e.g. "specfem3D_cm"
  dkf::workloads::Workload (*make)(std::size_t);
  std::size_t dim;
  dkf::schemes::Scheme scheme;
  int n_ops{32};
  int iterations{30};
  int warmup{5};
};

/// Payload of one stream message: contiguous bytes, well under Lassen's
/// eager limit.
inline constexpr std::size_t kMsgBytes = 1024;

/// Ring of eager kMsgBytes messages posted in windows through the batch
/// front door; `loss` > 0 adds a fault plan and the reliable transport.
struct StreamCell {
  std::size_t nodes{4};
  std::size_t windows{4};
  std::size_t window{4096};
  double loss{0.0};
};

struct CellSpec {
  std::string label;
  bool bulk{true};
  BulkCell b{};
  StreamCell s{};
};

struct RunOptions {
  std::uint64_t seed{1};
  Inject inject{Inject::None};
  bool hash_payloads{false};  ///< fold every delivered byte into a hash
  dkf::TimeNs watchdog{0};    ///< virtual deadline per cell
  /// Samples the host speed around and inside each cell; null leaves host
  /// times unscaled.
  SpeedReference* ref{nullptr};
};

struct CellResult {
  // Host clock, seconds.
  double cluster_s{0}, runtime_s{0}, alloc_s{0};
  double run_s{0};    ///< Runtime::runAll, including the harness children
  double fill_s{0};   ///< harness input fill inside runAll
  double check_s{0};  ///< harness byte check inside runAll
  double ref_in_s{0};  ///< reference samples taken inside runAll
  SpeedTrace speed;    ///< host-speed samples around and inside runAll
  std::uint64_t allocs{0};  ///< heap allocations during runAll (0 if the
                            ///< build does not count)

  std::uint64_t messages{0};   ///< point-to-point messages the cell posts
  std::uint64_t verified{0};   ///< messages whose bytes checked out
  std::uint64_t pack_calls{0};  ///< pack (and as many unpack) operations
  std::uint64_t payload_hash{0};
  std::string error;  ///< CheckFailure text when the run did not complete

  /// Virtual-clock results and layer counters. Deterministic for a seed:
  /// two passes of one cell must produce identical maps.
  std::map<std::string, double> virt;

  double simSelf() const { return run_s - fill_s - check_s - ref_in_s; }
  /// Factor that turns this cell's host seconds into reference seconds.
  double speedScale() const {
    const double m = speed.meanSample();
    return m > 0 ? SpeedReference::kNominalS / m : 1.0;
  }
  std::uint64_t failed() const { return messages - verified; }
};

/// Run one cell. Spans are recorded under `cell_id`.
CellResult runCell(const CellSpec& spec, const RunOptions& opt, SpanLog& log,
                   int cell_id);

}  // namespace perfbench
