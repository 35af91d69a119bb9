#include "ddt/pack.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/check.hpp"

namespace dkf::ddt {

// The hot paths iterate the compressed form directly — group x run loop
// nests with no materialized segment list, so a bulk-sparse request
// (thousands of runs x hundreds of elements) moves bytes with O(groups)
// bookkeeping instead of O(total runs) cache-hostile pointer chasing.
//
// Every run lies in the layout's [minOffset, endOffset) cover, so each call
// checks its buffers against that interval once, before any byte moves, and
// the run loops carry no checks. Each group's run length then picks the copy
// once for all its runs: a constant-size move for 4 B runs (the sparse
// layouts' element size), an inline overlapping head/tail move for other
// runs of at most 16 B, and libc memcpy above that.

namespace {

/// Exactly 4 bytes: one load/store pair.
struct Copy4 {
  void operator()(std::byte* d, const std::byte* s, std::size_t) const {
    std::memcpy(d, s, 4);
  }
};

/// 1..16 bytes: two moves of the widest word W with sizeof(W) <= n, one at
/// each end of the run (they overlap unless n == 2 * sizeof(W)). Both reads
/// finish before either write; every access stays inside [s, s + n) and
/// [d, d + n).
struct SmallCopy {
  template <class W>
  static void ends(std::byte* d, const std::byte* s, std::size_t n) {
    W head;
    W tail;
    std::memcpy(&head, s, sizeof(W));
    std::memcpy(&tail, s + n - sizeof(W), sizeof(W));
    std::memcpy(d, &head, sizeof(W));
    std::memcpy(d + n - sizeof(W), &tail, sizeof(W));
  }

  void operator()(std::byte* d, const std::byte* s, std::size_t n) const {
    if (n >= 8) {
      ends<std::uint64_t>(d, s, n);
    } else if (n >= 4) {
      ends<std::uint32_t>(d, s, n);
    } else if (n >= 2) {
      ends<std::uint16_t>(d, s, n);
    } else {
      *d = *s;
    }
  }
};

struct LargeCopy {
  void operator()(std::byte* d, const std::byte* s, std::size_t n) const {
    std::memcpy(d, s, n);
  }
};

/// Moves `count` runs of `len` bytes between the strided side (run j at
/// `base + off + j * stride`) and the packed side (back to back from
/// `packed`): strided -> packed if kGather, else packed -> strided. Returns
/// the packed cursor past the runs. Everything arrives by value, so the loop
/// keeps it in registers — byte stores may alias any memory it would
/// otherwise reload from.
template <bool kGather, class Copy, class Strided, class Packed>
Packed* moveRuns(Copy copy, Strided* base, std::int64_t off,
                 std::int64_t stride, std::size_t count, std::size_t len,
                 Packed* packed) {
  for (; count != 0; --count, off += stride, packed += len) {
    if constexpr (kGather) {
      copy(packed, base + off, len);
    } else {
      copy(base + off, packed, len);
    }
  }
  return packed;
}

/// One group's runs, with the copy picked once from its run length. Forced
/// inline into the section loops, with 4 B runs as the fall-through path:
/// sparse layouts average ~2.4 runs per group and are mostly 4 B elements,
/// so a call or a taken branch per group costs as much as the copies.
template <bool kGather, class Strided, class Packed>
[[gnu::always_inline]] inline Packed* moveGroup(const RunGroup& g,
                                                std::int64_t shift,
                                                Strided* base,
                                                Packed* packed) {
  const std::int64_t off = g.base_offset + shift;
  switch (g.run_len) {
    [[likely]] case 4:
      return moveRuns<kGather>(Copy4{}, base, off, g.stride, g.run_count, 4,
                               packed);
    default:
      if (g.run_len <= 16) {
        return moveRuns<kGather>(SmallCopy{}, base, off, g.stride,
                                 g.run_count, g.run_len, packed);
      }
      return moveRuns<kGather>(LargeCopy{}, base, off, g.stride, g.run_count,
                               g.run_len, packed);
  }
}

/// Throws CheckFailure unless a `size`-byte buffer covers every run of
/// `layout`, i.e. [minOffset, endOffset) lies within [0, size).
void checkCovers(const Layout& layout, std::size_t size, const char* what) {
  DKF_CHECK_MSG(layout.minOffset() >= 0,
                "negative segment offset " << layout.minOffset() << " in "
                                           << what << " layout");
  DKF_CHECK_MSG(static_cast<std::uint64_t>(layout.endOffset()) <= size,
                "segments end at " << layout.endOffset() << ", beyond "
                                   << what << " size " << size);
}

void checkPacked(const Layout& layout, std::size_t size) {
  DKF_CHECK_MSG(size >= layout.size(),
                "packed buffer too small: " << size << " < " << layout.size());
}

}  // namespace

// packCpu/unpackCpu inline every run loop. At a few ns per 4 B run, their
// speed moved by up to 2x with code placement alone (4-vCPU KVM guest), so
// edits elsewhere in the library shifted them. Cache-line alignment keeps
// the loops' offsets within a line fixed.
[[gnu::aligned(64)]] std::size_t packCpu(const Layout& layout,
                                         std::span<const std::byte> origin,
                                         std::span<std::byte> packed) {
  checkPacked(layout, packed.size());
  checkCovers(layout, origin.size(), "origin");
  const std::byte* const base = origin.data();
  std::byte* out = packed.data();
  layout.forEachGroup([&](const RunGroup& g, std::int64_t shift) {
    out = moveGroup<true>(g, shift, base, out);
  });
  return layout.size();
}

[[gnu::aligned(64)]] std::size_t unpackCpu(const Layout& layout,
                                           std::span<const std::byte> packed,
                                           std::span<std::byte> origin) {
  checkPacked(layout, packed.size());
  checkCovers(layout, origin.size(), "origin");
  std::byte* const base = origin.data();
  const std::byte* in = packed.data();
  layout.forEachGroup([&](const RunGroup& g, std::int64_t shift) {
    in = moveGroup<false>(g, shift, base, in);
  });
  return layout.size();
}

std::size_t copyStrided(const Layout& src_layout,
                        std::span<const std::byte> src,
                        const Layout& dst_layout, std::span<std::byte> dst) {
  DKF_CHECK_MSG(src_layout.size() == dst_layout.size(),
                "strided copy size mismatch: " << src_layout.size() << " vs "
                                               << dst_layout.size());
  checkCovers(src_layout, src.size(), "source");
  checkCovers(dst_layout, dst.size(), "destination");
  // Walk both compressed layouts in lockstep — two O(1)-state group cursors,
  // splitting runs on the shorter side; neither segment list exists.
  auto si = src_layout.runs();
  auto di = dst_layout.runs();
  std::size_t s_used = 0, d_used = 0;
  while (!si.done() && !di.done()) {
    const std::size_t chunk = std::min(si.len() - s_used, di.len() - d_used);
    std::memcpy(dst.data() + di.offset() + d_used,
                src.data() + si.offset() + s_used, chunk);
    s_used += chunk;
    d_used += chunk;
    if (s_used == si.len()) {
      si.next();
      s_used = 0;
    }
    if (d_used == di.len()) {
      di.next();
      d_used = 0;
    }
  }
  return src_layout.size();
}

}  // namespace dkf::ddt
