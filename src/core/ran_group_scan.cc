#include "core/ran_group_scan.h"

#include <algorithm>
#include <stdexcept>

#include "core/g_order.h"
#include "util/rng.h"

namespace fsi {

double RanGroupScanIntersection::StepCost(const StepCostQuery& q,
                                          const CostConstants& c) {
  return c.scan_ns * static_cast<double>(q.small_size + q.large_size) +
         c.scan_result_ns * q.est_result;
}

ScanSet::ScanSet(std::span<const Elem> set, const FeistelPermutation& g,
                 const WordHashFamily& hashes, int t)
    : t_(t), m_(hashes.size()) {
  std::vector<std::uint32_t> gvals = GOrder(set, g, "RanGroupScan");

  std::uint64_t groups = std::uint64_t{1} << t_;
  int shift = g.domain_bits() - t_;
  std::vector<std::uint32_t> group_start(groups + 1, 0);
  for (std::uint32_t gv : gvals) {
    ++group_start[(static_cast<std::uint64_t>(gv) >> shift) + 1];
  }
  for (std::size_t z = 1; z <= groups; ++z) {
    group_start[z] += group_start[z - 1];
  }
  std::vector<Word> images(groups * static_cast<std::uint64_t>(m_), 0);
  for (std::uint64_t z = 0; z < groups; ++z) {
    Word* img = &images[z * static_cast<std::uint64_t>(m_)];
    for (std::uint32_t i = group_start[z]; i < group_start[z + 1]; ++i) {
      hashes.AccumulateImages(gvals[i], img);
    }
  }
  group_start_ = storage::FlatArray<std::uint32_t>(std::move(group_start));
  images_ = storage::FlatArray<Word>(std::move(images));
  gvals_ = storage::FlatArray<std::uint32_t>(std::move(gvals));
}

ScanSet::ScanSet(int t, int m, storage::FlatArray<std::uint32_t> group_start,
                 storage::FlatArray<Word> images,
                 storage::FlatArray<std::uint32_t> gvals)
    : t_(t),
      m_(m),
      group_start_(std::move(group_start)),
      images_(std::move(images)),
      gvals_(std::move(gvals)) {
  Validate();
}

void ScanSet::Validate() const {
  using storage::SnapshotError;
  using storage::SnapshotErrorCode;
  if (t_ < 0 || t_ > 32 || m_ < 1 || m_ > 64) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        "ScanSet: implausible header (t=" +
                            std::to_string(t_) + ", m=" +
                            std::to_string(m_) + ")");
  }
  const std::uint64_t groups = std::uint64_t{1} << t_;
  if (group_start_.size() != groups + 1 ||
      images_.size() != groups * static_cast<std::uint64_t>(m_)) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        "ScanSet: array sizes inconsistent with t/m");
  }
  if (group_start_.front() != 0 || group_start_.back() != gvals_.size()) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        "ScanSet: corrupt group offsets");
  }
  for (std::size_t z = 1; z < group_start_.size(); ++z) {
    if (group_start_[z] < group_start_[z - 1]) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          "ScanSet: corrupt group offsets");
    }
  }
}

void ScanSet::WriteFlat(storage::PayloadWriter& payload,
                        storage::SetRecord& record) const {
  record.kind = static_cast<std::uint32_t>(storage::SetKind::kScan);
  record.t = t_;
  record.m = static_cast<std::uint32_t>(m_);
  record.group_start = payload.Append(group_start_.view());
  record.images = payload.Append(images_.view());
  record.gvals = payload.Append(gvals_.view());
}

std::unique_ptr<ScanSet> ScanSet::ViewFlat(std::span<const std::byte> payload,
                                           const storage::SetRecord& record) {
  return std::unique_ptr<ScanSet>(new ScanSet(
      record.t, static_cast<int>(record.m),
      storage::FlatArray<std::uint32_t>::View(storage::ResolveSpan<std::uint32_t>(
          payload, record.group_start, "ScanSet.group_start")),
      storage::FlatArray<Word>::View(
          storage::ResolveSpan<Word>(payload, record.images, "ScanSet.images")),
      storage::FlatArray<std::uint32_t>::View(storage::ResolveSpan<std::uint32_t>(
          payload, record.gvals, "ScanSet.gvals"))));
}

std::size_t ScanSet::SizeInWordsFor(std::size_t n, int t, int m) {
  const std::size_t groups = std::size_t{1} << t;
  return (n * sizeof(std::uint32_t) + 7) / 8 +
         ((groups + 1) * sizeof(std::uint32_t) + 7) / 8 +
         groups * static_cast<std::size_t>(m);
}

RanGroupScanIntersection::RanGroupScanIntersection(const Options& options)
    : options_(options),
      name_("RanGroupScan"),
      g_(options.universe_bits, SplitMix64(options.seed).Next()),
      hashes_(options.m, SplitMix64(options.seed ^ 0xc0ac29b7c97c50ddULL)
                             .Next()),
      kernels_(&simd::Select(options.simd)) {
  if (options.m < 1) {
    throw std::invalid_argument("RanGroupScan: m must be >= 1");
  }
  if (options.group_width < 1) {
    throw std::invalid_argument("RanGroupScan: group_width must be >= 1");
  }
}

int RanGroupScanIntersection::Resolution(std::size_t n) const {
  // t_i = ceil(log2(n_i / sqrt(w))), clamped into [0, domain_bits]
  // (Theorem 3.9 and Section 3.3.1: the resolution depends only on |L_i|,
  // so a single partitioning per set suffices).
  const std::uint64_t width = options_.group_width;
  int t = 0;
  if (n > width) {
    t = CeilLog2((n + width - 1) / width);
  }
  return std::min(t, g_.domain_bits());
}

std::unique_ptr<PreprocessedSet> RanGroupScanIntersection::Preprocess(
    std::span<const Elem> set) const {
  return std::make_unique<ScanSet>(set, g_, hashes_, Resolution(set.size()));
}

void RanGroupScanIntersection::Intersect(
    std::span<const PreprocessedSet* const> sets, ElemList* out) const {
  IntersectUnordered(sets, out);
  std::sort(out->begin(), out->end());
}

void RanGroupScanIntersection::IntersectUnordered(
    std::span<const PreprocessedSet* const> sets, ElemList* out) const {
  std::size_t k = sets.size();
  if (k == 0) return;
  // Scratch is thread-local: queries on short posting lists run in a few
  // microseconds, where per-call allocation would dominate.
  thread_local std::vector<const ScanSet*> sorted;
  sorted.clear();
  sorted.reserve(k);
  for (const PreprocessedSet* s : sets) sorted.push_back(&As<ScanSet>(*s));
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const ScanSet* a, const ScanSet* b) { return a->size() < b->size(); });

  thread_local std::vector<std::uint32_t> result_gvals;
  result_gvals.clear();
  if (sorted[0]->size() == 0) return;
  if (k == 1) {
    result_gvals.assign(sorted[0]->gvals().begin(), sorted[0]->gvals().end());
  } else {
    const int m = options_.m;
    const int b = g_.domain_bits();
    // Resolutions come from pre-processing; enforce t_1 <= ... <= t_k so the
    // prefix relation of Algorithm 5 holds even for equal-size sets.
    thread_local std::vector<int> t;
    t.assign(k, 0);
    for (std::size_t i = 0; i < k; ++i) t[i] = sorted[i]->t();
    for (std::size_t i = k - 1; i > 0; --i) {
      t[i - 1] = std::min(t[i - 1], t[i]);
      if (t[i - 1] != sorted[i - 1]->t()) {
        // A mismatched resolution would need a rebuild; in practice sizes
        // are ascending so this never triggers — guard anyway.
        throw std::logic_error("RanGroupScan: inconsistent resolutions");
      }
    }
    const int tk = t[k - 1];
    const std::uint64_t zk_count = std::uint64_t{1} << tk;

    // Fast path 1: two sets at any resolutions t1 <= t2 (the dominant query
    // shape).  z_k iterates set 2's groups; set 1's matching group is the
    // prefix, tracked with one rolling cursor — the per-window vector
    // machinery of the general path is unnecessary.  When t1 == t2 the
    // window equals the group pair and the cursor advances trivially.
    bool aligned = options_.memoize;
    for (std::size_t i = 0; i + 1 < k; ++i) aligned &= (t[i] == t[i + 1]);
    if (k == 2 && options_.memoize) {
      const ScanSet& a = *sorted[0];
      const ScanSet& b2 = *sorted[1];
      const int dt = t[1] - t[0];
      const int low_bits = b - t[1];
      std::span<const std::uint32_t> ga = a.gvals();
      std::span<const std::uint32_t> gb = b2.gvals();
      // Only z_2 windows containing elements of the *smaller* set can
      // contribute, so walk the smaller set's g-values and visit each
      // distinct t2-prefix once — min(n1, n2/sqrt(w)) image tests instead
      // of n2/sqrt(w).  (Windows the loop skips have an empty set-1 side,
      // exactly what Algorithm 5's verification would conclude.)
      if (dt == 0) {
        // Equal resolutions: groups align one-to-one and the prefix runs
        // are exactly the groups — skip the run detection.
        for (std::uint64_t z = 0; z < zk_count; ++z) {
          bool survives = true;
          for (int j = 0; j < m; ++j) {
            if ((a.Image(z, j) & b2.Image(z, j)) == 0) {
              survives = false;
              break;
            }
          }
          if (!survives) continue;
          // The surviving group pair resolves through the kernel layer:
          // one broadcast compares a g-value against a whole group on the
          // vector tiers (the paper's word-level group-vs-element idea at
          // lane width), the scalar tier is the original two-pointer loop.
          auto [alo, ahi] = a.GroupRange(z);
          auto [blo, bhi] = b2.GroupRange(z);
          kernels_->intersect_pair(ga.data() + alo, ahi - alo,
                                   gb.data() + blo, bhi - blo, &result_gvals);
        }
        goto done_two_set;
      }
      {
      std::uint32_t ca = 0;
      const std::uint32_t na = static_cast<std::uint32_t>(ga.size());
      while (ca < na) {
        const std::uint64_t z2 = static_cast<std::uint64_t>(ga[ca]) >> low_bits;
        const std::uint64_t z1 = z2 >> dt;
        // The run of set-1 elements sharing this window.
        std::uint32_t ra = ca + 1;
        while (ra < na &&
               (static_cast<std::uint64_t>(ga[ra]) >> low_bits) == z2) {
          ++ra;
        }
        bool survives = true;
        for (int j = 0; j < m; ++j) {
          if ((a.Image(z1, j) & b2.Image(z2, j)) == 0) {
            survives = false;
            break;
          }
        }
        if (survives) {
          auto [blo, bhi] = b2.GroupRange(z2);  // group z2 == the window
          kernels_->intersect_pair(ga.data() + ca, ra - ca,
                                   gb.data() + blo, bhi - blo, &result_gvals);
        }
        ca = ra;
      }
      }
    done_two_set:;
    } else if (aligned && k >= 3) {
      // Fast path 2: k sets at one shared resolution — group tuples align
      // one-to-one; AND all k*m images, then round-robin merge the groups.
      std::span<const std::uint32_t> g0 = sorted[0]->gvals();
      thread_local std::vector<std::uint32_t> pos_a;
      thread_local std::vector<std::uint32_t> lim_a;
      pos_a.assign(k, 0);
      lim_a.assign(k, 0);
      for (std::uint64_t z = 0; z < zk_count; ++z) {
        bool survives = true;
        for (int j = 0; j < m && survives; ++j) {
          Word acc = sorted[0]->Image(z, j);
          for (std::size_t i = 1; i < k && acc != 0; ++i) {
            acc &= sorted[i]->Image(z, j);
          }
          survives = (acc != 0);
        }
        if (!survives) continue;
        bool empty_group = false;
        for (std::size_t i = 0; i < k; ++i) {
          auto [lo, hi] = sorted[i]->GroupRange(z);
          pos_a[i] = lo;
          lim_a[i] = hi;
          empty_group |= (lo == hi);
        }
        if (empty_group) continue;
        std::uint32_t cand = g0[pos_a[0]];
        std::size_t agree = 1;
        std::size_t i = 1;
        while (true) {
          std::span<const std::uint32_t> gv = sorted[i]->gvals();
          std::uint32_t p = pos_a[i];
          while (p < lim_a[i] && gv[p] < cand) ++p;
          pos_a[i] = p;
          if (p >= lim_a[i]) break;
          if (gv[p] == cand) {
            if (++agree == k) {
              result_gvals.push_back(cand);
              ++pos_a[i];
              if (pos_a[i] >= lim_a[i]) break;
              cand = gv[pos_a[i]];
              agree = 1;
            }
          } else {
            cand = gv[p];
            agree = 1;
          }
          i = (i + 1) % k;
        }
      }
    } else if (options_.memoize) {
      // Fast path 3: k >= 3 sets at mixed resolutions — the run-based walk
      // of fast path 1 generalized.  Only windows holding elements of the
      // smallest set can contribute; per surviving window the other sets'
      // groups are clipped to the window with monotone rolling cursors.
      const ScanSet& lead = *sorted[0];
      const int tk = t[k - 1];
      const int low_bits = b - tk;
      std::span<const std::uint32_t> gl = lead.gvals();
      const std::uint32_t nl = static_cast<std::uint32_t>(gl.size());
      thread_local std::vector<std::uint32_t> cur;
      cur.assign(k, 0);
      thread_local std::vector<std::uint32_t> pos_r;
      pos_r.assign(k, 0);
      thread_local std::vector<std::uint32_t> lim_r;
      lim_r.assign(k, 0);
      std::uint32_t ca = 0;
      while (ca < nl) {
        const std::uint64_t zk =
            static_cast<std::uint64_t>(gl[ca]) >> low_bits;
        std::uint32_t ra = ca + 1;
        while (ra < nl &&
               (static_cast<std::uint64_t>(gl[ra]) >> low_bits) == zk) {
          ++ra;
        }
        bool survives = true;
        for (int j = 0; j < m && survives; ++j) {
          Word acc = sorted[0]->Image(zk >> (tk - t[0]), j);
          for (std::size_t i = 1; i < k && acc != 0; ++i) {
            acc &= sorted[i]->Image(zk >> (tk - t[i]), j);
          }
          survives = (acc != 0);
        }
        if (survives) {
          const std::uint64_t win_lo = zk << low_bits;
          const std::uint64_t win_hi = (zk + 1) << low_bits;
          bool empty_window = false;
          pos_r[0] = ca;
          lim_r[0] = ra;
          for (std::size_t i = 1; i < k; ++i) {
            std::uint64_t zi = zk >> (tk - t[i]);
            auto [lo, hi] = sorted[i]->GroupRange(zi);
            std::uint32_t c = std::max(cur[i], lo);
            std::span<const std::uint32_t> gv = sorted[i]->gvals();
            while (c < hi && gv[c] < win_lo) ++c;
            cur[i] = c;
            pos_r[i] = c;
            lim_r[i] = hi;
            if (c >= hi || gv[c] >= win_hi) {
              empty_window = true;
              break;
            }
          }
          if (!empty_window) {
            std::uint32_t cand = gl[pos_r[0]];
            std::size_t agree = 1;
            std::size_t i = 1;
            while (true) {
              std::span<const std::uint32_t> gv = sorted[i]->gvals();
              std::uint32_t p = pos_r[i];
              while (p < lim_r[i] && gv[p] < cand) ++p;
              pos_r[i] = p;
              if (i != 0 && cur[i] < p) cur[i] = p;
              if (p >= lim_r[i] || gv[p] >= win_hi) break;
              if (gv[p] == cand) {
                if (++agree == k) {
                  result_gvals.push_back(cand);
                  ++pos_r[i];
                  if (i != 0 && cur[i] < pos_r[i]) cur[i] = pos_r[i];
                  if (pos_r[i] >= lim_r[i] || gv[pos_r[i]] >= win_hi) break;
                  cand = gv[pos_r[i]];
                  agree = 1;
                }
              } else {
                cand = gv[p];
                agree = 1;
              }
              i = (i + 1) % k;
            }
          }
        }
        ca = ra;
      }
    } else {
    // Memoized partial ANDs: partial[i*m + j] = AND of image j over sets
    // 0..i (A.5.3).
    thread_local std::vector<Word> partial;
    partial.assign(k * static_cast<std::size_t>(m), 0);
    thread_local std::vector<std::uint64_t> prev_z;
    prev_z.assign(k, ~std::uint64_t{0});
    // Rolling per-set cursors; monotone because z_k only increases.
    thread_local std::vector<std::uint32_t> cursor;
    cursor.assign(k, 0);
    thread_local std::vector<std::uint32_t> pos;
    pos.assign(k, 0);
    thread_local std::vector<std::uint32_t> lim;
    lim.assign(k, 0);

    std::uint64_t zk = 0;
    while (zk < zk_count) {
      std::size_t level = k;
      if (options_.memoize) {
        for (std::size_t i = 0; i < k; ++i) {
          if ((zk >> (tk - t[i])) != prev_z[i]) {
            level = i;
            break;
          }
        }
      } else {
        level = 0;
      }
      bool dead = false;
      for (std::size_t i = level; i < k; ++i) {
        std::uint64_t zi = zk >> (tk - t[i]);
        prev_z[i] = zi;
        Word alive = ~Word{0};
        for (int j = 0; j < m; ++j) {
          Word img = sorted[i]->Image(zi, j);
          Word p = (i == 0) ? img : (partial[(i - 1) * m + j] & img);
          partial[i * static_cast<std::size_t>(m) + j] = p;
          alive &= (p != 0) ? ~Word{0} : 0;
        }
        if (alive == 0) {
          // Some h_j already proves emptiness for this whole prefix.
          if (options_.memoize) {
            zk = (zi + 1) << (tk - t[i]);
            for (std::size_t jj = i; jj < k; ++jj) {
              prev_z[jj] = ~std::uint64_t{0};
            }
          } else {
            ++zk;
          }
          dead = true;
          break;
        }
      }
      if (dead) continue;

      // Verification: linear merge of the k groups restricted to the z_k
      // window of g-value space (Algorithm 5 line 4).
      const std::uint64_t win_lo = zk << (b - tk);
      const std::uint64_t win_hi = (zk + 1) << (b - tk);
      bool empty_window = false;
      for (std::size_t i = 0; i < k; ++i) {
        std::uint64_t zi = zk >> (tk - t[i]);
        auto [lo, hi] = sorted[i]->GroupRange(zi);
        std::uint32_t c = std::max(cursor[i], lo);
        std::span<const std::uint32_t> gv = sorted[i]->gvals();
        while (c < hi && gv[c] < win_lo) ++c;
        cursor[i] = c;
        pos[i] = c;
        lim[i] = hi;
        if (c >= hi || gv[c] >= win_hi) {
          empty_window = true;
          break;
        }
      }
      if (!empty_window) {
        // Round-robin candidate merge inside the window.
        std::uint32_t cand = sorted[0]->gvals()[pos[0]];
        std::size_t agree = 1;
        std::size_t i = 1;
        while (true) {
          std::span<const std::uint32_t> gv = sorted[i]->gvals();
          std::uint32_t p = pos[i];
          while (p < lim[i] && gv[p] < cand) ++p;
          pos[i] = p;
          cursor[i] = std::max(cursor[i], p);
          if (p >= lim[i] || gv[p] >= win_hi) break;
          if (gv[p] == cand) {
            if (++agree == k) {
              result_gvals.push_back(cand);
              ++pos[i];
              cursor[i] = std::max(cursor[i], pos[i]);
              if (pos[i] >= lim[i] || gv[pos[i]] >= win_hi) break;
              cand = gv[pos[i]];
              agree = 1;
            }
          } else {
            cand = gv[p];
            agree = 1;
          }
          i = (i + 1) % k;
        }
      }
      ++zk;
    }
    }  // general path
  }

  AppendInverse(g_, result_gvals, out, simd::SelectDecode(options_.simd));
}

}  // namespace fsi
