#include "route/oarsmt.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace afp::route {

double SteinerTree::length() const {
  double total = 0.0;
  for (const auto& [a, b] : edges) {
    total += geom::manhattan(nodes[static_cast<std::size_t>(a)],
                             nodes[static_cast<std::size_t>(b)]);
  }
  return total;
}

geom::Point block_pin(const geom::Rect& rect, int routing_direction,
                      double offset) {
  switch (routing_direction & 3) {
    case 0: return {rect.x + rect.w / 2.0, rect.top() + offset};     // N
    case 1: return {rect.right() + offset, rect.y + rect.h / 2.0};   // E
    case 2: return {rect.x + rect.w / 2.0, rect.y - offset};         // S
    default: return {rect.x - offset, rect.y + rect.h / 2.0};        // W
  }
}

geom::Point block_pin_for_net(const geom::Rect& rect, int routing_direction,
                              std::size_t net_index) {
  geom::Point p = block_pin(rect, routing_direction);
  // Slide along the edge: slots at -2/6 .. +2/6 of the edge length.
  const double t = (static_cast<double>(net_index % 5) - 2.0) / 6.0;
  if ((routing_direction & 1) == 0) {
    p.x += t * rect.w;  // N/S edges run along x
  } else {
    p.y += t * rect.h;  // E/W edges run along y
  }
  return p;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoVertex = std::numeric_limits<std::uint32_t>::max();
/// Both passes accept a relaxation only when it improves a distance by more
/// than this.  The path pass's tie-breaking rests on it: route_test's
/// unbounded oracle applies the same rule and must return the same trees.
constexpr double kRelaxEps = 1e-12;
/// Slack of the path pass's bound over the A* distance D*.  Rounding in a
/// path sum or a Manhattan bound is a few ulps of a coordinate (~1e-12 um
/// per step), so no vertex of a shortest path sits within the slack of the
/// bound, and no vertex that does can improve one that is on the path.
constexpr double kBoundSlack = 1e-6;

/// Search state for one global_route call, shared by every net and by both
/// passes of every Steiner round: a distance and a predecessor per
/// escape-graph vertex, valid only where the vertex's stamp is the current
/// epoch, so a new search starts in O(1) instead of O(vertices).
class RouteScratch {
 public:
  /// Makes room for `nv` vertices.  The old slots are freed before the
  /// larger array is allocated, so growing never holds both.
  void fit(std::size_t nv) {
    if (nv <= slots_.size()) return;
    if (nv >= kNoVertex) {
      throw std::length_error("route: escape graph exceeds 32-bit vertex ids");
    }
    slots_.clear();
    slots_.shrink_to_fit();
    slots_.resize(nv);
    epoch_ = 0;
  }

  /// Starts a search: every vertex reads as unreached.
  void restart() {
    if (++epoch_ == 0) {
      for (Slot& slot : slots_) slot.stamp = 0;
      epoch_ = 1;
    }
  }

  bool reached(std::size_t v) const { return slots_[v].stamp == epoch_; }
  double dist(std::size_t v) const {
    return reached(v) ? slots_[v].dist : kInf;
  }
  std::uint32_t prev(std::size_t v) const { return slots_[v].prev; }
  void reach(std::size_t v, double d, std::uint32_t from) {
    slots_[v] = {d, from, epoch_};
  }

 private:
  /// One vertex's state, kept together so a relaxation touches one cache
  /// line; a value-initialized slot (stamp 0) reads as unreached.
  struct Slot {
    double dist;
    std::uint32_t prev;
    std::uint32_t stamp;
  };
  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 0;
};

/// The terminals a Steiner round may still attach: vertex ids, sorted for
/// the settle test, and their points for the Manhattan lower bound.
struct Targets {
  std::vector<std::size_t> ids;
  std::vector<geom::Point> points;

  bool contains(std::size_t v) const {
    return std::binary_search(ids.begin(), ids.end(), v);
  }
};

/// A run of consecutive indices [lo, hi] on one Hanan line.
struct Span {
  int lo, hi;
};

/// One axis of a net's Hanan grid: the snapped lines and, for every
/// coordinate added, the line it lies on.
class Axis {
 public:
  void clear() { keys_.clear(); }
  void add(double c) {
    keys_.push_back({c, static_cast<std::uint32_t>(keys_.size())});
  }

  /// Sorts the coordinates added and keeps each only when it lies
  /// kLineSnap or more above the last line kept.  A coordinate lies on
  /// the first line at or above c - kLineSnap (its cluster's line, or a
  /// lower one that sits at that bound exactly), or on the last line.
  void snap() {
    std::sort(keys_.begin(), keys_.end(),
              [](const Key& a, const Key& b) { return a.c < b.c; });
    lines.clear();
    for (const Key& k : keys_) {
      if (lines.empty() || k.c - lines.back() >= kLineSnap) {
        lines.push_back(k.c);
      }
    }
    line_of.resize(keys_.size());
    int l = 0;
    for (const Key& k : keys_) {
      while (l + 1 < size() &&
             lines[static_cast<std::size_t>(l)] < k.c - kLineSnap) {
        ++l;
      }
      line_of[k.source] = l;
    }
  }

  int size() const { return static_cast<int>(lines.size()); }

  /// The first line at or above `c` (std::lower_bound), walked from the
  /// line index `hint`.
  int seek(int hint, double c) const {
    while (hint > 0 && lines[static_cast<std::size_t>(hint) - 1] >= c) --hint;
    while (hint < size() && lines[static_cast<std::size_t>(hint)] < c) ++hint;
    return hint;
  }

  /// The pieces of a line across this axis that a shrunk obstacle
  /// spanning [a0, a1) along it blocks, given the first lines c0 and c1
  /// at or above a0 and a1: the pieces whose midpoint lies in [a0, a1)
  /// and the pieces next to the crossings c0 .. c1 - 1.  Empty when
  /// lo > hi.
  Span blocked_pieces(int c0, int c1, double a0, double a1) const {
    Span p{first_mid(c0, a0), first_mid(c1, a1) - 1};
    if (c0 < c1) {
      p.lo = std::min(p.lo, c0 - 1);
      p.hi = std::max(p.hi, c1 - 1);
    }
    return {std::max(p.lo, 0), std::min(p.hi, size() - 2)};
  }

  std::vector<double> lines;
  std::vector<int> line_of;  ///< per coordinate, in the order added

 private:
  /// The first piece whose midpoint lies at or above `a`, given the first
  /// line c at or above it: midpoints interleave the lines, so it is piece
  /// c - 1 or c.
  int first_mid(int c, double a) const {
    if (c > 0 && c < size() &&
        (lines[static_cast<std::size_t>(c) - 1] +
         lines[static_cast<std::size_t>(c)]) / 2.0 >= a) {
      return c - 1;
    }
    return std::min(c, size() - 1);
  }

  struct Key {
    double c;
    std::uint32_t source;
  };
  std::vector<Key> keys_;
};

/// Items grouped by a key in [0, n) with a counting sort: the items of key
/// k are items[first[k] .. first[k + 1]), in the order they were added.
template <class T>
class Buckets {
 public:
  void clear() { entries_.clear(); }
  void add(int key, const T& item) { entries_.push_back({key, item}); }
  void group(int n) {
    first.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const auto& e : entries_) ++first[static_cast<std::size_t>(e.key) + 1];
    for (std::size_t k = 1; k < first.size(); ++k) first[k] += first[k - 1];
    items.resize(entries_.size());
    fill_.assign(first.begin(), first.end() - 1);
    for (const auto& e : entries_) {
      items[fill_[static_cast<std::size_t>(e.key)]++] = e.item;
    }
  }
  std::span<T> of(int key) {
    const auto k = static_cast<std::size_t>(key);
    return {items.data() + first[k], items.data() + first[k + 1]};
  }

  std::vector<std::uint32_t> first;
  std::vector<T> items;

 private:
  struct Entry {
    int key;
    T item;
  };
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> fill_;
};

/// The blocked pieces of every line of one orientation, merged into
/// sorted disjoint spans per line.
class LinePieces {
 public:
  void clear() { blocks_.clear(); }
  /// Obstacle pieces `p` block lines [first_line, end_line).
  void add(Span p, int first_line, int end_line) {
    if (p.lo <= p.hi && first_line < end_line) {
      blocks_.add(p.lo, {p, first_line, end_line});
    }
  }
  /// Groups the blocked spans by line; `npieces` is the lines' piece count.
  void merge(int nlines, int npieces) {
    blocks_.group(npieces);  // by lo, so each line's spans come out sorted
    // Each line's span count from a difference array (unsigned wrap-around
    // cancels), then the spans.
    const auto n = static_cast<std::size_t>(nlines);
    first_.assign(n + 1, 0);
    for (const Block& b : blocks_.items) {
      ++first_[static_cast<std::size_t>(b.first_line) + 1];
      --first_[static_cast<std::size_t>(b.end_line) + 1];
    }
    std::uint32_t open = 0;
    for (std::size_t l = 1; l <= n; ++l) {
      open += first_[l];
      first_[l] = first_[l - 1] + open;
    }
    spans_.resize(first_[n]);
    fill_.assign(first_.begin(), first_.end() - 1);
    for (const Block& b : blocks_.items) {
      for (int l = b.first_line; l < b.end_line; ++l) {
        spans_[fill_[static_cast<std::size_t>(l)]++] = b.pieces;
      }
    }
    // Merge each line's spans in place; fill_ becomes each line's end.
    for (std::size_t l = 0; l < n; ++l) {
      std::uint32_t kept = first_[l];
      for (std::uint32_t k = first_[l]; k < fill_[l]; ++k) {
        const Span s = spans_[k];
        if (kept > first_[l] && s.lo <= spans_[kept - 1].hi + 1) {
          spans_[kept - 1].hi = std::max(spans_[kept - 1].hi, s.hi);
        } else {
          spans_[kept++] = s;
        }
      }
      fill_[l] = kept;
    }
  }

  /// Appends to `runs` the run of crossings, [lo, hi] with lo < hi, that
  /// unblocked pieces of line `l` join to each of the sorted crossings
  /// `at`; `last` is the line's last crossing.
  void runs_through(int l, std::span<const int> at, int last,
                    std::vector<Span>& runs) const {
    const Span* it = spans_.data() + first_[static_cast<std::size_t>(l)];
    const Span* const begin = it;
    const Span* const end = spans_.data() + fill_[static_cast<std::size_t>(l)];
    const std::size_t first_run = runs.size();
    for (const int c : at) {
      if (runs.size() > first_run && c <= runs.back().hi) continue;
      while (it != end && it->hi < c) ++it;
      if (it != end && it->lo < c) continue;  // pieces c - 1 and c blocked
      const Span run{it != begin ? (it - 1)->hi + 1 : 0,
                     it != end ? it->lo : last};
      if (run.lo < run.hi) runs.push_back(run);
    }
  }

 private:
  struct Block {
    Span pieces;
    int first_line, end_line;
  };
  Buckets<Block> blocks_;
  std::vector<Span> spans_;  ///< line l's are [first_[l], fill_[l])
  std::vector<std::uint32_t> first_, fill_;
};

/// The Ganley–Cohoon escape graph of one net, as oarsmt.hpp describes it.
/// Ids run row-major (y line, then x line), in the order of the full
/// grid's ids, and the adjacency is CSR.  A build reuses the storage of
/// the last one.
class EscapeGraph {
 public:
  void build(std::span<const geom::Point> terminals,
             std::span<const geom::Rect> obstacles, double clearance) {
    raw_.clear();
    for (const auto& o : obstacles) {
      if (!o.inflated(-clearance).empty()) raw_.push_back(o);
    }
    x_.clear();
    y_.clear();
    for (const auto& t : terminals) {
      x_.add(t.x);
      y_.add(t.y);
    }
    for (const auto& o : raw_) {
      x_.add(o.x);
      x_.add(o.right());
      y_.add(o.y);
      y_.add(o.top());
    }
    x_.snap();
    y_.snap();
    const std::size_t nt = terminals.size();
    terminals_.resize(nt);

    // Escape points by row and by column; blocked pieces of every line.
    row_escapes_.clear();
    col_escapes_.clear();
    auto escape = [&](std::size_t xk, std::size_t yk) {
      const int i = x_.line_of[xk], j = y_.line_of[yk];
      row_escapes_.add(j, i);
      col_escapes_.add(i, j);
    };
    for (std::size_t t = 0; t < nt; ++t) {
      escape(t, t);
      terminals_[t] = {x_.line_of[t], y_.line_of[t]};
    }
    hpieces_.clear();
    vpieces_.clear();
    for (std::size_t k = 0; k < raw_.size(); ++k) {
      const std::size_t lo = nt + 2 * k, hi = lo + 1;
      escape(lo, lo);
      escape(hi, lo);
      escape(lo, hi);
      escape(hi, hi);
      const geom::Rect s = raw_[k].inflated(-clearance);
      const int cx0 = x_.seek(x_.line_of[lo], s.x);
      const int cx1 = x_.seek(x_.line_of[hi], s.right());
      const int cy0 = y_.seek(y_.line_of[lo], s.y);
      const int cy1 = y_.seek(y_.line_of[hi], s.top());
      hpieces_.add(x_.blocked_pieces(cx0, cx1, s.x, s.right()), cy0, cy1);
      vpieces_.add(y_.blocked_pieces(cy0, cy1, s.y, s.top()), cx0, cx1);
    }
    const int nx = x_.size(), ny = y_.size();
    row_escapes_.group(ny);
    col_escapes_.group(nx);
    hpieces_.merge(ny, std::max(nx - 1, 0));
    vpieces_.merge(nx, std::max(ny - 1, 0));

    // Vertical segments, grouped by the row they start and end on.
    vstarts_.clear();
    vends_.clear();
    for (int i = 0; i < nx; ++i) {
      runs_.clear();
      vpieces_.runs_through(i, sorted_unique(col_escapes_.of(i)), ny - 1,
                            runs_);
      for (const Span& r : runs_) {
        vstarts_.add(r.lo, i);
        vends_.add(r.hi, i);
      }
    }
    vstarts_.group(ny);
    vends_.group(ny);

    sweep_rows();
    link();
  }

  std::size_t num_vertices() const { return points_.size(); }
  geom::Point point(std::size_t v) const { return points_[v]; }

  /// The vertex of terminal `t` of the last build (a terminal is an
  /// escape point, so a vertex).
  std::size_t terminal_vertex(std::size_t t) const {
    const auto [i, j] = terminals_[t];
    const double x = x_.lines[static_cast<std::size_t>(i)];
    const auto begin = points_.begin() + row_first_[static_cast<std::size_t>(j)];
    const auto end = points_.begin() + row_first_[static_cast<std::size_t>(j) + 1];
    return static_cast<std::size_t>(
        std::lower_bound(begin, end, x,
                         [](const geom::Point& q, double v) { return q.x < v; }) -
        points_.begin());
  }

  /// Pass 1 of a Steiner round: the length D* of a shortest path from
  /// `sources` to the nearest target, or infinity when none is reachable.
  /// A* under h = Manhattan distance to the nearest target, which no
  /// obstacle can shorten and which changes by at most an edge's length
  /// along it, so the first target settled is a nearest one.  Equal f go
  /// to the larger g, then the smaller id.  `pops` counts heap pops.
  double nearest_target_distance(const std::vector<std::size_t>& sources,
                                 const Targets& targets, RouteScratch& s,
                                 std::uint64_t& pops) const {
    struct Entry {
      double f, g;
      std::size_t v;
    };
    auto after = [](const Entry& a, const Entry& b) {
      if (a.f != b.f) return a.f > b.f;
      if (a.g != b.g) return a.g < b.g;
      return a.v > b.v;
    };
    std::priority_queue<Entry, std::vector<Entry>, decltype(after)> open(
        after);
    s.restart();
    for (std::size_t src : sources) {
      if (isolated(src) || s.reached(src)) continue;
      s.reach(src, 0.0, kNoVertex);
      open.push({manhattan_to(targets, points_[src]), 0.0, src});
    }
    while (!open.empty()) {
      const Entry e = open.top();
      open.pop();
      ++pops;
      if (e.g > s.dist(e.v)) continue;
      if (targets.contains(e.v)) return e.g;
      expand(e.v, [&](std::size_t u, const geom::Point& pu, double w) {
        const double g = e.g + w;
        if (g < s.dist(u) - kRelaxEps) {
          s.reach(u, g, kNoVertex);
          open.push({g + manhattan_to(targets, pu), g, u});
        }
      });
    }
    return kInf;
  }

  /// Pass 2: the multi-source Dijkstra, in (dist, id) order, that picks
  /// the path to the first target settled.  It skips every relaxation
  /// whose lower bound g + w + h(u) exceeds `bound` (D* plus a slack).
  /// Along a shortest path g + h never decreases and ends at D*, so every
  /// vertex that can set a path vertex's distance or predecessor passes
  /// the bound, and the path is the one the unbounded search returns.
  /// Returns the path (vertex ids) or empty when no target is settled.
  std::vector<std::size_t> shortest_path(
      const std::vector<std::size_t>& sources, const Targets& targets,
      double bound, RouteScratch& s, std::uint64_t& pops) const {
    using QE = std::pair<double, std::size_t>;
    std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
    s.restart();
    for (std::size_t src : sources) {
      if (isolated(src) || s.reached(src) ||
          manhattan_to(targets, points_[src]) > bound) {
        continue;
      }
      s.reach(src, 0.0, kNoVertex);
      pq.emplace(0.0, src);
    }
    std::size_t goal = num_vertices();
    while (!pq.empty()) {
      const auto [d, v] = pq.top();
      pq.pop();
      ++pops;
      if (d > s.dist(v)) continue;
      if (targets.contains(v)) {
        goal = v;
        break;
      }
      expand(v, [&](std::size_t u, const geom::Point& pu, double w) {
        const double g = d + w;
        if (g < s.dist(u) - kRelaxEps &&
            g + manhattan_to(targets, pu) <= bound) {
          s.reach(u, g, static_cast<std::uint32_t>(v));
          pq.emplace(g, u);
        }
      });
    }
    std::vector<std::size_t> path;
    if (goal == num_vertices()) return path;
    for (std::size_t v = goal; v != kNoVertex; v = s.prev(v)) path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
  }

 private:
  /// Sweeps the rows upwards, with `active_` marking the columns whose
  /// vertical segment spans the row and `last_` holding each such
  /// column's latest vertex.  A row's vertices are its escape points, its
  /// segments' ends, the ends of the vertical segments that start or end
  /// on it, and the active columns its segments cross.  `marks_` collects
  /// them, and only its marked words are read back, in column order, so a
  /// row costs its marks and its segments' words, not the grid's width.
  /// Consecutive vertices inside one segment get an edge.
  void sweep_rows() {
    const int nx = x_.size(), ny = y_.size();
    active_.assign((static_cast<std::size_t>(nx) + 63) / 64, 0);
    marks_.assign(active_.size(), 0);
    last_.resize(static_cast<std::size_t>(nx));
    points_.clear();
    edges_.clear();
    row_first_.resize(static_cast<std::size_t>(ny) + 1);
    for (int j = 0; j < ny; ++j) {
      row_first_[static_cast<std::size_t>(j)] =
          static_cast<std::uint32_t>(points_.size());
      for (const int i : vstarts_.of(j)) {
        set_active(i, true);
        last_[static_cast<std::size_t>(i)] = kNoVertex;
      }
      const std::span<int> at = sorted_unique(row_escapes_.of(j));
      runs_.clear();
      hpieces_.runs_through(j, at, nx - 1, runs_);
      for (const int i : at) mark(i);
      for (const Span& r : runs_) {
        mark(r.lo);
        mark(r.hi);
        for (int w = r.lo / 64; w <= r.hi / 64; ++w) {
          mark_word(w, active_[static_cast<std::size_t>(w)] & word_mask(w, r));
        }
      }
      for (const int i : vstarts_.of(j)) mark(i);
      for (const int i : vends_.of(j)) mark(i);
      auto run = runs_.cbegin();
      int prev = -1;
      std::sort(marked_words_.begin(), marked_words_.end());
      for (const int w : marked_words_) {
        for (std::uint64_t bits =
                 std::exchange(marks_[static_cast<std::size_t>(w)], 0);
             bits != 0; bits &= bits - 1) {
          const int i = w * 64 + std::countr_zero(bits);
          const auto v = static_cast<std::uint32_t>(points_.size());
          points_.push_back({x_.lines[static_cast<std::size_t>(i)],
                             y_.lines[static_cast<std::size_t>(j)]});
          while (run != runs_.cend() && run->hi < i) ++run;
          if (run != runs_.cend() && prev >= run->lo) {
            edges_.push_back({v - 1, v});
          }
          if (is_active(i)) {
            std::uint32_t& below = last_[static_cast<std::size_t>(i)];
            if (below != kNoVertex) edges_.push_back({below, v});
            below = v;
          }
          prev = i;
        }
      }
      marked_words_.clear();
      for (const int i : vends_.of(j)) set_active(i, false);
    }
    row_first_[static_cast<std::size_t>(ny)] =
        static_cast<std::uint32_t>(points_.size());
  }

  /// Turns the edge list into CSR adjacency.
  void link() {
    first_.assign(points_.size() + 1, 0);
    for (const auto& [a, b] : edges_) {
      ++first_[a + 1];
      ++first_[b + 1];
    }
    for (std::size_t v = 1; v < first_.size(); ++v) first_[v] += first_[v - 1];
    adj_.resize(first_.back());
    fill_.assign(first_.begin(), first_.end() - 1);
    for (const auto& [a, b] : edges_) {
      adj_[fill_[a]++] = b;
      adj_[fill_[b]++] = a;
    }
  }

  /// Sorts `v` and drops repeats; returns the distinct prefix.
  static std::span<int> sorted_unique(std::span<int> v) {
    std::sort(v.begin(), v.end());
    return v.first(static_cast<std::size_t>(
        std::unique(v.begin(), v.end()) - v.begin()));
  }

  bool is_active(int i) const {
    return (active_[static_cast<std::size_t>(i) / 64] >> (i % 64)) & 1u;
  }
  void set_active(int i, bool on) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    std::uint64_t& word = active_[static_cast<std::size_t>(i) / 64];
    word = on ? word | bit : word & ~bit;
  }
  void mark(int i) { mark_word(i / 64, std::uint64_t{1} << (i % 64)); }
  /// Marks `bits` of word `w`, listing the word when it was clear.
  void mark_word(int w, std::uint64_t bits) {
    std::uint64_t& word = marks_[static_cast<std::size_t>(w)];
    if (word == 0 && bits != 0) marked_words_.push_back(w);
    word |= bits;
  }
  /// The bits of word `w` that lie in [r.lo, r.hi].
  static std::uint64_t word_mask(int w, Span r) {
    std::uint64_t m = ~std::uint64_t{0};
    if (w == r.lo / 64) m &= m << (r.lo % 64);
    if (w == r.hi / 64 && r.hi % 64 != 63) {
      m &= (std::uint64_t{1} << (r.hi % 64 + 1)) - 1;
    }
    return m;
  }

  /// Manhattan distance from `p` to the nearest target: a lower bound on
  /// any obstacle-avoiding path to one.
  static double manhattan_to(const Targets& targets, const geom::Point& p) {
    double h = kInf;
    for (const auto& t : targets.points) {
      h = std::min(h, std::abs(p.x - t.x) + std::abs(p.y - t.y));
    }
    return h;
  }

  /// A vertex without edges (a blocked or walled-in pin) reaches nothing,
  /// so a search does not start from it.
  bool isolated(std::size_t v) const { return first_[v] == first_[v + 1]; }

  /// Calls visit(u, point(u), w) for each neighbour u of `v`, w being the
  /// edge's length: the two ends share one coordinate, so w is the exact
  /// difference of the other.
  template <class Visit>
  void expand(std::size_t v, Visit&& visit) const {
    const geom::Point pv = points_[v];
    for (std::uint32_t k = first_[v]; k < first_[v + 1]; ++k) {
      const std::uint32_t u = adj_[k];
      const geom::Point pu = points_[u];
      visit(u, pu, std::abs(pu.x - pv.x) + std::abs(pu.y - pv.y));
    }
  }

  // The graph.
  std::vector<geom::Point> points_;       ///< vertices, row-major
  std::vector<std::uint32_t> row_first_;  ///< first vertex of each y line
  std::vector<std::uint32_t> first_;      ///< CSR offsets into adj_
  std::vector<std::uint32_t> adj_;        ///< neighbours
  std::vector<std::pair<int, int>> terminals_;  ///< (x line, y line)

  // Build storage, kept between builds.
  std::vector<geom::Rect> raw_;
  Axis x_, y_;
  Buckets<int> row_escapes_, col_escapes_, vstarts_, vends_;
  LinePieces hpieces_, vpieces_;
  std::vector<Span> runs_;
  std::vector<std::uint64_t> active_, marks_;
  std::vector<int> marked_words_;  ///< the non-zero words of marks_
  std::vector<std::uint32_t> last_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
  std::vector<std::uint32_t> fill_;
};

/// route_net over a caller-owned graph and search scratch; adds its escape
/// graph's size to `vertices` and its heap pops to `pops`.
SteinerTree route_in_scratch(std::span<const geom::Point> terminals,
                             std::span<const geom::Rect> obstacles,
                             double clearance, EscapeGraph& g,
                             RouteScratch& scratch, std::uint64_t& vertices,
                             std::uint64_t& pops) {
  SteinerTree tree;
  if (terminals.size() < 2) {
    for (const auto& t : terminals) tree.nodes.push_back(t);
    return tree;
  }
  g.build(terminals, obstacles, clearance);
  vertices += g.num_vertices();
  scratch.fit(g.num_vertices());

  std::vector<std::size_t> term_v;
  term_v.reserve(terminals.size());
  for (std::size_t t = 0; t < terminals.size(); ++t) {
    term_v.push_back(g.terminal_vertex(t));
  }

  // Grow the tree from the first terminal, attaching the nearest remaining
  // terminal through a shortest obstacle-avoiding path each round.
  std::vector<std::size_t> tree_vertices = {term_v[0]};
  Targets remaining;
  remaining.ids.assign(term_v.begin() + 1, term_v.end());
  std::sort(remaining.ids.begin(), remaining.ids.end());
  remaining.ids.erase(
      std::unique(remaining.ids.begin(), remaining.ids.end()),
      remaining.ids.end());
  std::erase(remaining.ids, term_v[0]);
  std::vector<std::pair<std::size_t, std::size_t>> vedges;
  while (!remaining.ids.empty()) {
    remaining.points.clear();
    for (std::size_t v : remaining.ids) remaining.points.push_back(g.point(v));
    const double reach =
        g.nearest_target_distance(tree_vertices, remaining, scratch, pops);
    const auto path =
        reach == kInf ? std::vector<std::size_t>{}
                      : g.shortest_path(tree_vertices, remaining,
                                        reach + kBoundSlack, scratch, pops);
    if (path.empty()) {
      throw std::runtime_error("route_net: terminal unreachable");
    }
    for (std::size_t k = 1; k < path.size(); ++k) {
      vedges.emplace_back(path[k - 1], path[k]);
      tree_vertices.push_back(path[k]);
    }
    std::erase(remaining.ids, path.back());
  }

  // Compact vertex ids into tree nodes; merge duplicate edges.
  std::vector<std::size_t> vids;
  for (const auto& [a, b] : vedges) {
    vids.push_back(a);
    vids.push_back(b);
  }
  std::sort(vids.begin(), vids.end());
  vids.erase(std::unique(vids.begin(), vids.end()), vids.end());
  auto index_of = [&](std::size_t v) {
    return static_cast<int>(std::lower_bound(vids.begin(), vids.end(), v) -
                            vids.begin());
  };
  tree.nodes.reserve(vids.size());
  for (std::size_t v : vids) tree.nodes.push_back(g.point(v));
  std::set<std::pair<int, int>> dedup;
  for (const auto& [a, b] : vedges) {
    int ia = index_of(a), ib = index_of(b);
    if (ia > ib) std::swap(ia, ib);
    if (ia != ib) dedup.emplace(ia, ib);
  }
  tree.edges.assign(dedup.begin(), dedup.end());
  return tree;
}

}  // namespace

SteinerTree route_net(std::span<const geom::Point> terminals,
                      std::span<const geom::Rect> obstacles,
                      double clearance) {
  EscapeGraph graph;
  RouteScratch scratch;
  std::uint64_t vertices = 0, pops = 0;
  return route_in_scratch(terminals, obstacles, clearance, graph, scratch,
                          vertices, pops);
}

std::vector<Conduit> to_conduits(const SteinerTree& tree,
                                 const std::string& net) {
  // Collect per-orientation segments, then merge collinear runs.
  struct Seg {
    double fixed;  ///< y for horizontal, x for vertical
    double lo, hi;
  };
  std::vector<Seg> hor, ver;
  for (const auto& [a, b] : tree.edges) {
    const geom::Point pa = tree.nodes[static_cast<std::size_t>(a)];
    const geom::Point pb = tree.nodes[static_cast<std::size_t>(b)];
    if (std::abs(pa.y - pb.y) < 1e-12) {
      hor.push_back({pa.y, std::min(pa.x, pb.x), std::max(pa.x, pb.x)});
    } else if (std::abs(pa.x - pb.x) < 1e-12) {
      ver.push_back({pa.x, std::min(pa.y, pb.y), std::max(pa.y, pb.y)});
    } else {
      // L-shaped fallback (should not occur on a rectilinear grid).
      hor.push_back({pa.y, std::min(pa.x, pb.x), std::max(pa.x, pb.x)});
      ver.push_back({pb.x, std::min(pa.y, pb.y), std::max(pa.y, pb.y)});
    }
  }
  auto merge = [](std::vector<Seg>& segs) {
    std::sort(segs.begin(), segs.end(), [](const Seg& a, const Seg& b) {
      return a.fixed < b.fixed || (a.fixed == b.fixed && a.lo < b.lo);
    });
    std::vector<Seg> out;
    for (const Seg& s : segs) {
      if (!out.empty() && std::abs(out.back().fixed - s.fixed) < 1e-12 &&
          s.lo <= out.back().hi + 1e-12) {
        out.back().lo = std::min(out.back().lo, s.lo);
        out.back().hi = std::max(out.back().hi, s.hi);
      } else {
        out.push_back(s);
      }
    }
    return out;
  };
  std::vector<Conduit> conduits;
  for (const Seg& s : merge(hor)) {
    conduits.push_back({{s.lo, s.fixed}, {s.hi, s.fixed}, 1, net});
  }
  for (const Seg& s : merge(ver)) {
    conduits.push_back({{s.fixed, s.lo}, {s.fixed, s.hi}, 2, net});
  }
  return conduits;
}

GlobalRoute global_route(const floorplan::Instance& inst,
                         const std::vector<geom::Rect>& rects,
                         const std::vector<int>& routing_dirs) {
  GlobalRoute gr;
  EscapeGraph graph;
  RouteScratch scratch;
  std::vector<char> on_net(static_cast<std::size_t>(inst.num_blocks()), 0);
  for (std::size_t ni = 0; ni < inst.nets.size(); ++ni) {
    const auto& net = inst.nets[ni];
    if (net.size() < 2) continue;
    std::vector<geom::Point> pins;
    for (int b : net) {
      const int dir = b < static_cast<int>(routing_dirs.size())
                          ? routing_dirs[static_cast<std::size_t>(b)]
                          : 0;
      pins.push_back(
          block_pin_for_net(rects[static_cast<std::size_t>(b)], dir, ni));
      on_net[static_cast<std::size_t>(b)] = 1;
    }
    // Each net first routes on a window around its pins: obstacles far
    // outside the pins' bounding box add lines and escape segments but
    // rarely shorten the route.  Measured on sa placements (seed 3), the
    // window cuts vertices 3-20x and route time 2-4x at 20-64 blocks
    // (driver:64:4: 147 k -> 12 k vertices, 7.4 -> 2.0 ms) and halves route
    // time at 500 blocks (ota:500:1: 1.59 M -> 0.48 M vertices), with
    // wirelength within 1 %.
    geom::Rect window = geom::bounding_box_points(pins);
    window = window.inflated(0.25 * std::max(window.w, window.h) + 2.0);
    auto gather_obstacles = [&](bool clip) {
      std::vector<geom::Rect> obstacles;
      for (int b = 0; b < inst.num_blocks(); ++b) {
        if (on_net[static_cast<std::size_t>(b)]) continue;
        const geom::Rect& r = rects[static_cast<std::size_t>(b)];
        if (clip && !r.overlaps(window)) continue;
        obstacles.push_back(r);
      }
      return obstacles;
    };
    const std::string name = "net" + std::to_string(ni);
    try {
      SteinerTree tree;
      try {
        tree = route_in_scratch(pins, gather_obstacles(true),
                                kDefaultClearance, graph, scratch,
                                gr.vertices, gr.expanded);
      } catch (const std::runtime_error&) {
        // A pin walled in by window-boundary obstacles may still escape on
        // the full graph; retry once before declaring the net failed.
        tree = route_in_scratch(pins, gather_obstacles(false),
                                kDefaultClearance, graph, scratch,
                                gr.vertices, gr.expanded);
      }
      gr.total_wirelength += tree.length();
      const auto cs = to_conduits(tree, name);
      gr.conduits.insert(gr.conduits.end(), cs.begin(), cs.end());
      gr.trees.push_back(std::move(tree));
      gr.net_names.push_back(name);
    } catch (const std::runtime_error&) {
      ++gr.failed_nets;
    }
    for (int b : net) on_net[static_cast<std::size_t>(b)] = 0;
  }
  // Routing frees more than any other stage: the scratch, here, and one
  // escape graph per net.  Once some large block has been freed, glibc
  // raises its mmap and trim thresholds (up to 32 and 64 MiB) and keeps
  // freed heap pages resident, so hand them back before layout generation
  // and DRC build on top of them.  The conduits outlive the call (layout
  // generation reads them), so they keep no growth slack either.
  graph = {};
  scratch = {};
  gr.conduits.shrink_to_fit();
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  return gr;
}

}  // namespace afp::route
