#include "route/oarsmt.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>
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

/// Escape-graph router over the Hanan grid of terminals + obstacle edges.
class EscapeGraph {
 public:
  EscapeGraph(std::span<const geom::Point> terminals,
              std::span<const geom::Rect> obstacles, double clearance) {
    for (const auto& o : obstacles) {
      const geom::Rect s = o.inflated(-clearance);
      if (!s.empty()) obstacles_.push_back(s);
    }
    const std::size_t nlines = terminals.size() + 2 * obstacles_.size();
    xs_.reserve(nlines);
    ys_.reserve(nlines);
    for (const auto& t : terminals) {
      xs_.push_back(t.x);
      ys_.push_back(t.y);
    }
    for (const auto& o : obstacles_) {
      xs_.push_back(o.x - clearance);
      xs_.push_back(o.right() + clearance);
      ys_.push_back(o.y - clearance);
      ys_.push_back(o.top() + clearance);
    }
    snap_lines(xs_);
    snap_lines(ys_);
    nx_ = static_cast<int>(xs_.size());
    ny_ = static_cast<int>(ys_.size());
    // Occlusion bitmaps are range-marked per obstacle instead of testing
    // every grid point against every obstacle: a vertex (edge midpoint) is
    // covered exactly when its coordinate falls in the obstacle's half-open
    // span, so binary-searching the span's index range marks the same
    // vertices the old O(grid x obstacles) scan did.
    xmid_.resize(nx_ > 0 ? static_cast<std::size_t>(nx_ - 1) : 0);
    for (std::size_t i = 0; i + 1 < xs_.size(); ++i) {
      xmid_[i] = (xs_[i] + xs_[i + 1]) / 2.0;
    }
    ymid_.resize(ny_ > 0 ? static_cast<std::size_t>(ny_ - 1) : 0);
    for (std::size_t j = 0; j + 1 < ys_.size(); ++j) {
      ymid_[j] = (ys_[j] + ys_[j + 1]) / 2.0;
    }
    blocked_.assign(static_cast<std::size_t>(nx_) * ny_, false);
    hblocked_.assign(xmid_.size() * static_cast<std::size_t>(ny_), false);
    vblocked_.assign(static_cast<std::size_t>(nx_) * ymid_.size(), false);
    for (const auto& o : obstacles_) {
      mark_covered(xs_, ys_, o, nx_, blocked_);
      mark_covered(xmid_, ys_, o, nx_ - 1, hblocked_);
      mark_covered(xs_, ymid_, o, nx_, vblocked_);
    }
  }

  std::size_t num_vertices() const { return blocked_.size(); }
  std::size_t id(int i, int j) const {
    return static_cast<std::size_t>(j) * nx_ + i;
  }
  geom::Point point(std::size_t v) const {
    return {xs_[v % static_cast<std::size_t>(nx_)],
            ys_[v / static_cast<std::size_t>(nx_)]};
  }

  /// Nearest graph vertex to `p` (terminals are members by construction,
  /// up to the snap).
  std::size_t vertex_of(const geom::Point& p) const {
    const auto xi = std::lower_bound(xs_.begin(), xs_.end(), p.x - kLineSnap);
    const auto yi = std::lower_bound(ys_.begin(), ys_.end(), p.y - kLineSnap);
    const int i = static_cast<int>(std::min<std::ptrdiff_t>(
        xi - xs_.begin(), nx_ - 1));
    const int j = static_cast<int>(std::min<std::ptrdiff_t>(
        yi - ys_.begin(), ny_ - 1));
    return id(i, j);
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
      if (blocked_[src] || s.reached(src)) continue;
      s.reach(src, 0.0, kNoVertex);
      open.push({manhattan_to(targets, src), 0.0, src});
    }
    while (!open.empty()) {
      const Entry e = open.top();
      open.pop();
      ++pops;
      if (e.g > s.dist(e.v)) continue;
      if (targets.contains(e.v)) return e.g;
      expand(e.v, [&](std::size_t u, int i, int j, double w) {
        const double g = e.g + w;
        if (g < s.dist(u) - kRelaxEps) {
          s.reach(u, g, kNoVertex);
          open.push({g + manhattan_to(targets, i, j), g, u});
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
      if (blocked_[src] || s.reached(src) ||
          manhattan_to(targets, src) > bound) {
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
      expand(v, [&](std::size_t u, int i, int j, double w) {
        const double g = d + w;
        if (g < s.dist(u) - kRelaxEps &&
            g + manhattan_to(targets, i, j) <= bound) {
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
  /// Sorts one axis's coordinates and keeps each only when it lies
  /// kLineSnap or more above the last one kept.
  static void snap_lines(std::vector<double>& lines) {
    std::sort(lines.begin(), lines.end());
    std::size_t kept = 0;
    for (const double c : lines) {
      if (kept == 0 || c - lines[kept - 1] >= kLineSnap) lines[kept++] = c;
    }
    lines.resize(kept);
  }

  /// Marks every (x, y) grid cell covered by the half-open obstacle span,
  /// exactly reproducing Rect::contains on each coordinate pair.
  static void mark_covered(const std::vector<double>& xcoords,
                           const std::vector<double>& ycoords,
                           const geom::Rect& o, int stride,
                           std::vector<bool>& grid) {
    if (stride <= 0) return;
    const auto ix0 =
        std::lower_bound(xcoords.begin(), xcoords.end(), o.x) - xcoords.begin();
    const auto ix1 =
        std::lower_bound(xcoords.begin(), xcoords.end(), o.right()) -
        xcoords.begin();
    const auto iy0 =
        std::lower_bound(ycoords.begin(), ycoords.end(), o.y) - ycoords.begin();
    const auto iy1 =
        std::lower_bound(ycoords.begin(), ycoords.end(), o.top()) -
        ycoords.begin();
    for (auto j = iy0; j < iy1; ++j) {
      const auto row = grid.begin() + j * stride;
      std::fill(row + ix0, row + ix1, true);
    }
  }

  /// Manhattan distance from grid point (i, j) to the nearest target: a
  /// lower bound on any obstacle-avoiding path to one.
  double manhattan_to(const Targets& targets, int i, int j) const {
    const double x = xs_[static_cast<std::size_t>(i)];
    const double y = ys_[static_cast<std::size_t>(j)];
    double h = kInf;
    for (const auto& t : targets.points) {
      h = std::min(h, std::abs(x - t.x) + std::abs(y - t.y));
    }
    return h;
  }
  double manhattan_to(const Targets& targets, std::size_t v) const {
    return manhattan_to(targets,
                        static_cast<int>(v % static_cast<std::size_t>(nx_)),
                        static_cast<int>(v / static_cast<std::size_t>(nx_)));
  }

  /// Calls visit(u, i, j, w) for each neighbour u = (i, j) of `v` joined
  /// to it by an unblocked edge of length w (the edge's midpoint lies in
  /// no obstacle: the midpoint of two adjacent grid lines is exact, so
  /// the edge bitmaps match a per-query obstacle scan bit for bit).
  template <class Visit>
  void expand(std::size_t v, Visit&& visit) const {
    const std::size_t row = static_cast<std::size_t>(nx_);
    const int i = static_cast<int>(v % row);
    const int j = static_cast<int>(v / row);
    const auto ui = static_cast<std::size_t>(i);
    const auto uj = static_cast<std::size_t>(j);
    if (i > 0 && !blocked_[v - 1] && !hblocked_[uj * (row - 1) + ui - 1]) {
      visit(v - 1, i - 1, j, xs_[ui] - xs_[ui - 1]);
    }
    if (i + 1 < nx_ && !blocked_[v + 1] && !hblocked_[uj * (row - 1) + ui]) {
      visit(v + 1, i + 1, j, xs_[ui + 1] - xs_[ui]);
    }
    if (j > 0 && !blocked_[v - row] && !vblocked_[(uj - 1) * row + ui]) {
      visit(v - row, i, j - 1, ys_[uj] - ys_[uj - 1]);
    }
    if (j + 1 < ny_ && !blocked_[v + row] && !vblocked_[uj * row + ui]) {
      visit(v + row, i, j + 1, ys_[uj + 1] - ys_[uj]);
    }
  }

  std::vector<geom::Rect> obstacles_;
  std::vector<double> xs_, ys_;
  std::vector<double> xmid_, ymid_;  ///< midpoints of adjacent grid lines
  int nx_ = 0, ny_ = 0;
  std::vector<bool> blocked_;            ///< vertex inside an obstacle
  std::vector<bool> hblocked_, vblocked_;  ///< edge midpoint inside one
};

/// route_net over a caller-owned scratch; adds its escape graph's size to
/// `vertices` and its heap pops to `pops`.
SteinerTree route_in_scratch(std::span<const geom::Point> terminals,
                             std::span<const geom::Rect> obstacles,
                             double clearance, RouteScratch& scratch,
                             std::uint64_t& vertices, std::uint64_t& pops) {
  SteinerTree tree;
  if (terminals.size() < 2) {
    for (const auto& t : terminals) tree.nodes.push_back(t);
    return tree;
  }
  const EscapeGraph g(terminals, obstacles, clearance);
  vertices += g.num_vertices();
  scratch.fit(g.num_vertices());

  std::vector<std::size_t> term_v;
  term_v.reserve(terminals.size());
  for (const auto& t : terminals) term_v.push_back(g.vertex_of(t));

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
  RouteScratch scratch;
  std::uint64_t vertices = 0, pops = 0;
  return route_in_scratch(terminals, obstacles, clearance, scratch, vertices,
                          pops);
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
  RouteScratch scratch;
  // Above this block count the escape graph is clipped to a window around
  // each net's pins (obstacles far outside the pin bounding box cannot
  // improve the route, but their Hanan lines quadratically inflate the
  // grid).  Small instances keep the historic full-canvas graph so their
  // routes stay bit-identical.
  constexpr int kWindowMinBlocks = 64;
  const bool windowed = inst.num_blocks() > kWindowMinBlocks;
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
    geom::Rect window;
    if (windowed) {
      window = geom::bounding_box_points(pins);
      window = window.inflated(0.25 * std::max(window.w, window.h) + 2.0);
    }
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
        tree = route_in_scratch(pins, gather_obstacles(windowed),
                                kDefaultClearance, scratch, gr.vertices,
                                gr.expanded);
      } catch (const std::runtime_error&) {
        // A pin walled in by window-boundary obstacles may still escape on
        // the full graph; retry once before declaring the net failed.
        if (!windowed) throw;
        tree = route_in_scratch(pins, gather_obstacles(false),
                                kDefaultClearance, scratch, gr.vertices,
                                gr.expanded);
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
  scratch = {};
  gr.conduits.shrink_to_fit();
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  return gr;
}

}  // namespace afp::route
