#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <queue>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "graphir/graph.hpp"
#include "ingest/scenario.hpp"
#include "netlist/library.hpp"
#include "route/oarsmt.hpp"
#include "structrec/structrec.hpp"

namespace afp::route {
namespace {

bool is_rectilinear(const SteinerTree& t) {
  for (const auto& [a, b] : t.edges) {
    const auto pa = t.nodes[static_cast<std::size_t>(a)];
    const auto pb = t.nodes[static_cast<std::size_t>(b)];
    if (std::abs(pa.x - pb.x) > 1e-9 && std::abs(pa.y - pb.y) > 1e-9) {
      return false;
    }
  }
  return true;
}

bool tree_connected(const SteinerTree& t) {
  if (t.nodes.empty()) return true;
  std::vector<std::vector<int>> adj(t.nodes.size());
  for (const auto& [a, b] : t.edges) {
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  }
  std::vector<bool> seen(t.nodes.size(), false);
  std::vector<int> stack{0};
  seen[0] = true;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (int u : adj[static_cast<std::size_t>(v)]) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = true;
        stack.push_back(u);
      }
    }
  }
  for (bool s : seen) {
    if (!s) return false;
  }
  return true;
}

bool segment_crosses(const geom::Point& a, const geom::Point& b,
                     const geom::Rect& obstacle) {
  // Sample the open segment; obstacles are axis-aligned so a fine sampling
  // suffices for the test.
  for (int k = 1; k < 50; ++k) {
    const double t = k / 50.0;
    const geom::Point p{a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
    if (obstacle.inflated(-1e-6).contains(p)) return true;
  }
  return false;
}

/// The Hanan grid of a net as both oracles see it: lines at the pins'
/// coordinates and at the raw edges of every obstacle whose shrunk rect
/// (inflated by -clearance) is non-empty, snapped as the router snaps them
/// (a sorted coordinate is kept only kLineSnap or more above the last one
/// kept), and every point tested against every shrunk obstacle.  Vertex
/// ids are row-major, j * nx + i.
struct HananGrid {
  std::vector<geom::Rect> raw, shrunk;
  std::vector<double> xs, ys;

  HananGrid(std::span<const geom::Point> terminals,
            std::span<const geom::Rect> obstacles, double clearance) {
    std::vector<double> xcoords, ycoords;
    for (const auto& t : terminals) {
      xcoords.push_back(t.x);
      ycoords.push_back(t.y);
    }
    for (const auto& o : obstacles) {
      const geom::Rect s = o.inflated(-clearance);
      if (s.empty()) continue;
      raw.push_back(o);
      shrunk.push_back(s);
      xcoords.push_back(o.x);
      xcoords.push_back(o.right());
      ycoords.push_back(o.y);
      ycoords.push_back(o.top());
    }
    auto snap = [](std::vector<double> coords) {
      std::sort(coords.begin(), coords.end());
      std::vector<double> lines;
      for (const double c : coords) {
        if (lines.empty() || c - lines.back() >= kLineSnap) lines.push_back(c);
      }
      return lines;
    };
    xs = snap(std::move(xcoords));
    ys = snap(std::move(ycoords));
  }

  int nx() const { return static_cast<int>(xs.size()); }
  int ny() const { return static_cast<int>(ys.size()); }
  std::size_t size() const { return xs.size() * ys.size(); }
  std::size_t id(int i, int j) const {
    return static_cast<std::size_t>(j) * xs.size() + static_cast<std::size_t>(i);
  }
  geom::Point point(std::size_t v) const {
    return {xs[v % xs.size()], ys[v / xs.size()]};
  }
  bool covered(const geom::Point& p) const {
    for (const auto& s : shrunk) {
      if (s.contains(p)) return true;
    }
    return false;
  }
  /// The piece between adjacent crossings a and b is blocked when a
  /// shrunk obstacle contains either crossing or the piece's midpoint.
  bool blocked(std::size_t a, std::size_t b) const {
    const geom::Point pa = point(a), pb = point(b);
    return covered(pa) || covered(pb) ||
           covered({(pa.x + pb.x) / 2.0, (pa.y + pb.y) / 2.0});
  }
  std::size_t vertex_of(const geom::Point& p) const {
    const auto i = std::lower_bound(xs.begin(), xs.end(), p.x - kLineSnap) -
                   xs.begin();
    const auto j = std::lower_bound(ys.begin(), ys.end(), p.y - kLineSnap) -
                   ys.begin();
    return id(static_cast<int>(std::min<std::ptrdiff_t>(i, nx() - 1)),
              static_cast<int>(std::min<std::ptrdiff_t>(j, ny() - 1)));
  }
};

/// Neighbours of every Hanan vertex id in a graph over the grid.
using Adjacency = std::vector<std::vector<std::size_t>>;

/// The unbounded router over `adj`: a multi-source Dijkstra in (dist, id)
/// order over the whole graph each Steiner round, accepting a relaxation
/// only when it improves a distance by more than 1e-12, each edge as long
/// as the Manhattan distance between its ends.  Throws when some terminal
/// is unreachable.
SteinerTree oracle_steiner(const HananGrid& grid,
                           std::span<const geom::Point> terminals,
                           const Adjacency& adj) {
  const std::size_t nv = grid.size();
  std::vector<std::size_t> tree_vertices = {grid.vertex_of(terminals[0])};
  std::set<std::size_t> remaining;
  for (std::size_t k = 1; k < terminals.size(); ++k) {
    remaining.insert(grid.vertex_of(terminals[k]));
  }
  remaining.erase(tree_vertices[0]);
  std::vector<std::pair<std::size_t, std::size_t>> vedges;
  const double inf = std::numeric_limits<double>::infinity();
  while (!remaining.empty()) {
    std::vector<double> dist(nv, inf);
    std::vector<std::size_t> prev(nv, nv);
    using QE = std::pair<double, std::size_t>;
    std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
    for (std::size_t s : tree_vertices) {
      dist[s] = 0.0;
      pq.emplace(0.0, s);
    }
    std::size_t goal = nv;
    while (!pq.empty()) {
      const auto [d, v] = pq.top();
      pq.pop();
      if (d > dist[v]) continue;
      if (remaining.count(v)) {
        goal = v;
        break;
      }
      for (const std::size_t u : adj[v]) {
        const geom::Point a = grid.point(v), b = grid.point(u);
        const double w = std::abs(b.x - a.x) + std::abs(b.y - a.y);
        if (dist[v] + w < dist[u] - 1e-12) {
          dist[u] = dist[v] + w;
          prev[u] = v;
          pq.emplace(dist[u], u);
        }
      }
    }
    if (goal == nv) throw std::runtime_error("oracle: terminal unreachable");
    std::vector<std::size_t> path;
    for (std::size_t v = goal; v != nv; v = prev[v]) path.push_back(v);
    std::reverse(path.begin(), path.end());
    for (std::size_t k = 1; k < path.size(); ++k) {
      vedges.emplace_back(path[k - 1], path[k]);
      tree_vertices.push_back(path[k]);
    }
    remaining.erase(goal);
  }
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
  SteinerTree tree;
  for (std::size_t v : vids) tree.nodes.push_back(grid.point(v));
  std::set<std::pair<int, int>> dedup;
  for (const auto& [a, b] : vedges) {
    int ia = index_of(a), ib = index_of(b);
    if (ia > ib) std::swap(ia, ib);
    if (ia != ib) dedup.emplace(ia, ib);
  }
  tree.edges.assign(dedup.begin(), dedup.end());
  return tree;
}

/// The length oracle: the unbounded router over the full Hanan grid, every
/// unblocked piece an edge.
SteinerTree hanan_oracle_route_net(std::span<const geom::Point> terminals,
                                   std::span<const geom::Rect> obstacles,
                                   double clearance) {
  if (terminals.size() < 2) {
    return {{terminals.begin(), terminals.end()}, {}};
  }
  const HananGrid grid(terminals, obstacles, clearance);
  Adjacency adj(grid.size());
  for (int j = 0; j < grid.ny(); ++j) {
    for (int i = 0; i < grid.nx(); ++i) {
      const std::size_t v = grid.id(i, j);
      if (i + 1 < grid.nx() && !grid.blocked(v, grid.id(i + 1, j))) {
        adj[v].push_back(grid.id(i + 1, j));
        adj[grid.id(i + 1, j)].push_back(v);
      }
      if (j + 1 < grid.ny() && !grid.blocked(v, grid.id(i, j + 1))) {
        adj[v].push_back(grid.id(i, j + 1));
        adj[grid.id(i, j + 1)].push_back(v);
      }
    }
  }
  return oracle_steiner(grid, terminals, adj);
}

/// The escape oracle: the unbounded router over the escape graph, derived
/// on the Hanan grid.  From every unblocked escape point (each pin, each
/// corner of an obstacle whose shrunk rect is non-empty) it walks the
/// point's row and column in both directions over unblocked pieces, up to
/// the first blocked piece or the last line, marking the pieces walked.
/// Vertices are the escape points, the walks' ends and the crossings with
/// a marked piece on their row and on their column; consecutive vertices
/// on a line are joined when every piece between them is marked.
/// route_net's direct build and bounded search must return its tree bit
/// for bit.
SteinerTree escape_oracle_route_net(std::span<const geom::Point> terminals,
                                    std::span<const geom::Rect> obstacles,
                                    double clearance) {
  if (terminals.size() < 2) {
    return {{terminals.begin(), terminals.end()}, {}};
  }
  const HananGrid grid(terminals, obstacles, clearance);
  const int nx = grid.nx(), ny = grid.ny();
  std::vector<std::size_t> escapes;
  for (const auto& t : terminals) escapes.push_back(grid.vertex_of(t));
  for (const auto& o : grid.raw) {
    for (const geom::Point c : {geom::Point{o.x, o.y}, {o.right(), o.y},
                                {o.x, o.top()}, {o.right(), o.top()}}) {
      escapes.push_back(grid.vertex_of(c));
    }
  }
  // hmark[id(i, j)]: piece (i, j)-(i + 1, j) lies on a horizontal escape
  // segment; vmark[id(i, j)]: piece (i, j)-(i, j + 1) on a vertical one.
  std::vector<char> vertex(grid.size(), 0), hmark(grid.size(), 0),
      vmark(grid.size(), 0);
  for (const std::size_t e : escapes) {
    vertex[e] = 1;
    if (grid.covered(grid.point(e))) continue;
    const int i = static_cast<int>(e % grid.xs.size());
    const int j = static_cast<int>(e / grid.xs.size());
    int k = i;
    for (; k + 1 < nx && !grid.blocked(grid.id(k, j), grid.id(k + 1, j)); ++k) {
      hmark[grid.id(k, j)] = 1;
    }
    vertex[grid.id(k, j)] = 1;
    for (k = i; k > 0 && !grid.blocked(grid.id(k - 1, j), grid.id(k, j)); --k) {
      hmark[grid.id(k - 1, j)] = 1;
    }
    vertex[grid.id(k, j)] = 1;
    for (k = j; k + 1 < ny && !grid.blocked(grid.id(i, k), grid.id(i, k + 1)); ++k) {
      vmark[grid.id(i, k)] = 1;
    }
    vertex[grid.id(i, k)] = 1;
    for (k = j; k > 0 && !grid.blocked(grid.id(i, k - 1), grid.id(i, k)); --k) {
      vmark[grid.id(i, k - 1)] = 1;
    }
    vertex[grid.id(i, k)] = 1;
  }
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const bool on_h = (i > 0 && hmark[grid.id(i - 1, j)]) ||
                        (i + 1 < nx && hmark[grid.id(i, j)]);
      const bool on_v = (j > 0 && vmark[grid.id(i, j - 1)]) ||
                        (j + 1 < ny && vmark[grid.id(i, j)]);
      if (on_h && on_v) vertex[grid.id(i, j)] = 1;
    }
  }
  Adjacency adj(grid.size());
  auto join = [&](std::size_t a, std::size_t b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  for (int j = 0; j < ny; ++j) {
    int last = -1;  // the previous vertex on the row, while marks join it
    for (int i = 0; i < nx; ++i) {
      if (vertex[grid.id(i, j)]) {
        if (last >= 0) join(grid.id(last, j), grid.id(i, j));
        last = i;
      }
      if (i + 1 < nx && !hmark[grid.id(i, j)]) last = -1;
    }
  }
  for (int i = 0; i < nx; ++i) {
    int last = -1;
    for (int j = 0; j < ny; ++j) {
      if (vertex[grid.id(i, j)]) {
        if (last >= 0) join(grid.id(i, last), grid.id(i, j));
        last = j;
      }
      if (j + 1 < ny && !vmark[grid.id(i, j)]) last = -1;
    }
  }
  return oracle_steiner(grid, terminals, adj);
}

bool same_tree(const SteinerTree& a, const SteinerTree& b) {
  if (a.nodes.size() != b.nodes.size() || a.edges != b.edges) return false;
  for (std::size_t k = 0; k < a.nodes.size(); ++k) {
    if (std::memcmp(&a.nodes[k], &b.nodes[k], sizeof(geom::Point)) != 0) {
      return false;
    }
  }
  return true;
}

/// One seeded routing problem for the oracle cases.
struct Field {
  std::vector<geom::Point> pins;
  std::vector<geom::Rect> obstacles;
  double clearance = kDefaultClearance;
};

/// 400 seeded obstacle fields, half on an integer lattice (many
/// equal-length paths, so the (dist, id) tie-break decides) and half on
/// arbitrary coordinates; 2-6 pins, some on obstacle edges as block pins
/// sit, and every fifth field with a pin walled in by a ring of four walls
/// (a third of the rings leave a gap).
std::vector<Field> oracle_fields() {
  std::mt19937_64 rng(0x5eed0a75ull);
  auto unit = [&] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  std::vector<Field> fields;
  for (int field = 0; field < 400; ++field) {
    const bool lattice = field % 2 == 0;
    auto coord = [&](double span) {
      const double c = unit() * span;
      return lattice ? std::floor(c) : c;
    };
    Field f;
    const int num_obstacles = static_cast<int>(rng() % 25);
    for (int k = 0; k < num_obstacles; ++k) {
      f.obstacles.push_back(
          {coord(36.0), coord(36.0), 1.0 + coord(8.0), 1.0 + coord(8.0)});
    }
    const int num_pins = 2 + static_cast<int>(rng() % 5);
    for (int k = 0; k < num_pins; ++k) {
      if (!f.obstacles.empty() && rng() % 3 == 0) {
        const auto& o = f.obstacles[rng() % f.obstacles.size()];
        f.pins.push_back({o.x + o.w / 2.0, o.top()});
      } else {
        f.pins.push_back({coord(40.0), coord(40.0)});
      }
    }
    if (field % 5 == 0) {
      const geom::Point p = f.pins[1];
      const double right_h = field % 15 == 0 ? 2.0 : 6.0;
      f.obstacles.push_back({p.x - 3.0, p.y - 3.0, 6.0, 1.0});
      f.obstacles.push_back({p.x - 3.0, p.y + 2.0, 6.0, 1.0});
      f.obstacles.push_back({p.x - 3.0, p.y - 3.0, 1.0, 6.0});
      f.obstacles.push_back({p.x + 2.0, p.y - 3.0, 1.0, right_h});
    }
    f.clearance = field % 7 == 0 ? 0.3 : kDefaultClearance;
    fields.push_back(std::move(f));
  }
  return fields;
}

using Router = SteinerTree (*)(std::span<const geom::Point>,
                               std::span<const geom::Rect>, double);

/// Routes `f` with `route`; false when it throws.
bool try_route(Router route, const Field& f, SteinerTree& tree) {
  try {
    tree = route(f.pins, f.obstacles, f.clearance);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

TEST(RouteNet, ReturnsTheEscapeOraclesTree) {
  // route_net must return the escape oracle's tree bit for bit, or throw
  // exactly when it does: this pins both the direct graph build and the
  // bounded two-pass search.
  const std::vector<Field> fields = oracle_fields();
  int routed = 0;
  for (std::size_t k = 0; k < fields.size(); ++k) {
    SteinerTree want, got;
    const bool want_ok = try_route(escape_oracle_route_net, fields[k], want);
    ASSERT_EQ(try_route(route_net, fields[k], got), want_ok) << "field " << k;
    if (!want_ok) continue;
    ++routed;
    EXPECT_TRUE(same_tree(got, want)) << "field " << k;
  }
  EXPECT_GE(routed, 200);
  EXPECT_GE(static_cast<int>(fields.size()) - routed, 100);
}

TEST(RouteNet, MatchesTheHananOraclesLengths) {
  // The escape graph keeps a shortest path between any two escape points
  // (Ganley & Cohoon, ISCAS 1994), so a two-pin net routes to the full
  // Hanan grid's length.  A multi-pin tree can branch only at escape-graph
  // vertices, so it may come out longer: bounded in sum and per field.
  // route_net throws exactly when the Hanan oracle does.
  const std::vector<Field> fields = oracle_fields();
  int two_pin = 0;
  double got_sum = 0.0, want_sum = 0.0, worst = 1.0;
  for (std::size_t k = 0; k < fields.size(); ++k) {
    SteinerTree want, got;
    const bool want_ok = try_route(hanan_oracle_route_net, fields[k], want);
    ASSERT_EQ(try_route(route_net, fields[k], got), want_ok) << "field " << k;
    if (!want_ok) continue;
    if (fields[k].pins.size() == 2) {
      ++two_pin;
      EXPECT_NEAR(got.length(), want.length(), 1e-9) << "field " << k;
    } else {
      got_sum += got.length();
      want_sum += want.length();
      worst = std::max(worst, got.length() / want.length());
    }
  }
  EXPECT_GE(two_pin, 40);
  EXPECT_LE(got_sum, 1.01 * want_sum);
  EXPECT_LE(worst, 1.15);
}

TEST(RouteNet, TwoTerminalStraightLine) {
  const std::vector<geom::Point> pins{{0, 0}, {10, 0}};
  const auto tree = route_net(pins, {});
  EXPECT_TRUE(tree_connected(tree));
  EXPECT_NEAR(tree.length(), 10.0, 1e-9);
}

TEST(RouteNet, LShapeWithoutObstacles) {
  const std::vector<geom::Point> pins{{0, 0}, {5, 7}};
  const auto tree = route_net(pins, {});
  EXPECT_NEAR(tree.length(), 12.0, 1e-9);  // Manhattan distance
  EXPECT_TRUE(is_rectilinear(tree));
}

TEST(RouteNet, DetoursAroundObstacle) {
  const std::vector<geom::Point> pins{{0, 5}, {10, 5}};
  const std::vector<geom::Rect> obstacles{{4, 0, 2, 12}};  // wall
  const auto tree = route_net(pins, obstacles);
  EXPECT_TRUE(tree_connected(tree));
  EXPECT_GT(tree.length(), 10.0);  // must detour
  for (const auto& [a, b] : tree.edges) {
    EXPECT_FALSE(segment_crosses(tree.nodes[static_cast<std::size_t>(a)],
                                 tree.nodes[static_cast<std::size_t>(b)],
                                 obstacles[0]));
  }
}

TEST(RouteNet, MultiTerminalSteinerSavesLength) {
  // Three collinear-ish pins: Steiner tree should share the trunk.
  const std::vector<geom::Point> pins{{0, 0}, {10, 0}, {5, 5}};
  const auto tree = route_net(pins, {});
  EXPECT_TRUE(tree_connected(tree));
  // Star from centroid would cost 15; tree shares the x-axis trunk: 10+5.
  EXPECT_LE(tree.length(), 15.0 + 1e-9);
}

TEST(RouteNet, SingleTerminalIsEmptyTree) {
  const std::vector<geom::Point> pins{{3, 3}};
  const auto tree = route_net(pins, {});
  EXPECT_TRUE(tree.empty());
}

TEST(RouteNet, UnreachableThrows) {
  const std::vector<geom::Point> pins{{0, 0}, {10, 0}};
  // Box the first pin in completely: four overlapping walls form a closed
  // ring around the origin.
  const std::vector<geom::Rect> obstacles{
      {-2, -2, 4, 0.5},   // bottom
      {-2, 1.5, 4, 0.5},  // top
      {-2, -2, 0.5, 4},   // left
      {1.5, -2, 0.5, 4},  // right
  };
  EXPECT_THROW(route_net(pins, obstacles, 0.01), std::runtime_error);
}

TEST(ToConduits, SplitsByOrientationAndMerges) {
  SteinerTree t;
  t.nodes = {{0, 0}, {5, 0}, {10, 0}, {10, 4}};
  t.edges = {{0, 1}, {1, 2}, {2, 3}};
  const auto cs = to_conduits(t, "n1");
  // Two horizontal edges merge into one conduit; one vertical remains.
  int hcount = 0, vcount = 0;
  for (const auto& c : cs) {
    if (c.layer == 1) {
      ++hcount;
      EXPECT_NEAR(c.a.x, 0.0, 1e-12);
      EXPECT_NEAR(c.b.x, 10.0, 1e-12);
    } else {
      ++vcount;
    }
    EXPECT_EQ(c.net, "n1");
  }
  EXPECT_EQ(hcount, 1);
  EXPECT_EQ(vcount, 1);
}

TEST(ToConduits, KeepsTheRunOfANearEqualSegment) {
  // Two horizontal edges 2^-52 apart in y merge into one conduit.  The one
  // at the larger y sorts second although it starts further left, so the
  // merged run must take its lower end as well as the higher end.
  SteinerTree t;
  const double y = 1.0 + 0x1.0p-52;
  t.nodes = {{5, 1}, {6, 1}, {0, y}, {5.5, y}};
  t.edges = {{0, 1}, {2, 3}};
  const auto cs = to_conduits(t, "n1");
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].layer, 1);
  EXPECT_EQ(cs[0].a, (geom::Point{0, 1}));
  EXPECT_EQ(cs[0].b, (geom::Point{6, 1}));
}

TEST(BlockPin, EdgesByDirection) {
  const geom::Rect r{0, 0, 4, 2};
  EXPECT_EQ(block_pin(r, 0), (geom::Point{2, 2}));  // N
  EXPECT_EQ(block_pin(r, 1), (geom::Point{4, 1}));  // E
  EXPECT_EQ(block_pin(r, 2), (geom::Point{2, 0}));  // S
  EXPECT_EQ(block_pin(r, 3), (geom::Point{0, 1}));  // W
  EXPECT_EQ(block_pin(r, 0, 0.5), (geom::Point{2, 2.5}));
}

TEST(GlobalRoute, RoutesEveryNetOfPlacedCircuit) {
  // Place ota2 blocks on a simple row and route.
  netlist::Netlist nl = netlist::make_ota2();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  auto inst = floorplan::make_instance(g);
  std::vector<geom::Rect> rects;
  double x = 0.0;
  for (const auto& b : inst.blocks) {
    rects.push_back({x, 0.0, b.shapes[1].w, b.shapes[1].h});
    x += b.shapes[1].w + 1.0;
  }
  const auto gr = global_route(inst, rects);
  EXPECT_EQ(gr.failed_nets, 0);
  EXPECT_EQ(gr.trees.size(), inst.nets.size());
  EXPECT_GT(gr.total_wirelength, 0.0);
  EXPECT_FALSE(gr.conduits.empty());
  for (const auto& t : gr.trees) {
    EXPECT_TRUE(tree_connected(t));
    EXPECT_TRUE(is_rectilinear(t));
  }
}

TEST(GlobalRoute, WindowedLargeInstanceRoutesCleanly) {
  // The router clips each net's escape graph to a window around its pins;
  // the routed trees must still be connected, rectilinear and cover every
  // multi-pin net of a generated 100-block workload.
  const auto sc = ingest::make_scenario(ingest::ScenarioSpec::parse("ota:100:3"));
  auto g = graphir::build_graph(sc.netlist, structrec::recognize(sc.netlist));
  auto inst = floorplan::make_instance(g);
  std::vector<geom::Rect> rects;
  double x = 0.0, y = 0.0, row_h = 0.0;
  int col = 0;
  for (const auto& b : inst.blocks) {
    // 10-wide grid of blocks so windows genuinely exclude far obstacles.
    rects.push_back({x, y, b.shapes[1].w, b.shapes[1].h});
    x += b.shapes[1].w + 1.0;
    row_h = std::max(row_h, b.shapes[1].h);
    if (++col == 10) {
      col = 0;
      x = 0.0;
      y += row_h + 1.0;
      row_h = 0.0;
    }
  }
  const auto gr = global_route(inst, rects);
  EXPECT_EQ(gr.failed_nets, 0);
  EXPECT_GT(gr.total_wirelength, 0.0);
  std::size_t multipin = 0;
  for (const auto& net : inst.nets) multipin += net.size() >= 2 ? 1 : 0;
  EXPECT_EQ(gr.trees.size(), multipin);
  for (const auto& t : gr.trees) {
    EXPECT_TRUE(tree_connected(t));
    EXPECT_TRUE(is_rectilinear(t));
  }
}

/// One routed case: an instance, a fixed placement and the pipeline's
/// per-block routing directions.
struct RouteCase {
  floorplan::Instance inst;
  std::vector<geom::Rect> rects;
  std::vector<int> dirs;
};

/// Eight blocks whose one net, {0, 7}, routes only through the full-canvas
/// retry.  Block 0's pin sits in a pocket of walls (blocks 1-5) whose only
/// exit is a 0.08 um overlap in the right wall: more than one clearance
/// (0.05), so each wall part's edge line lies inside the other part, and
/// less than two, so a channel stays open between the shrunk parts.  No
/// grid line of the net's window runs through that channel.  Block 6, far
/// outside the window, puts its bottom edge on the channel's centre line,
/// so only the full-canvas retry reaches block 7's pin.
RouteCase pocket_case() {
  RouteCase rc;
  rc.inst.blocks.resize(8);
  rc.inst.nets = {{0, 7}};
  rc.rects = {
      {0.0, 0.0, 2.0, 2.0},
      {-3.0, -3.0, 9.0, 1.0},   // bottom wall
      {-3.0, 5.0, 9.0, 1.0},    // top wall
      {-3.0, -3.0, 1.0, 9.0},   // left wall
      {5.0, -3.0, 1.0, 4.54},   // right wall, up to y = 1.54
      {5.0, 1.46, 1.0, 4.54},   // right wall, from y = 1.46
      {100.0, 1.5, 2.0, 2.0},
      {10.0, 0.0, 2.0, 2.0},
  };
  return rc;
}

TEST(GlobalRoute, WindowedRetryEscapesOnTheFullCanvas) {
  // A net first routes on a window around its pins, on instances of any
  // size; this one has 8 blocks, and the window alone cannot route it.
  const RouteCase rc = pocket_case();
  const auto& rects = rc.rects;
  const std::vector<geom::Point> pins{block_pin_for_net(rects[0], 0, 0),
                                      block_pin_for_net(rects[7], 0, 0)};
  geom::Rect window = geom::bounding_box_points(pins);
  window = window.inflated(0.25 * std::max(window.w, window.h) + 2.0);
  std::vector<geom::Rect> clipped;
  for (int b = 1; b < 7; ++b) {
    if (rects[static_cast<std::size_t>(b)].overlaps(window)) {
      clipped.push_back(rects[static_cast<std::size_t>(b)]);
    }
  }
  ASSERT_EQ(clipped.size(), 5u);  // the walls, not block 6
  EXPECT_THROW(route_net(pins, clipped), std::runtime_error);

  const auto gr = global_route(rc.inst, rects);
  EXPECT_EQ(gr.failed_nets, 0);
  ASSERT_EQ(gr.trees.size(), 1u);
  const auto& tree = gr.trees[0];
  EXPECT_TRUE(tree_connected(tree));
  EXPECT_TRUE(is_rectilinear(tree));
  for (const auto& p : pins) {
    EXPECT_NE(std::find(tree.nodes.begin(), tree.nodes.end(), p),
              tree.nodes.end());
  }
  // Down to the channel line y = 1.5, across, and up again.
  EXPECT_NEAR(gr.total_wirelength, 11.0, 1e-9);
}

TEST(GlobalRoute, WirelengthGrowsWithSpread) {
  netlist::Netlist nl = netlist::make_ota_small();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  auto inst = floorplan::make_instance(g);
  auto place = [&](double gap) {
    std::vector<geom::Rect> rects;
    double x = 0.0;
    for (const auto& b : inst.blocks) {
      rects.push_back({x, 0.0, b.shapes[1].w, b.shapes[1].h});
      x += b.shapes[1].w + gap;
    }
    return rects;
  };
  const auto tight = global_route(inst, place(0.5));
  const auto spread = global_route(inst, place(10.0));
  EXPECT_GT(spread.total_wirelength, tight.total_wirelength);
}


// ------------------------------------------------------------ route golden ---
// Pins the bits of global_route across commits.  Each fixed placement is
// routed and the resulting GlobalRoute (every tree's nodes and edges, the
// conduits, the total_wirelength bits, the net names and failed_nets) is
// reduced to a 64-bit FNV-1a fingerprint, compared with the recorded table
// below.  Every net of the Table I circuits and of the 100-, 250- and
// 1000-block scenarios routes on a window around its pins first, and the
// seeded overlaps wall some pins in at both sizes, so the failure path is
// pinned as well.  The hand-placed "pocket" case's net routes only through
// the full-canvas retry, so its row pins the retry's trees.  One Table I
// circuit and one 100-block scenario are also placed with every block
// abutting its neighbours, as the packers place them: their shared edges
// reach the escape graph through different float sums, so they pin the
// line snap.
// Two more tables pin GlobalRoute::expanded, the router's heap-pop count,
// and GlobalRoute::vertices, the escape graphs' size: a change that makes
// routing do more work fails a deterministic count instead of a noisy
// timer.  A change that moves routes or work on purpose re-records the
// tables: the failure message lists every mismatching row.

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    add(u);
  }
  void add(const geom::Point& p) {
    add(p.x);
    add(p.y);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) add(static_cast<std::uint64_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t fingerprint(const route::GlobalRoute& gr) {
  Fnv f;
  f.add(static_cast<std::uint64_t>(gr.trees.size()));
  for (const auto& t : gr.trees) {
    f.add(static_cast<std::uint64_t>(t.nodes.size()));
    for (const auto& p : t.nodes) f.add(p);
    f.add(static_cast<std::uint64_t>(t.edges.size()));
    for (const auto& [a, b] : t.edges) {
      f.add(static_cast<std::uint64_t>(a));
      f.add(static_cast<std::uint64_t>(b));
    }
  }
  for (const auto& n : gr.net_names) f.add(n);
  f.add(static_cast<std::uint64_t>(gr.conduits.size()));
  for (const auto& c : gr.conduits) {
    f.add(c.a);
    f.add(c.b);
    f.add(static_cast<std::uint64_t>(c.layer));
    f.add(c.net);
  }
  f.add(gr.total_wirelength);
  f.add(static_cast<std::uint64_t>(gr.failed_nets));
  return f.value();
}

/// Seeded shelf placement: blocks in a shuffled order, each on a seeded
/// candidate shape, packed into rows with seeded gaps in [-0.3, 1.7] um,
/// or with no gaps when `abut`.  Raw mt19937_64 words only (its output is
/// fixed by the standard; the <random> distributions are not), so the
/// placement is the same on every toolchain.
std::vector<geom::Rect> shelf_placement(const floorplan::Instance& inst,
                                        std::uint64_t seed, bool abut) {
  std::mt19937_64 rng(seed);
  auto gap = [&] {
    return abut ? 0.0
                : static_cast<double>(rng() >> 11) * 0x1.0p-53 * 2.0 - 0.3;
  };
  const std::size_t n = inst.blocks.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  const double row_w = 1.4 * std::sqrt(inst.total_block_area());
  std::vector<geom::Rect> rects(n);
  double x = 0.0, y = 0.0, row_h = 0.0;
  for (const std::size_t b : order) {
    const auto& s = inst.blocks[b].shapes[rng() % floorplan::kNumShapes];
    if (x > 0.0 && x + s.w > row_w) {
      x = 0.0;
      y += row_h + gap();
      row_h = 0.0;
    }
    rects[b] = {x, y, s.w, s.h};
    x += s.w + gap();
    row_h = std::max(row_h, s.h);
  }
  return rects;
}

RouteCase make_case(const netlist::Netlist& nl, std::uint64_t seed,
                    bool abut = false) {
  const auto g = graphir::build_graph(nl, structrec::recognize(nl));
  RouteCase rc;
  rc.inst = floorplan::make_instance(g);
  rc.rects = shelf_placement(rc.inst, seed, abut);
  for (const auto& node : g.nodes) rc.dirs.push_back(node.routing_direction);
  return rc;
}

/// Suffix of the cases whose blocks abut (zero-gap shelves).
constexpr std::string_view kAbut = "/abut";

/// Case names: a Table I circuit or a scenario spec, then "#" and the
/// placement seed, then kAbut for a zero-gap placement; and "pocket", whose
/// net routes only through the full-canvas retry (pocket_case).
std::map<std::string, RouteCase> route_cases() {
  constexpr std::array<std::string_view, 6> kTableI = {
      "ota1", "ota2", "bias1", "rs_latch", "driver", "bias2"};
  std::map<std::string, RouteCase> cases;
  for (const auto& e : netlist::circuit_registry()) {
    if (std::find(kTableI.begin(), kTableI.end(), e.name) == kTableI.end()) {
      continue;
    }
    for (const std::uint64_t seed : {1, 2}) {
      cases[e.name + "#" + std::to_string(seed)] = make_case(e.make(), seed);
    }
    if (e.name == "bias2") {
      cases[e.name + "#1" + std::string(kAbut)] = make_case(e.make(), 1, true);
    }
  }
  for (const char* spec : {"ota:100:1", "bias:100:2", "latch:100:3",
                           "driver:100:4", "ota:250:5", "bias:250:6",
                           "latch:250:7", "driver:250:8", "ota:1000:1"}) {
    const auto sc = ingest::make_scenario(ingest::ScenarioSpec::parse(spec));
    cases[std::string(spec) + "#1"] = make_case(sc.netlist, 1);
  }
  const auto sc =
      ingest::make_scenario(ingest::ScenarioSpec::parse("ota:100:1"));
  cases["ota:100:1#1" + std::string(kAbut)] = make_case(sc.netlist, 1, true);
  cases["pocket"] = pocket_case();
  return cases;
}

/// Every case routed once, shared by the tests below.
const std::map<std::string, route::GlobalRoute>& routed_cases() {
  static const auto routed = [] {
    std::map<std::string, route::GlobalRoute> out;
    for (const auto& [name, rc] : route_cases()) {
      out[name] = route::global_route(rc.inst, rc.rects, rc.dirs);
    }
    return out;
  }();
  return routed;
}

struct Golden {
  const char* name;
  std::uint64_t value;
};

// Route fingerprints, recorded on the sparse escape graph with every net
// windowed first.
constexpr Golden kRouteGolden[] = {
    {"bias1#1", 0x79f2d41203f540adull},
    {"bias1#2", 0xde67a7ae9ca4d531ull},
    {"bias2#1", 0x5d45ad0b5011578full},
    {"bias2#1/abut", 0x466973e72a3daeb0ull},
    {"bias2#2", 0x0d0c5b274dda3b89ull},
    {"bias:100:2#1", 0xcb9b0dec386423daull},
    {"bias:250:6#1", 0x1bbc34dddb2fb472ull},
    {"driver#1", 0x329b4039f134993cull},
    {"driver#2", 0xcbfb6719abf42930ull},
    {"driver:100:4#1", 0xa8046684bd382aa8ull},
    {"driver:250:8#1", 0x0da1a9146b1c25c7ull},
    {"latch:100:3#1", 0xbc8954448bfafdafull},
    {"latch:250:7#1", 0xa3b766926371ec76ull},
    {"ota1#1", 0x29274c42fd1d5a80ull},
    {"ota1#2", 0x506305a6bfa74daeull},
    {"ota2#1", 0xf3d78be3c062c1ecull},
    {"ota2#2", 0x0e31f892ebdeaa62ull},
    {"ota:1000:1#1", 0xc72ff23ccaa2f927ull},
    {"ota:100:1#1", 0x41fffc29d3602d76ull},
    {"ota:100:1#1/abut", 0xcbae126ea534730eull},
    {"ota:250:5#1", 0xef7f5135bf6478b5ull},
    {"pocket", 0x7ac44d6d60e11ac9ull},
    {"rs_latch#1", 0xffc5d0b6b2667bc3ull},
    {"rs_latch#2", 0x30db516dd7f01d48ull},
};

// Heap pops (GlobalRoute::expanded), recorded with the bounded two-pass
// search over the sparse escape graph, every net windowed first.
constexpr Golden kExpandedGolden[] = {
    {"bias1#1", 265},
    {"bias1#2", 251},
    {"bias2#1", 849},
    {"bias2#1/abut", 509},
    {"bias2#2", 798},
    {"bias:100:2#1", 13840},
    {"bias:250:6#1", 113980},
    {"driver#1", 958},
    {"driver#2", 737},
    {"driver:100:4#1", 37191},
    {"driver:250:8#1", 223906},
    {"latch:100:3#1", 25620},
    {"latch:250:7#1", 162103},
    {"ota1#1", 86},
    {"ota1#2", 51},
    {"ota2#1", 413},
    {"ota2#2", 225},
    {"ota:1000:1#1", 3263409},
    {"ota:100:1#1", 23256},
    {"ota:100:1#1/abut", 8536},
    {"ota:250:5#1", 165292},
    {"pocket", 34},
    {"rs_latch#1", 147},
    {"rs_latch#2", 133},
};

// Escape-graph vertices (GlobalRoute::vertices), recorded on the sparse
// escape graph, every net windowed first.
constexpr Golden kVerticesGolden[] = {
    {"bias1#1", 501},
    {"bias1#2", 396},
    {"bias2#1", 1941},
    {"bias2#1/abut", 1088},
    {"bias2#2", 2247},
    {"bias:100:2#1", 41580},
    {"bias:250:6#1", 349018},
    {"driver#1", 1227},
    {"driver#2", 1441},
    {"driver:100:4#1", 64998},
    {"driver:250:8#1", 442328},
    {"latch:100:3#1", 68641},
    {"latch:250:7#1", 481060},
    {"ota1#1", 130},
    {"ota1#2", 63},
    {"ota2#1", 599},
    {"ota2#2", 500},
    {"ota:1000:1#1", 8737667},
    {"ota:100:1#1", 53240},
    {"ota:100:1#1/abut", 25556},
    {"ota:250:5#1", 447844},
    {"pocket", 94},
    {"rs_latch#1", 179},
    {"rs_latch#2", 216},
};

/// Compares `actual` against `table`; returns the rows to paste when any
/// case is missing from the table or differs, and names every table row
/// that no routed case matched.
std::string mismatches(const std::map<std::string, std::uint64_t>& actual,
                       const Golden* table, std::size_t rows,
                       const char* format) {
  std::map<std::string, std::uint64_t> expected;
  for (std::size_t i = 0; i < rows; ++i) {
    expected[table[i].name] = table[i].value;
  }
  std::string out;
  for (const auto& [name, value] : actual) {
    const auto it = expected.find(name);
    if (it != expected.end() && it->second == value) continue;
    char row[128];
    std::snprintf(row, sizeof row, format, name.c_str(),
                  static_cast<unsigned long long>(value));
    out += row;
  }
  for (const auto& [name, value] : expected) {
    if (!actual.contains(name)) out += "    no routed case for " + name + "\n";
  }
  return out;
}

TEST(RouteGolden, MatchesRecordedFingerprints) {
  std::map<std::string, std::uint64_t> actual;
  int failed_table1 = 0, failed_scenario = 0;
  for (const auto& [name, r] : routed_cases()) {
    actual[name] = fingerprint(r);
    // Scenario specs carry colons ("ota:100:1"), Table I names do not.
    (name.find(':') == std::string::npos ? failed_table1 : failed_scenario) +=
        r.failed_nets;
  }
  EXPECT_GT(failed_table1, 0) << "no Table I case walls a pin in";
  EXPECT_GT(failed_scenario, 0) << "no scenario case walls a pin in";
  const std::string bad = mismatches(actual, kRouteGolden,
                                     std::size(kRouteGolden),
                                     "    {\"%s\", 0x%016llxull},\n");
  EXPECT_TRUE(bad.empty()) << "route fingerprints moved; re-record only for "
                              "a change that moves routes on purpose:\n"
                           << bad;
}

TEST(RouteGolden, MatchesRecordedWork) {
  std::map<std::string, std::uint64_t> pops, vertices;
  for (const auto& [name, r] : routed_cases()) {
    pops[name] = r.expanded;
    vertices[name] = r.vertices;
  }
  const std::string bad_pops = mismatches(pops, kExpandedGolden,
                                          std::size(kExpandedGolden),
                                          "    {\"%s\", %llu},\n");
  EXPECT_TRUE(bad_pops.empty())
      << "router heap pops moved; re-record only for a change that moves "
         "routing work on purpose:\n"
      << bad_pops;
  const std::string bad_vertices = mismatches(vertices, kVerticesGolden,
                                              std::size(kVerticesGolden),
                                              "    {\"%s\", %llu},\n");
  EXPECT_TRUE(bad_vertices.empty())
      << "escape-graph vertices moved; re-record only for a change that "
         "moves the graphs on purpose:\n"
      << bad_vertices;
}

TEST(GlobalRoute, AbuttingBlocksLeaveNoNearDuplicateLines) {
  // Abutting blocks share edges that reach the router through different
  // float sums (a rect's own right edge, its neighbour's x).  The escape
  // graph takes its lines from the blocks' raw edges and snaps each net's
  // lines, so no two distinct x (or y) values among a tree's nodes, nor
  // among all trees of a placement together, may lie closer than
  // kLineSnap.
  auto near_duplicates = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    int n = 0;
    for (std::size_t k = 1; k < v.size(); ++k) {
      n += v[k] - v[k - 1] < kLineSnap ? 1 : 0;
    }
    return n;
  };
  int abutting = 0;
  for (const auto& [name, r] : routed_cases()) {
    if (!name.ends_with(kAbut)) continue;
    ++abutting;
    ASSERT_FALSE(r.trees.empty()) << name;
    std::vector<double> all_xs, all_ys;
    for (std::size_t t = 0; t < r.trees.size(); ++t) {
      std::vector<double> xs, ys;
      for (const auto& p : r.trees[t].nodes) {
        xs.push_back(p.x);
        ys.push_back(p.y);
      }
      EXPECT_EQ(near_duplicates(xs), 0) << name << " tree " << t << " (x)";
      EXPECT_EQ(near_duplicates(ys), 0) << name << " tree " << t << " (y)";
      all_xs.insert(all_xs.end(), xs.begin(), xs.end());
      all_ys.insert(all_ys.end(), ys.begin(), ys.end());
    }
    EXPECT_EQ(near_duplicates(all_xs), 0) << name << " all trees (x)";
    EXPECT_EQ(near_duplicates(all_ys), 0) << name << " all trees (y)";
  }
  EXPECT_EQ(abutting, 2);
}

}  // namespace
}  // namespace afp::route
