// Obstacle-Avoiding Rectilinear Steiner Minimal Tree (OARSMT) global
// router (Section IV-E; as in [13]).
//
// Per net: the router builds the Ganley–Cohoon escape graph (Ganley &
// Cohoon, ISCAS 1994) straight from the obstacles.  Its Hanan lines are
// the terminals' coordinates and the raw edges of every obstacle whose
// rect, shrunk by the clearance, is non-empty; lines closer than
// kLineSnap collapse onto the lowest of them.  A crossing of two lines,
// or the piece of line between two adjacent crossings, is blocked when a
// shrunk obstacle contains it (for a piece: either end or its midpoint).
// From every escape point, each terminal and each such obstacle's four
// corners, a segment runs along its row and its column in both
// directions up to the first blocked piece.  The vertices are the escape
// points, the segments' ends and the crossings of a horizontal with a
// vertical segment; consecutive vertices on a segment are joined by an
// edge as long as the difference of their coordinates.  The graph keeps
// a shortest obstacle-avoiding path between any two escape points, at a
// few percent of the full Hanan grid's vertices, and no nx x ny array is
// ever allocated.  Terminals are connected one at a time via shortest
// paths over the graph (nearest-terminal-first Steiner construction); a
// tree branches only at graph vertices.  The resulting tree is segmented
// into per-layer conduits that guide detailed routing: horizontal
// segments on layer 1, vertical on layer 2.
//
// Each Steiner round searches the graph's CSR adjacency twice.  An A*
// pass (h = Manhattan distance to the nearest remaining terminal, a lower
// bound no obstacle can beat) finds only the distance D* to the nearest
// terminal.  The path pass is a multi-source Dijkstra in (distance,
// vertex id) order, ids running row-major as on the full grid, that
// relaxes an edge only when it improves a distance by more than 1e-12 um,
// and it never reaches a vertex whose lower bound g + h exceeds D* + 1e-6
// um.  Along a shortest path g + h never decreases, so every vertex that
// can set a path vertex's distance or predecessor passes that bound: the
// pass picks the same terminal and the same path, bit for bit, as the
// unbounded Dijkstra, while popping only vertices that can lie on a
// shortest path to it instead of the whole disk around the tree.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "floorplan/instance.hpp"

namespace afp::route {

/// Rectilinear tree over Steiner nodes.
struct SteinerTree {
  std::vector<geom::Point> nodes;
  /// Edges are axis-aligned segments between node indices.
  std::vector<std::pair<int, int>> edges;

  double length() const;
  bool empty() const { return edges.empty(); }
};

/// A straight routed segment on one layer.
struct Conduit {
  geom::Point a;
  geom::Point b;
  int layer = 1;  ///< 1 = horizontal, 2 = vertical
  std::string net;
};

/// Obstacle shrink that keeps edges along block boundaries legal.
inline constexpr double kDefaultClearance = 0.05;

/// Hanan lines closer than this (um) are one line.  A coordinate that two
/// different float sums reach (a pin placed on a block edge, say) lands an
/// ulp or so from the edge; kept apart, the two lines would leave ulp-long
/// tree edges.  The escape graph keeps a sorted coordinate only when it
/// lies at least this far above the last one kept, and puts a point on
/// the first line at or above its coordinate minus this tolerance, so a
/// terminal in a collapsed cluster maps onto the cluster's lowest line.
inline constexpr double kLineSnap = 1e-9;

/// Routes one net.  `terminals` are pin locations; `obstacles` are regions
/// the route must not cross (they are shrunk by `clearance` so edges along
/// block boundaries remain legal).  Throws std::runtime_error when some
/// terminal cannot be reached.
SteinerTree route_net(std::span<const geom::Point> terminals,
                      std::span<const geom::Rect> obstacles,
                      double clearance = kDefaultClearance);

/// Splits a tree into per-layer conduits, merging collinear edges.
std::vector<Conduit> to_conduits(const SteinerTree& tree,
                                 const std::string& net);

/// Pin location of a block: the midpoint of its preferred routing edge
/// (routing_direction 0=N,1=E,2=S,3=W), nudged outside by `offset`.
geom::Point block_pin(const geom::Rect& rect, int routing_direction,
                      double offset = 0.0);

/// Per-net pin location: terminals of different nets spread out along the
/// block's routing edge (template realization gives each net its own
/// terminal), preventing distinct nets from converging on one point.
geom::Point block_pin_for_net(const geom::Rect& rect, int routing_direction,
                              std::size_t net_index);

struct GlobalRoute {
  std::vector<SteinerTree> trees;     ///< one per routed net
  std::vector<std::string> net_names;
  std::vector<Conduit> conduits;
  double total_wirelength = 0.0;
  int failed_nets = 0;
  /// Heap pops over both search passes, all nets and all Steiner rounds
  /// (failed attempts included): a deterministic measure of routing work.
  std::uint64_t expanded = 0;
  /// Escape-graph vertices built, summed over nets (a windowed attempt and
  /// its full-canvas retry both count): the graphs' deterministic size.
  std::uint64_t vertices = 0;
};

/// Routes every net of the instance over the placed blocks.  Blocks not on
/// the net act as obstacles; pins sit on block boundaries per each block's
/// preferred routing direction (derived from the structure type when the
/// graph is available; here: north).  Every net, at any instance size,
/// first routes on a window: its pins' bounding box inflated by a quarter
/// of its longer side plus 2 um, with the blocks that overlap it as
/// obstacles.  When a pin is walled in there, the net retries once on the
/// full canvas with every block as an obstacle, and counts as failed only
/// when that fails too.  One escape graph's storage and one search
/// scratch, each sized to the largest net so far, serve every net and are
/// freed on return; on glibc the call then hands its freed heap pages back
/// to the system.
GlobalRoute global_route(const floorplan::Instance& inst,
                         const std::vector<geom::Rect>& rects,
                         const std::vector<int>& routing_dirs = {});

}  // namespace afp::route
