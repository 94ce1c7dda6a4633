// Procedural layout generation — the ANAGEN [11,12] substitute.
//
// Pipeline stages mirroring Section IV-E / Fig. 7:
//   1. Template realization: placed blocks become layout templates with pin
//      geometry on their preferred routing edge.
//   2. Channel definition: every global-routing conduit expands into a
//      routing channel (a padded corridor on its layer).
//   3. Detailed routing: conduits become wire rectangles; each net is
//      shifted as a whole onto one of 16 lanes (4 offsets per axis, 1.25
//      wire widths apart: net_lane_offset), which keeps the net connected
//      while separating it from other nets' wires on the same line; layer
//      changes get via squares.
//   4. Verification: DRC-style checks (same-layer spacing between
//      different nets, wires within the outline) and an LVS-style check
//      (each net's wires + pins form one connected component).
//   5. SVG export for visual inspection (Fig. 7 panels).
//
// Verification finds contacts through a sort-and-sweep contact index
// instead of testing all pairs.  Net names are interned to integer ids
// once per call; each layer's wires are sorted by their lower edge along
// the axis where they are thinner relative to their spread (chosen from
// the geometry), and the scan from each wire stops at the first wire whose
// lower edge reaches its upper edge.  Every candidate is tested with the
// same inflated doubles and the same strict Rect::overlaps an all-pairs
// loop uses, so the reported pairs are exactly the all-pairs set: DRC
// spacing, LVS shorts and each net's LVS connectivity cost
// O(n log n + candidates) rather than O(n^2).  The block-overlap check
// stays all-pairs (about 125k tests at 500 blocks).
#pragma once

#include <string>
#include <vector>

#include "route/oarsmt.hpp"

namespace afp::layoutgen {

struct LayoutConfig {
  double wire_width = 0.2;    ///< um
  double wire_spacing = 0.25; ///< um, min same-layer spacing
  double channel_pad = 0.3;   ///< um, channel padding around conduits
  double via_size = 0.26;     ///< um
  double outline_margin = 1.0;///< um around everything
};

struct WireSegment {
  geom::Rect rect;
  int layer = 1;
  std::string net;
};

struct Via {
  geom::Rect rect;
  std::string net;
};

struct Channel {
  geom::Rect rect;
  int layer = 1;
};

struct PinShape {
  geom::Rect rect;
  int block = -1;
  std::string net;
};

struct Layout {
  std::vector<geom::Rect> blocks;
  std::vector<PinShape> pins;
  std::vector<Channel> channels;
  std::vector<WireSegment> wires;
  std::vector<Via> vias;
  geom::Rect outline;

  double area() const { return outline.area(); }
  /// Dead space of the completed layout: 1 - block area / outline area.
  double dead_space(const floorplan::Instance& inst) const;
};

/// Runs stages 1-3.  `routing_dirs` gives each block's preferred pin edge
/// (0=N,1=E,2=S,3=W) and must match what global routing used so pin
/// shapes land on the routed terminals; empty means north for all.
Layout generate_layout(const floorplan::Instance& inst,
                       const std::vector<geom::Rect>& rects,
                       const route::GlobalRoute& gr,
                       const LayoutConfig& cfg = {},
                       const std::vector<int>& routing_dirs = {});

struct DrcViolation {
  std::string rule;
  std::string detail;
};

struct DrcReport {
  std::vector<DrcViolation> violations;
  bool clean() const { return violations.empty(); }
};

/// Same-layer spacing between different nets; geometry inside outline.
/// Output order, fixed for every input: for each wire i in layout order,
/// its "outline" violation, then one "spacing" violation per same-layer,
/// different-net wire j > i, ascending j, whose rect overlaps wire i's when
/// both are inflated by wire_spacing / 2; then "block_overlap" per block
/// pair (i, j), i < j, in lexicographic order.
DrcReport run_drc(const Layout& layout, const LayoutConfig& cfg = {});

struct LvsReport {
  /// Nets whose geometry is split, in ascending name order.
  std::vector<std::string> open_nets;
  /// "a/b" per pair of overlapping same-layer wires i < j of different
  /// nets a and b, ordered by i, then j.
  std::vector<std::string> shorted;
  bool clean() const { return open_nets.empty() && shorted.empty(); }
};

/// Connectivity extraction: wires + vias + pins per net, each inflated by
/// 1e-6 um so abutting shapes connect, must form a single connected
/// component, and no two nets' same-layer wires may overlap.
LvsReport run_lvs(const Layout& layout);

/// Writes an SVG rendering (blocks, channels, wires per layer, vias).
void write_svg(const std::string& path, const Layout& layout);

}  // namespace afp::layoutgen
