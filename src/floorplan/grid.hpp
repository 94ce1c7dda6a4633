// Discretized floorplan state for the RL agent (Section IV-D).
//
// The canvas is an n x n grid (n = 32 in the paper).  Blocks occupy
// ceil-quantized footprints (wg = ceil(w * n / W), tabulated per block and
// shape at construction); placements record the lower-left cell.  The class
// maintains:
//   - occupancy (for the grid view fg) and its summed-area table, so the
//     overlap test of one footprint is O(1) (Crow, SIGGRAPH 1984),
//   - symmetry-axis and alignment state for constraint masking (fp),
//   - incremental HPWL / dead-space bookkeeping for the reward masks
//     (fw, fds) and the intermediate reward of Eq. (4).
//
// Symmetry-axis protocol: all vertical-symmetry constraints of an instance
// share one vertical axis (likewise horizontal).  The axis is pinned by the
// first placement that determines it — a self-symmetric block pins it at
// its center; completing a symmetric pair pins it at the pair's midpoint.
// Positions are tracked in half-cell units so mirrored placements stay on
// the integer grid.
#pragma once

#include <optional>
#include <vector>

#include "floorplan/instance.hpp"

namespace afp::floorplan {

/// A block's placement on the grid; shape < 0 means unplaced.
struct GridPlacement {
  int shape = -1;
  int col = -1;
  int row = -1;
  bool placed() const { return shape >= 0; }
};

class GridFloorplan {
 public:
  explicit GridFloorplan(const Instance& inst, int n = 32);

  /// Clears all placements and constraint state.
  void reset();

  int grid_size() const { return n_; }
  const Instance& instance() const { return *inst_; }

  /// Quantized footprint (wg, hg) of block `b` under shape `s`.
  std::pair<int, int> footprint(int b, int s) const {
    return footprints_[static_cast<std::size_t>(b) * kNumShapes +
                       static_cast<std::size_t>(s)];
  }

  /// Fit + overlap check only (no constraints); O(1).
  bool fits(int b, int s, int col, int row) const;

  /// Full validity: fit, overlap and constraint masks.
  bool valid(int b, int s, int col, int row) const;

  /// Places block `b`; precondition: valid(...).  Updates constraint state.
  void place(int b, int s, int col, int row);

  bool placed(int b) const {
    return placements_[static_cast<std::size_t>(b)].placed();
  }
  int num_placed() const { return num_placed_; }
  bool complete() const { return num_placed_ == inst_->num_blocks(); }
  const GridPlacement& placement(int b) const {
    return placements_[static_cast<std::size_t>(b)];
  }

  /// Continuous rectangle of a placed block (um).
  geom::Rect rect_of(int b) const;
  /// Rectangles of all blocks; requires complete().
  std::vector<geom::Rect> rects() const;

  /// Dead space over currently placed blocks (0 when < 2 placed).
  double partial_dead_space() const;
  /// HPWL over nets restricted to currently placed blocks.
  double partial_hpwl() const;

  // ---- masks (row-major n*n, index = row * n + col) ----------------------
  /// fg: 1 = occupied.
  std::vector<float> occupancy_mask() const;
  /// fp channel for shape `s` of block `b`: 1 = admissible cell.
  std::vector<float> position_mask(int b, int s) const;
  /// fw: normalized HPWL increase of placing `b` (shape `s`) per cell;
  /// invalid cells = 1.
  std::vector<float> wire_mask(int b, int s) const;
  /// fds: normalized dead-space increase per cell; invalid cells = 1.
  std::vector<float> dead_space_mask(int b, int s) const;
  /// Routing-congestion estimate (RUDY-style): every net with >= 2 placed
  /// pins spreads a demand of (w + h) / (w * h) over its bounding box;
  /// normalized to [0, 1].  This is the paper's future-work extension —
  /// conditioning placement on expected routing density (Section VI).
  std::vector<float> congestion_mask() const;

  /// True when some (shape, cell) action exists for block `b`.
  bool any_valid_action(int b) const;

  // Axis state, exposed for tests (half-cell units).
  std::optional<int> vertical_axis2() const { return vaxis2_; }
  std::optional<int> horizontal_axis2() const { return haxis2_; }

 private:
  bool constraint_ok(int b, int s, int col, int row) const;
  void update_constraint_state(int b);

  const Instance* inst_;
  int n_;
  geom::GridMapper mapper_;
  std::vector<std::pair<int, int>> footprints_;  ///< (wg, hg) per block, shape
  std::vector<GridPlacement> placements_;
  std::vector<std::uint8_t> occ_;  ///< n*n occupancy
  /// (n+1)^2 summed-area table of occ_: entry (r, c) counts the occupied
  /// cells in rows < r and columns < c.
  std::vector<int> occ_sum_;
  int num_placed_ = 0;

  std::optional<int> vaxis2_;  ///< vertical symmetry axis, half cells
  std::optional<int> haxis2_;
  std::vector<std::optional<int>> align_pin_;  ///< pinned row/col per group

  // Constraint membership lookup tables (built once).
  struct PairRef {
    int partner;
    bool vertical;
  };
  std::vector<std::vector<PairRef>> pair_of_;      ///< per block
  std::vector<std::vector<bool>> self_sym_of_;     ///< per block: {vert?}
  std::vector<std::vector<int>> align_groups_of_;  ///< group indices
};

}  // namespace afp::floorplan
