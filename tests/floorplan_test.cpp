#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "env/env.hpp"
#include "floorplan/grid.hpp"
#include "ingest/scenario.hpp"
#include "netlist/library.hpp"

namespace afp::floorplan {
namespace {

Instance instance_of(const netlist::Netlist& nl, bool constrained = false) {
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  if (constrained) {
    graphir::apply_constraints(g, graphir::default_constraints(g));
  }
  return make_instance(g);
}

/// Simple handcrafted 2-block instance for precise mask assertions.
Instance tiny_instance() {
  Instance inst;
  inst.name = "tiny";
  for (int i = 0; i < 2; ++i) {
    Block b;
    b.name = "b" + std::to_string(i);
    b.type = structrec::StructureType::kSingleNmos;
    b.area_um2 = 64.0;
    b.shapes = {Shape{8.0, 8.0}, Shape{8.0, 8.0}, Shape{8.0, 8.0}};
    inst.blocks.push_back(b);
  }
  inst.nets = {{0, 1}};
  inst.canvas_w = 32.0;
  inst.canvas_h = 32.0;
  inst.hpwl_ref = 8.0;
  return inst;
}

TEST(CandidateShapes, AreaPreservedAcrossVariants) {
  for (int t = 0; t < structrec::kNumStructureTypes; ++t) {
    const auto shapes =
        candidate_shapes(25.0, static_cast<structrec::StructureType>(t));
    for (const auto& s : shapes) {
      EXPECT_NEAR(s.area(), 25.0, 1e-9);
      EXPECT_GT(s.w, 0.0);
    }
  }
}

TEST(CandidateShapes, MatchedPairsAreWide) {
  const auto dp = candidate_shapes(16.0, structrec::StructureType::kDiffPairN);
  for (const auto& s : dp) EXPECT_GE(s.w, s.h - 1e-9);
}

TEST(Instance, PlacementOrderDecreasingArea) {
  const auto inst = instance_of(netlist::make_bias2());
  const auto order = inst.placement_order();
  ASSERT_EQ(static_cast<int>(order.size()), inst.num_blocks());
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(inst.blocks[static_cast<std::size_t>(order[i - 1])].area_um2,
              inst.blocks[static_cast<std::size_t>(order[i])].area_um2);
  }
}

TEST(Instance, CanvasCoversRmaxFloorplans) {
  const auto inst = instance_of(netlist::make_ota2());
  EXPECT_NEAR(inst.canvas_w * inst.canvas_h,
              inst.total_block_area() * 11.0, 1e-6);
}

TEST(Evaluate, PerfectPackingAtReferenceScoresZero) {
  Instance inst = tiny_instance();
  // Two 8x8 blocks side by side: zero dead space; centers 8 apart.
  const std::vector<geom::Rect> rects{{0, 0, 8, 8}, {8, 0, 8, 8}};
  inst.hpwl_ref = 8.0;
  const auto ev = evaluate_floorplan(inst, rects);
  EXPECT_NEAR(ev.dead_space, 0.0, 1e-9);
  EXPECT_NEAR(ev.hpwl, 8.0, 1e-9);
  EXPECT_NEAR(ev.reward, 0.0, 1e-9);
  EXPECT_TRUE(ev.constraints_ok);
}

TEST(Evaluate, DeadSpaceAndWirelengthPenalized) {
  Instance inst = tiny_instance();
  const std::vector<geom::Rect> rects{{0, 0, 8, 8}, {16, 16, 8, 8}};
  const auto ev = evaluate_floorplan(inst, rects);
  EXPECT_GT(ev.dead_space, 0.5);
  EXPECT_LT(ev.reward, -1.0);
}

TEST(Evaluate, TargetAspectTerm) {
  // A 2:1 strip pays the gamma (R* - R)^2 penalty when R* = 1 is requested
  // and none when the target matches or is absent.
  Instance inst = tiny_instance();
  const std::vector<geom::Rect> wide{{0, 0, 8, 8}, {8, 0, 8, 8}};
  const double free_reward = evaluate_floorplan(inst, wide).reward;
  inst.target_aspect = 2.0;
  EXPECT_NEAR(evaluate_floorplan(inst, wide).reward, free_reward, 1e-9);
  inst.target_aspect = 1.0;
  EXPECT_NEAR(evaluate_floorplan(inst, wide).reward, free_reward - 5.0, 1e-9);
}

TEST(Evaluate, ViolationGetsPenalty) {
  Instance inst = tiny_instance();
  inst.constraints.sym_pairs.push_back({0, 1, true});
  // Blocks at different rows: symmetric-pair row condition broken.
  const std::vector<geom::Rect> rects{{0, 0, 8, 8}, {8, 4, 8, 8}};
  const auto ev = evaluate_floorplan(inst, rects);
  EXPECT_FALSE(ev.constraints_ok);
  EXPECT_DOUBLE_EQ(ev.reward, -50.0);
}

/// Violated constraint items at the continuous optimizers' tolerance.
int violated(const Instance& inst, const std::vector<geom::Rect>& rects) {
  return constraint_violations(inst, rects, 1e-6);
}

TEST(ConstraintsSatisfied, VerticalSymPair) {
  Instance inst = tiny_instance();
  inst.constraints.sym_pairs.push_back({0, 1, true});
  // Mirrored about x = 8.
  EXPECT_EQ(violated(inst, {{0, 0, 8, 8}, {8, 0, 8, 8}}), 0);
  EXPECT_GT(violated(inst, {{0, 0, 8, 8}, {8, 2, 8, 8}}), 0);
}

TEST(ConstraintsSatisfied, LoneSymPairRequiresCongruentDims) {
  // Regression: with a single sym pair the mirror axis is derived from that
  // very pair's midpoint, so the midpoint check was vacuously true and a
  // pair of different-sized blocks "satisfied" its symmetry.  Mirrored
  // twins must be congruent.
  Instance inst = tiny_instance();
  inst.constraints.sym_pairs.push_back({0, 1, true});
  // Same row, mismatched footprints: 8x8 vs 4x16 — reflection cannot map
  // one onto the other no matter where the axis sits.
  EXPECT_GT(violated(inst, {{0, 0, 8, 8}, {12, 0, 4, 16}}), 0);
  EXPECT_GT(violated(inst, {{0, 0, 8, 8}, {12, 0, 8, 10}}), 0);
  // Congruent and mirrored about the midpoint: satisfied.
  EXPECT_EQ(violated(inst, {{0, 0, 8, 8}, {12, 0, 8, 8}}), 0);
  // Horizontal pairs get the same treatment.
  Instance hinst = tiny_instance();
  hinst.constraints.sym_pairs.push_back({0, 1, false});
  EXPECT_GT(violated(hinst, {{0, 0, 8, 8}, {0, 12, 16, 4}}), 0);
  EXPECT_EQ(violated(hinst, {{0, 0, 8, 8}, {0, 12, 8, 8}}), 0);
}

TEST(ConstraintsSatisfied, SelfSymPinsAxisForPairs) {
  Instance inst = tiny_instance();
  inst.blocks.push_back(inst.blocks[0]);
  inst.blocks[2].name = "dp";
  inst.constraints.self_syms.push_back({2, true});
  inst.constraints.sym_pairs.push_back({0, 1, true});
  // Self-sym block centered at x=12; pair must mirror about 12.
  EXPECT_EQ(violated(inst, {{0, 8, 8, 8}, {16, 8, 8, 8}, {8, 0, 8, 8}}), 0);
  EXPECT_GT(violated(inst, {{0, 8, 8, 8}, {10, 8, 8, 8}, {8, 0, 8, 8}}), 0);
}

TEST(ConstraintsSatisfied, AlignGroups) {
  Instance inst = tiny_instance();
  inst.constraints.align_groups.push_back({{0, 1}, true});
  EXPECT_EQ(violated(inst, {{0, 3, 8, 8}, {10, 3, 8, 8}}), 0);
  EXPECT_GT(violated(inst, {{0, 3, 8, 8}, {10, 4, 8, 8}}), 0);
}

// ---------------------------------------------------------------- grid ---

TEST(Grid, FootprintCeilQuantization) {
  Instance inst = tiny_instance();
  GridFloorplan fp(inst, 32);
  // 8 um on a 32 um canvas with 32 cells -> exactly 8 cells.
  EXPECT_EQ(fp.footprint(0, 0), (std::pair<int, int>{8, 8}));
}

TEST(Grid, PlaceAndOccupancy) {
  Instance inst = tiny_instance();
  GridFloorplan fp(inst, 32);
  EXPECT_TRUE(fp.fits(0, 0, 0, 0));
  fp.place(0, 0, 0, 0);
  EXPECT_TRUE(fp.placed(0));
  EXPECT_EQ(fp.num_placed(), 1);
  // Overlap rejected; abutment allowed.
  EXPECT_FALSE(fp.fits(1, 0, 7, 7));
  EXPECT_TRUE(fp.fits(1, 0, 8, 0));
  const auto fg = fp.occupancy_mask();
  EXPECT_FLOAT_EQ(fg[0], 1.0f);
  EXPECT_FLOAT_EQ(fg[7 * 32 + 7], 1.0f);
  EXPECT_FLOAT_EQ(fg[8 * 32 + 8], 0.0f);
}

TEST(Grid, OutOfBoundsRejected) {
  Instance inst = tiny_instance();
  GridFloorplan fp(inst, 32);
  EXPECT_FALSE(fp.fits(0, 0, 25, 0));  // 25 + 8 > 32
  EXPECT_FALSE(fp.fits(0, 0, -1, 0));
  EXPECT_FALSE(fp.fits(0, 0, 0, 30));
}

TEST(Grid, PlaceInvalidThrows) {
  Instance inst = tiny_instance();
  GridFloorplan fp(inst, 32);
  fp.place(0, 0, 0, 0);
  EXPECT_THROW(fp.place(1, 0, 0, 0), std::logic_error);
}

TEST(Grid, RectOfMatchesPlacement) {
  Instance inst = tiny_instance();
  GridFloorplan fp(inst, 32);
  fp.place(0, 0, 4, 8);
  const auto r = fp.rect_of(0);
  EXPECT_DOUBLE_EQ(r.x, 4.0);
  EXPECT_DOUBLE_EQ(r.y, 8.0);
  EXPECT_DOUBLE_EQ(r.w, 8.0);
}

TEST(Grid, PartialMetrics) {
  Instance inst = tiny_instance();
  GridFloorplan fp(inst, 32);
  EXPECT_DOUBLE_EQ(fp.partial_dead_space(), 0.0);
  fp.place(0, 0, 0, 0);
  EXPECT_DOUBLE_EQ(fp.partial_dead_space(), 0.0);  // single block
  EXPECT_DOUBLE_EQ(fp.partial_hpwl(), 0.0);
  fp.place(1, 0, 16, 0);
  EXPECT_NEAR(fp.partial_dead_space(), 1.0 - 128.0 / (24 * 8), 1e-9);
  EXPECT_NEAR(fp.partial_hpwl(), 16.0, 1e-9);
  EXPECT_TRUE(fp.complete());
  EXPECT_EQ(fp.rects().size(), 2u);
}

TEST(Grid, PositionMaskExcludesOverlapsAndBounds) {
  Instance inst = tiny_instance();
  GridFloorplan fp(inst, 32);
  fp.place(0, 0, 0, 0);
  const auto mask = fp.position_mask(1, 0);
  EXPECT_FLOAT_EQ(mask[0], 0.0f);            // overlap
  EXPECT_FLOAT_EQ(mask[8], 1.0f);            // abutting right
  EXPECT_FLOAT_EQ(mask[25], 0.0f);           // would exceed right edge
  EXPECT_FLOAT_EQ(mask[24], 1.0f);           // exactly at the edge
}

TEST(Grid, WireMaskPrefersProximity) {
  Instance inst = tiny_instance();
  GridFloorplan fp(inst, 32);
  fp.place(0, 0, 0, 0);
  const auto fw = fp.wire_mask(1, 0);
  // Placing right next to block 0 must increase HPWL less than placing at
  // the far corner.
  EXPECT_LT(fw[8], fw[24 * 32 + 24]);
  // Occupied cells carry the maximum value 1.
  EXPECT_FLOAT_EQ(fw[0], 1.0f);
}

TEST(Grid, DeadSpaceMaskPrefersCompaction) {
  Instance inst = tiny_instance();
  GridFloorplan fp(inst, 32);
  fp.place(0, 0, 0, 0);
  const auto fds = fp.dead_space_mask(1, 0);
  EXPECT_LT(fds[8], fds[24 * 32 + 0]);  // abutting beats a gap
  EXPECT_FLOAT_EQ(fds[3], 1.0f);        // overlapping region invalid
}

TEST(Grid, SymPairMasksEnforceMirrorAfterAxisKnown) {
  Instance inst = tiny_instance();
  inst.blocks.push_back(inst.blocks[0]);  // block 2: the self-sym anchor
  inst.constraints.self_syms.push_back({2, true});
  inst.constraints.sym_pairs.push_back({0, 1, true});
  GridFloorplan fp(inst, 32);
  // Anchor at col 12 row 0 -> axis at center 2*12+8 = 32 half-cells (x=16).
  fp.place(2, 0, 12, 0);
  ASSERT_TRUE(fp.vertical_axis2().has_value());
  EXPECT_EQ(*fp.vertical_axis2(), 32);
  // Place pair member 0 at col 2, row 8: center2 = 12.
  ASSERT_TRUE(fp.valid(0, 0, 2, 8));
  fp.place(0, 0, 2, 8);
  // Partner must mirror: center2 = 2*32 - 12 = 52 -> col = (52-8)/2 = 22,
  // same row, same shape.
  EXPECT_TRUE(fp.valid(1, 0, 22, 8));
  EXPECT_FALSE(fp.valid(1, 0, 21, 8));
  EXPECT_FALSE(fp.valid(1, 0, 22, 9));
  const auto mask = fp.position_mask(1, 0);
  int valid_count = 0;
  for (float v : mask) valid_count += v > 0.5f;
  EXPECT_EQ(valid_count, 1);
}

TEST(Grid, SelfSymMustCenterOnAxis) {
  Instance inst = tiny_instance();
  inst.blocks.push_back(inst.blocks[0]);
  inst.constraints.self_syms.push_back({0, true});
  inst.constraints.self_syms.push_back({1, true});
  GridFloorplan fp(inst, 32);
  fp.place(0, 0, 4, 0);  // axis = 2*4+8 = 16 half-cells (x=8)
  // Block 1 must center on the same axis: col = (16-8)/2 = 4.
  EXPECT_TRUE(fp.valid(1, 0, 4, 8));
  EXPECT_FALSE(fp.valid(1, 0, 5, 8));
}

TEST(Grid, PairBeforeAxisRequiresSameRowAndParity) {
  Instance inst = tiny_instance();
  inst.constraints.sym_pairs.push_back({0, 1, true});
  GridFloorplan fp(inst, 32);
  fp.place(0, 0, 0, 0);  // center2 = 8, axis still open
  EXPECT_FALSE(fp.vertical_axis2().has_value());
  // Same row, even combined center parity.
  EXPECT_TRUE(fp.valid(1, 0, 10, 0));   // center2 = 28; 8+28 even
  EXPECT_FALSE(fp.valid(1, 0, 10, 3)); // row mismatch
  fp.place(1, 0, 10, 0);
  ASSERT_TRUE(fp.vertical_axis2().has_value());
  EXPECT_EQ(*fp.vertical_axis2(), (8 + 28) / 2);
}

TEST(Grid, HorizontalSymmetryMirrorsRows) {
  Instance inst = tiny_instance();
  inst.blocks.push_back(inst.blocks[0]);
  inst.constraints.self_syms.push_back({2, false});
  inst.constraints.sym_pairs.push_back({0, 1, false});
  GridFloorplan fp(inst, 32);
  fp.place(2, 0, 0, 12);  // horizontal axis at center2 y = 32
  ASSERT_TRUE(fp.horizontal_axis2().has_value());
  fp.place(0, 0, 10, 2);  // cy2 = 12
  // Partner: cy2 = 52 -> row 22, same col.
  EXPECT_TRUE(fp.valid(1, 0, 10, 22));
  EXPECT_FALSE(fp.valid(1, 0, 11, 22));
}

TEST(Grid, AlignGroupPinsRow) {
  Instance inst = tiny_instance();
  inst.constraints.align_groups.push_back({{0, 1}, true});
  GridFloorplan fp(inst, 32);
  fp.place(0, 0, 0, 5);
  EXPECT_TRUE(fp.valid(1, 0, 10, 5));
  EXPECT_FALSE(fp.valid(1, 0, 10, 6));
}

TEST(Grid, AnyValidActionDetectsDeadEnd) {
  Instance inst = tiny_instance();
  // Shrink the canvas so the second block cannot fit anywhere after the
  // first occupies the whole grid.
  inst.blocks[0].shapes = {Shape{32, 32}, Shape{32, 32}, Shape{32, 32}};
  inst.blocks[0].area_um2 = 32 * 32;
  GridFloorplan fp(inst, 32);
  EXPECT_TRUE(fp.any_valid_action(0));
  fp.place(0, 0, 0, 0);
  EXPECT_FALSE(fp.any_valid_action(1));
}

TEST(Grid, ResetClearsState) {
  Instance inst = tiny_instance();
  inst.constraints.self_syms.push_back({0, true});
  GridFloorplan fp(inst, 32);
  fp.place(0, 0, 4, 0);
  EXPECT_TRUE(fp.vertical_axis2().has_value());
  fp.reset();
  EXPECT_EQ(fp.num_placed(), 0);
  EXPECT_FALSE(fp.vertical_axis2().has_value());
  EXPECT_FALSE(fp.placed(0));
}

TEST(Grid, RealCircuitEpisodeByGreedyMaskFollowing) {
  // Property: following the position mask greedily always completes an
  // unconstrained episode without overlaps.
  for (const auto& name : {"ota2", "driver", "bias2"}) {
    netlist::Netlist nl;
    for (const auto& e : netlist::circuit_registry()) {
      if (e.name == name) nl = e.make();
    }
    const Instance inst = instance_of(nl);
    GridFloorplan fp(inst, 32);
    for (int b : inst.placement_order()) {
      const auto mask = fp.position_mask(b, 1);
      int cell = -1;
      for (std::size_t i = 0; i < mask.size(); ++i) {
        if (mask[i] > 0.5f) {
          cell = static_cast<int>(i);
          break;
        }
      }
      ASSERT_GE(cell, 0) << name << " block " << b;
      fp.place(b, 1, cell % 32, cell / 32);
    }
    EXPECT_TRUE(fp.complete()) << name;
    const auto rects = fp.rects();
    EXPECT_DOUBLE_EQ(geom::total_pairwise_overlap(rects), 0.0) << name;
  }
}

// ------------------------------------------------------------ mask oracle ---
// The per-cell mask builders the grid had before its summed-area fits,
// footprint table and hoisted net boxes, kept as their oracle:
// every channel, the action mask and the dead-end answer must match them
// bit for bit on seeded random walks of constrained circuits.

/// One grid state's masks, rebuilt cell by cell.
class ReferenceMasks {
 public:
  explicit ReferenceMasks(const GridFloorplan& fp)
      : fp_(fp),
        inst_(fp.instance()),
        n_(fp.grid_size()),
        mapper_{inst_.canvas_w, inst_.canvas_h, n_},
        occ_(fp.occupancy_mask()) {}

  std::pair<int, int> footprint(int b, int s) const {
    const Shape& sh = shape(b, s);
    return {mapper_.cells_w(sh.w), mapper_.cells_h(sh.h)};
  }

  /// Scans every cell of the footprint.
  bool fits(int b, int s, int col, int row) const {
    const auto [wg, hg] = footprint(b, s);
    if (col < 0 || row < 0 || col + wg > n_ || row + hg > n_) return false;
    for (int r = row; r < row + hg; ++r) {
      for (int c = col; c < col + wg; ++c) {
        if (occ_[static_cast<std::size_t>(r) * n_ + c] != 0.0f) return false;
      }
    }
    return true;
  }

  /// The constraint test itself is private to the grid; valid() supplies
  /// it once the cell scan has passed.
  bool valid(int b, int s, int col, int row) const {
    return fits(b, s, col, row) && fp_.valid(b, s, col, row);
  }

  std::vector<float> position_mask(int b, int s) const {
    std::vector<float> m(static_cast<std::size_t>(n_) * n_, 0.0f);
    for (int row = 0; row < n_; ++row) {
      for (int col = 0; col < n_; ++col) {
        if (valid(b, s, col, row)) {
          m[static_cast<std::size_t>(row) * n_ + col] = 1.0f;
        }
      }
    }
    return m;
  }

  bool any_valid_action(int b) const {
    for (int s = 0; s < kNumShapes; ++s) {
      for (int row = 0; row < n_; ++row) {
        for (int col = 0; col < n_; ++col) {
          if (valid(b, s, col, row)) return true;
        }
      }
    }
    return false;
  }

  double partial_dead_space() const {
    geom::Rect bb{};
    bool first = true;
    double used = 0.0;
    int count = 0;
    for (int b = 0; b < inst_.num_blocks(); ++b) {
      if (!fp_.placed(b)) continue;
      const geom::Rect r = fp_.rect_of(b);
      bb = first ? r : geom::bounding_union(bb, r);
      first = false;
      used += r.area();
      ++count;
    }
    if (count < 2 || bb.area() <= 0.0) return 0.0;
    return 1.0 - used / bb.area();
  }

  /// Recomputes every net's placed-pin box at every cell.
  std::vector<float> wire_mask(int b, int s) const {
    const Shape& sh = shape(b, s);
    std::vector<double> raw(static_cast<std::size_t>(n_) * n_, 0.0);
    std::vector<std::uint8_t> ok(raw.size(), 0);
    for (int row = 0; row < n_; ++row) {
      for (int col = 0; col < n_; ++col) {
        if (!fits(b, s, col, row)) continue;
        const std::size_t idx = static_cast<std::size_t>(row) * n_ + col;
        ok[idx] = 1;
        const geom::Point c{mapper_.world_x(col) + sh.w / 2.0,
                            mapper_.world_y(row) + sh.h / 2.0};
        double delta = 0.0;
        for (const auto& net : inst_.nets) {
          if (std::find(net.begin(), net.end(), b) == net.end()) continue;
          double x0 = 1e300, x1 = -1e300, y0 = 1e300, y1 = -1e300;
          int cnt = 0;
          for (int nb : net) {
            if (nb == b || !fp_.placed(nb)) continue;
            const geom::Point pc = fp_.rect_of(nb).center();
            x0 = std::min(x0, pc.x);
            x1 = std::max(x1, pc.x);
            y0 = std::min(y0, pc.y);
            y1 = std::max(y1, pc.y);
            ++cnt;
          }
          if (cnt == 0) continue;
          const double before = cnt >= 2 ? (x1 - x0) + (y1 - y0) : 0.0;
          x0 = std::min(x0, c.x);
          x1 = std::max(x1, c.x);
          y0 = std::min(y0, c.y);
          y1 = std::max(y1, c.y);
          delta += (x1 - x0) + (y1 - y0) - before;
        }
        raw[idx] = delta;
      }
    }
    return normalize(raw, ok);
  }

  std::vector<float> dead_space_mask(int b, int s) const {
    const double ds_before = partial_dead_space();
    geom::Rect bb{};
    bool first = true;
    double used = 0.0;
    for (int nb = 0; nb < inst_.num_blocks(); ++nb) {
      if (!fp_.placed(nb)) continue;
      const geom::Rect r = fp_.rect_of(nb);
      bb = first ? r : geom::bounding_union(bb, r);
      first = false;
      used += r.area();
    }
    const Shape& sh = shape(b, s);
    std::vector<double> raw(static_cast<std::size_t>(n_) * n_, 0.0);
    std::vector<std::uint8_t> ok(raw.size(), 0);
    for (int row = 0; row < n_; ++row) {
      for (int col = 0; col < n_; ++col) {
        if (!fits(b, s, col, row)) continue;
        const std::size_t idx = static_cast<std::size_t>(row) * n_ + col;
        ok[idx] = 1;
        const geom::Rect r{mapper_.world_x(col), mapper_.world_y(row), sh.w,
                           sh.h};
        const geom::Rect nbb = first ? r : geom::bounding_union(bb, r);
        const double nused = used + r.area();
        const double ds_after =
            nbb.area() > 0.0 ? 1.0 - nused / nbb.area() : 0.0;
        raw[idx] = ds_after - ds_before;
      }
    }
    return normalize(raw, ok);
  }

 private:
  const Shape& shape(int b, int s) const {
    return inst_.blocks[static_cast<std::size_t>(b)]
        .shapes[static_cast<std::size_t>(s)];
  }

  static std::vector<float> normalize(const std::vector<double>& raw,
                                      const std::vector<std::uint8_t>& ok) {
    double lo = 1e300, hi = -1e300;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (!ok[i]) continue;
      lo = std::min(lo, raw[i]);
      hi = std::max(hi, raw[i]);
    }
    std::vector<float> m(raw.size(), 1.0f);
    if (hi <= lo) {
      for (std::size_t i = 0; i < raw.size(); ++i)
        if (ok[i]) m[i] = 0.0f;
      return m;
    }
    const double inv = 1.0 / (hi - lo);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (ok[i]) m[i] = static_cast<float>((raw[i] - lo) * inv);
    }
    return m;
  }

  const GridFloorplan& fp_;
  const Instance& inst_;
  int n_;
  geom::GridMapper mapper_;
  std::vector<float> occ_;
};

/// Empty when `got` holds `want`'s bits; otherwise names the first
/// differing float.
std::string bit_diff(const float* got, const std::vector<float>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(got + i, &want[i], sizeof(float)) != 0) {
      return "cell " + std::to_string(i) + ": " + std::to_string(got[i]) +
             " vs " + std::to_string(want[i]);
    }
  }
  return {};
}

/// Checks one observation, and the grid behind it, against the oracle.
void expect_observation_matches(const env::FloorplanEnv& e,
                                const env::Observation& obs,
                                bool congestion, const std::string& where) {
  const GridFloorplan& g = e.grid();
  const ReferenceMasks ref(g);
  const int b = obs.current_block;
  const int n = g.grid_size();
  const std::size_t plane = static_cast<std::size_t>(n) * n;
  auto channel = [&](int c) { return obs.masks.data() + c * plane; };
  EXPECT_EQ(bit_diff(channel(0), g.occupancy_mask()), "") << where << " fg";
  EXPECT_EQ(bit_diff(channel(1), ref.wire_mask(b, 1)), "") << where << " fw";
  EXPECT_EQ(bit_diff(channel(2), ref.dead_space_mask(b, 1)), "")
      << where << " fds";
  for (int s = 0; s < kNumShapes; ++s) {
    const std::string at = where + " shape " + std::to_string(s);
    const auto fp = ref.position_mask(b, s);
    EXPECT_EQ(bit_diff(channel(3 + s), fp), "") << at << " fp";
    EXPECT_EQ(bit_diff(obs.action_mask.data() + s * plane, fp), "")
        << at << " action mask";
    EXPECT_EQ(bit_diff(g.position_mask(b, s).data(), fp), "") << at;
    EXPECT_EQ(bit_diff(g.wire_mask(b, s).data(), ref.wire_mask(b, s)), "")
        << at << " wire_mask";
    EXPECT_EQ(
        bit_diff(g.dead_space_mask(b, s).data(), ref.dead_space_mask(b, s)),
        "")
        << at << " dead_space_mask";
    EXPECT_EQ(g.footprint(b, s), ref.footprint(b, s)) << at;
    for (int row = -1; row <= n; ++row) {
      for (int col = -1; col <= n; ++col) {
        ASSERT_EQ(g.fits(b, s, col, row), ref.fits(b, s, col, row))
            << at << " fits at (" << col << ", " << row << ")";
      }
    }
  }
  if (congestion) {
    EXPECT_EQ(bit_diff(channel(6), g.congestion_mask()), "") << where;
  }
  const double ds = g.partial_dead_space();
  const double ref_ds = ref.partial_dead_space();
  EXPECT_EQ(std::memcmp(&ds, &ref_ds, sizeof ds), 0) << where;
}

/// Places random admissible actions until the episode ends, checking every
/// observation and every dead-end answer.
void oracle_walk(const Instance& inst, std::uint64_t seed, bool congestion,
                 const std::string& label) {
  env::EnvConfig cfg;
  cfg.use_congestion_mask = congestion;
  env::FloorplanEnv e(inst, cfg);
  const std::vector<int> order = inst.placement_order();
  std::mt19937_64 rng(seed);
  env::Observation obs = e.reset();
  while (!obs.done) {
    const std::string where = label + " seed " + std::to_string(seed) +
                              " step " + std::to_string(obs.steps_done);
    expect_observation_matches(e, obs, congestion, where);
    std::vector<int> admissible;
    for (std::size_t i = 0; i < obs.action_mask.size(); ++i) {
      if (obs.action_mask[i] > 0.5f) admissible.push_back(static_cast<int>(i));
    }
    ASSERT_FALSE(admissible.empty()) << where;
    const int a = admissible[rng() % admissible.size()];
    env::StepResult res = e.step(a);
    ASSERT_FALSE(res.violated && !res.done) << where;
    const int next = res.obs.steps_done;
    if (next < inst.num_blocks()) {
      // Not finished: either the next block has an admissible action, or
      // the episode dead-ended because it has none.
      const int nb = order[static_cast<std::size_t>(next)];
      const bool any = ReferenceMasks(e.grid()).any_valid_action(nb);
      EXPECT_EQ(any, !res.done) << where << " dead-end answer";
      EXPECT_EQ(e.grid().any_valid_action(nb), any) << where;
    }
    obs = std::move(res.obs);
  }
}

Instance scenario_instance(const std::string& spec) {
  const ingest::Scenario sc =
      ingest::make_scenario(ingest::ScenarioSpec::parse(spec));
  auto g = graphir::build_graph(sc.netlist, structrec::recognize(sc.netlist));
  graphir::apply_constraints(g, graphir::resolve(sc.constraints, g));
  return make_instance(g);
}

TEST(MaskOracle, TableOneCircuitsMatchCellScans) {
  for (const char* name :
       {"ota1", "ota2", "bias1", "rs_latch", "driver", "bias2"}) {
    netlist::Netlist nl;
    for (const auto& e : netlist::circuit_registry()) {
      if (e.name == name) nl = e.make();
    }
    const Instance inst = instance_of(nl, /*constrained=*/true);
    ASSERT_FALSE(inst.constraints.empty()) << name;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      oracle_walk(inst, seed, /*congestion=*/seed == 4, name);
    }
  }
}

TEST(MaskOracle, ScenariosMatchCellScans) {
  for (const char* spec : {"latch:24:1", "ota:40:2"}) {
    const Instance inst = scenario_instance(spec);
    const auto& cs = inst.constraints;
    ASSERT_FALSE(cs.sym_pairs.empty() && cs.self_syms.empty()) << spec;
    ASSERT_FALSE(cs.align_groups.empty()) << spec;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      oracle_walk(inst, seed, /*congestion=*/seed == 3, spec);
    }
  }
}

}  // namespace
}  // namespace afp::floorplan
