#include "floorplan/grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace afp::floorplan {

GridFloorplan::GridFloorplan(const Instance& inst, int n)
    : inst_(&inst), n_(n) {
  if (n <= 0) throw std::invalid_argument("GridFloorplan: n must be positive");
  mapper_ = {inst.canvas_w, inst.canvas_h, n};
  const int nb = inst.num_blocks();
  footprints_.reserve(static_cast<std::size_t>(nb) * kNumShapes);
  for (const Block& block : inst.blocks) {
    for (const Shape& sh : block.shapes) {
      footprints_.emplace_back(mapper_.cells_w(sh.w), mapper_.cells_h(sh.h));
    }
  }
  pair_of_.resize(static_cast<std::size_t>(nb));
  self_sym_of_.resize(static_cast<std::size_t>(nb));
  align_groups_of_.resize(static_cast<std::size_t>(nb));
  const auto& cs = inst.constraints;
  for (const auto& sp : cs.sym_pairs) {
    pair_of_[static_cast<std::size_t>(sp.a)].push_back({sp.b, sp.vertical});
    pair_of_[static_cast<std::size_t>(sp.b)].push_back({sp.a, sp.vertical});
  }
  for (const auto& ss : cs.self_syms) {
    self_sym_of_[static_cast<std::size_t>(ss.block)].push_back(ss.vertical);
  }
  for (int g = 0; g < static_cast<int>(cs.align_groups.size()); ++g) {
    for (int b : cs.align_groups[static_cast<std::size_t>(g)].blocks) {
      align_groups_of_[static_cast<std::size_t>(b)].push_back(g);
    }
  }
  reset();
}

void GridFloorplan::reset() {
  placements_.assign(static_cast<std::size_t>(inst_->num_blocks()), {});
  occ_.assign(static_cast<std::size_t>(n_) * n_, 0);
  occ_sum_.assign(static_cast<std::size_t>(n_ + 1) * (n_ + 1), 0);
  num_placed_ = 0;
  vaxis2_.reset();
  haxis2_.reset();
  align_pin_.assign(inst_->constraints.align_groups.size(), std::nullopt);
}

bool GridFloorplan::fits(int b, int s, int col, int row) const {
  const auto [wg, hg] = footprint(b, s);
  if (col < 0 || row < 0 || col + wg > n_ || row + hg > n_) return false;
  // Occupied cells inside the footprint: four summed-area lookups.
  const std::size_t w = static_cast<std::size_t>(n_) + 1;
  const int* lo = occ_sum_.data() + static_cast<std::size_t>(row) * w;
  const int* hi = lo + static_cast<std::size_t>(hg) * w;
  return hi[col + wg] - hi[col] - lo[col + wg] + lo[col] == 0;
}

bool GridFloorplan::constraint_ok(int b, int s, int col, int row) const {
  const auto [wg, hg] = footprint(b, s);
  const int cx2 = 2 * col + wg;  // center, half cells
  const int cy2 = 2 * row + hg;

  for (const PairRef& pr : pair_of_[static_cast<std::size_t>(b)]) {
    const GridPlacement& pp = placements_[static_cast<std::size_t>(pr.partner)];
    const auto& axis = pr.vertical ? vaxis2_ : haxis2_;
    if (pp.placed()) {
      if (pp.shape != s) return false;  // mirrored twins share the shape
      const auto [pwg, phg] = footprint(pr.partner, pp.shape);
      const int px2 = 2 * pp.col + pwg;
      const int py2 = 2 * pp.row + phg;
      if (pr.vertical) {
        if (pp.row != row) return false;
        if (axis) {
          if (cx2 != 2 * *axis - px2) return false;
        } else if ((cx2 + px2) % 2 != 0) {
          return false;  // midpoint must land on a half-cell axis
        }
      } else {
        if (pp.col != col) return false;
        if (axis) {
          if (cy2 != 2 * *axis - py2) return false;
        } else if ((cy2 + py2) % 2 != 0) {
          return false;
        }
      }
    } else if (axis) {
      // Partner still unplaced: its mirrored footprint must stay on grid.
      if (pr.vertical) {
        const int mcol = *axis - col - wg;  // (2*axis - cx2 - wg) / 2
        if (mcol < 0 || mcol + wg > n_) return false;
      } else {
        const int mrow = *axis - row - hg;
        if (mrow < 0 || mrow + hg > n_) return false;
      }
    }
  }

  for (bool vertical : self_sym_of_[static_cast<std::size_t>(b)]) {
    const auto& axis = vertical ? vaxis2_ : haxis2_;
    if (!axis) continue;  // this placement will pin the axis
    if (vertical) {
      if (cx2 != *axis) return false;
    } else {
      if (cy2 != *axis) return false;
    }
  }

  for (int g : align_groups_of_[static_cast<std::size_t>(b)]) {
    const auto& pin = align_pin_[static_cast<std::size_t>(g)];
    if (!pin) continue;
    const bool horizontal =
        inst_->constraints.align_groups[static_cast<std::size_t>(g)].horizontal;
    if (horizontal ? (row != *pin) : (col != *pin)) return false;
  }
  return true;
}

bool GridFloorplan::valid(int b, int s, int col, int row) const {
  return fits(b, s, col, row) && constraint_ok(b, s, col, row);
}

void GridFloorplan::place(int b, int s, int col, int row) {
  if (!valid(b, s, col, row)) {
    throw std::logic_error("GridFloorplan::place: invalid placement");
  }
  const auto [wg, hg] = footprint(b, s);
  for (int r = row; r < row + hg; ++r) {
    std::uint8_t* line = occ_.data() + static_cast<std::size_t>(r) * n_;
    for (int c = col; c < col + wg; ++c) line[c] = 1;
  }
  // Rebuild the summed-area table that fits() reads.
  const std::size_t w = static_cast<std::size_t>(n_) + 1;
  for (int r = 0; r < n_; ++r) {
    const std::uint8_t* line = occ_.data() + static_cast<std::size_t>(r) * n_;
    const int* above = occ_sum_.data() + static_cast<std::size_t>(r) * w;
    int* sums = occ_sum_.data() + static_cast<std::size_t>(r + 1) * w;
    int run = 0;
    for (int c = 0; c < n_; ++c) {
      run += line[c];
      sums[c + 1] = above[c + 1] + run;
    }
  }
  placements_[static_cast<std::size_t>(b)] = {s, col, row};
  ++num_placed_;
  update_constraint_state(b);
}

void GridFloorplan::update_constraint_state(int b) {
  const GridPlacement& p = placements_[static_cast<std::size_t>(b)];
  const auto [wg, hg] = footprint(b, p.shape);
  const int cx2 = 2 * p.col + wg;
  const int cy2 = 2 * p.row + hg;

  for (bool vertical : self_sym_of_[static_cast<std::size_t>(b)]) {
    auto& axis = vertical ? vaxis2_ : haxis2_;
    if (!axis) axis = vertical ? cx2 : cy2;
  }
  for (const PairRef& pr : pair_of_[static_cast<std::size_t>(b)]) {
    const GridPlacement& pp = placements_[static_cast<std::size_t>(pr.partner)];
    if (!pp.placed()) continue;
    auto& axis = pr.vertical ? vaxis2_ : haxis2_;
    if (axis) continue;
    const auto [pwg, phg] = footprint(pr.partner, pp.shape);
    if (pr.vertical) {
      axis = (cx2 + (2 * pp.col + pwg)) / 2;
    } else {
      axis = (cy2 + (2 * pp.row + phg)) / 2;
    }
  }
  for (int g : align_groups_of_[static_cast<std::size_t>(b)]) {
    auto& pin = align_pin_[static_cast<std::size_t>(g)];
    if (pin) continue;
    const bool horizontal =
        inst_->constraints.align_groups[static_cast<std::size_t>(g)].horizontal;
    pin = horizontal ? p.row : p.col;
  }
}

geom::Rect GridFloorplan::rect_of(int b) const {
  const GridPlacement& p = placements_[static_cast<std::size_t>(b)];
  if (!p.placed()) throw std::logic_error("rect_of: block not placed");
  const Shape& sh = inst_->blocks[static_cast<std::size_t>(b)]
                        .shapes[static_cast<std::size_t>(p.shape)];
  // Center the true rectangle inside its quantized footprint so that the
  // continuous block center coincides with the grid center — this is what
  // makes grid-level symmetry masking exact in continuous space.
  const auto [wg, hg] = footprint(b, p.shape);
  const double slack_x = wg * inst_->canvas_w / n_ - sh.w;
  const double slack_y = hg * inst_->canvas_h / n_ - sh.h;
  return {mapper_.world_x(p.col) + slack_x / 2.0,
          mapper_.world_y(p.row) + slack_y / 2.0, sh.w, sh.h};
}

std::vector<geom::Rect> GridFloorplan::rects() const {
  if (!complete()) throw std::logic_error("rects: floorplan incomplete");
  std::vector<geom::Rect> out;
  out.reserve(placements_.size());
  for (int b = 0; b < inst_->num_blocks(); ++b) out.push_back(rect_of(b));
  return out;
}

namespace {

/// Bounding box and total area of the placed blocks, in block order.
struct PlacedExtent {
  geom::Rect bb{};
  double used = 0.0;
  int count = 0;

  double dead_space() const {
    if (count < 2 || bb.area() <= 0.0) return 0.0;
    return 1.0 - used / bb.area();
  }
};

PlacedExtent placed_extent(const GridFloorplan& fp) {
  PlacedExtent e;
  for (int b = 0; b < fp.instance().num_blocks(); ++b) {
    if (!fp.placed(b)) continue;
    const geom::Rect r = fp.rect_of(b);
    e.bb = e.count == 0 ? r : geom::bounding_union(e.bb, r);
    e.used += r.area();
    ++e.count;
  }
  return e;
}

}  // namespace

double GridFloorplan::partial_dead_space() const {
  return placed_extent(*this).dead_space();
}

double GridFloorplan::partial_hpwl() const {
  double total = 0.0;
  for (const auto& net : inst_->nets) {
    double x0 = 1e300, x1 = -1e300, y0 = 1e300, y1 = -1e300;
    int cnt = 0;
    for (int b : net) {
      if (!placed(b)) continue;
      const geom::Point c = rect_of(b).center();
      x0 = std::min(x0, c.x);
      x1 = std::max(x1, c.x);
      y0 = std::min(y0, c.y);
      y1 = std::max(y1, c.y);
      ++cnt;
    }
    if (cnt >= 2) total += (x1 - x0) + (y1 - y0);
  }
  return total;
}

std::vector<float> GridFloorplan::occupancy_mask() const {
  std::vector<float> m(occ_.size());
  for (std::size_t i = 0; i < occ_.size(); ++i)
    m[i] = occ_[i] ? 1.0f : 0.0f;
  return m;
}

std::vector<float> GridFloorplan::position_mask(int b, int s) const {
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

namespace {

/// Min-max normalizes `raw` over cells where `ok` is set; others become 1.
std::vector<float> normalize_mask(const std::vector<double>& raw,
                                  const std::vector<std::uint8_t>& ok) {
  double lo = 1e300, hi = -1e300;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (!ok[i]) continue;
    lo = std::min(lo, raw[i]);
    hi = std::max(hi, raw[i]);
  }
  std::vector<float> m(raw.size(), 1.0f);
  if (hi <= lo) {
    // Flat landscape: every admissible cell is equally good.
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

}  // namespace

std::vector<float> GridFloorplan::wire_mask(int b, int s) const {
  // Incremental HPWL: only nets containing b change.  Each such net's box
  // over its other placed pins is built once; a cell folds in its centre.
  struct NetBox {
    double x0, x1, y0, y1, before;
  };
  std::vector<NetBox> boxes;
  for (const auto& net : inst_->nets) {
    if (std::find(net.begin(), net.end(), b) == net.end()) continue;
    double x0 = 1e300, x1 = -1e300, y0 = 1e300, y1 = -1e300;
    int cnt = 0;
    for (int nb : net) {
      if (nb == b || !placed(nb)) continue;
      const geom::Point pc = rect_of(nb).center();
      x0 = std::min(x0, pc.x);
      x1 = std::max(x1, pc.x);
      y0 = std::min(y0, pc.y);
      y1 = std::max(y1, pc.y);
      ++cnt;
    }
    if (cnt == 0) continue;
    boxes.push_back({x0, x1, y0, y1, cnt >= 2 ? (x1 - x0) + (y1 - y0) : 0.0});
  }
  const Shape& sh = inst_->blocks[static_cast<std::size_t>(b)]
                        .shapes[static_cast<std::size_t>(s)];
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
      for (const NetBox& box : boxes) {
        const double x0 = std::min(box.x0, c.x);
        const double x1 = std::max(box.x1, c.x);
        const double y0 = std::min(box.y0, c.y);
        const double y1 = std::max(box.y1, c.y);
        delta += (x1 - x0) + (y1 - y0) - box.before;
      }
      raw[idx] = delta;
    }
  }
  return normalize_mask(raw, ok);
}

std::vector<float> GridFloorplan::dead_space_mask(int b, int s) const {
  const PlacedExtent ext = placed_extent(*this);
  const double ds_before = ext.dead_space();
  const Shape& sh = inst_->blocks[static_cast<std::size_t>(b)]
                        .shapes[static_cast<std::size_t>(s)];
  std::vector<double> raw(static_cast<std::size_t>(n_) * n_, 0.0);
  std::vector<std::uint8_t> ok(raw.size(), 0);
  for (int row = 0; row < n_; ++row) {
    for (int col = 0; col < n_; ++col) {
      if (!fits(b, s, col, row)) continue;
      const std::size_t idx = static_cast<std::size_t>(row) * n_ + col;
      ok[idx] = 1;
      const geom::Rect r{mapper_.world_x(col), mapper_.world_y(row), sh.w,
                         sh.h};
      const geom::Rect nbb =
          ext.count == 0 ? r : geom::bounding_union(ext.bb, r);
      const double nused = ext.used + r.area();
      const double ds_after =
          nbb.area() > 0.0 ? 1.0 - nused / nbb.area() : 0.0;
      raw[idx] = ds_after - ds_before;
    }
  }
  return normalize_mask(raw, ok);
}

std::vector<float> GridFloorplan::congestion_mask() const {
  std::vector<double> demand(static_cast<std::size_t>(n_) * n_, 0.0);
  for (const auto& net : inst_->nets) {
    double x0 = 1e300, x1 = -1e300, y0 = 1e300, y1 = -1e300;
    int cnt = 0;
    for (int b : net) {
      if (!placed(b)) continue;
      const geom::Point c = rect_of(b).center();
      x0 = std::min(x0, c.x);
      x1 = std::max(x1, c.x);
      y0 = std::min(y0, c.y);
      y1 = std::max(y1, c.y);
      ++cnt;
    }
    if (cnt < 2) continue;
    // RUDY: uniform wire density over the net's bounding box.
    const double w = std::max(x1 - x0, inst_->canvas_w / n_);
    const double h = std::max(y1 - y0, inst_->canvas_h / n_);
    const double density = (w + h) / (w * h);
    const geom::Cell lo = mapper_.cell_of(x0, y0);
    const geom::Cell hi = mapper_.cell_of(x1, y1);
    for (int r = lo.row; r <= hi.row; ++r) {
      for (int c = lo.col; c <= hi.col; ++c) {
        demand[static_cast<std::size_t>(r) * n_ + c] += density;
      }
    }
  }
  double mx = 0.0;
  for (double d : demand) mx = std::max(mx, d);
  std::vector<float> out(demand.size(), 0.0f);
  if (mx > 0.0) {
    for (std::size_t i = 0; i < demand.size(); ++i) {
      out[i] = static_cast<float>(demand[i] / mx);
    }
  }
  return out;
}

bool GridFloorplan::any_valid_action(int b) const {
  for (int s = 0; s < kNumShapes; ++s) {
    for (int row = 0; row < n_; ++row) {
      for (int col = 0; col < n_; ++col) {
        if (valid(b, s, col, row)) return true;
      }
    }
  }
  return false;
}

}  // namespace afp::floorplan
