#include "floorplan/instance.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace afp::floorplan {

using structrec::StructureType;

std::array<Shape, kNumShapes> candidate_shapes(double area_um2,
                                               StructureType type) {
  // Aspect ratios r = w/h; w = sqrt(A * r), h = sqrt(A / r).
  std::array<double, kNumShapes> ratios{0.5, 1.0, 2.0};
  if (structrec::is_matched_pair(type) ||
      type == StructureType::kCurrentMirrorN ||
      type == StructureType::kCurrentMirrorP) {
    // Interdigitated / common-centroid rows are wide.
    ratios = {1.0, 2.25, 4.0};
  } else if (type == StructureType::kPowerDevice) {
    ratios = {2.25, 4.0, 6.25};
  } else if (type == StructureType::kCapSingle ||
             type == StructureType::kCapArray ||
             type == StructureType::kDecapCapacitor) {
    ratios = {0.8, 1.0, 1.25};
  }
  std::array<Shape, kNumShapes> shapes{};
  for (int i = 0; i < kNumShapes; ++i) {
    shapes[static_cast<std::size_t>(i)] = {
        std::sqrt(area_um2 * ratios[static_cast<std::size_t>(i)]),
        std::sqrt(area_um2 / ratios[static_cast<std::size_t>(i)])};
  }
  return shapes;
}

double Instance::total_block_area() const {
  double a = 0.0;
  for (const Block& b : blocks) a += b.area_um2;
  return a;
}

std::vector<int> Instance::placement_order() const {
  std::vector<int> order(blocks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
    return blocks[static_cast<std::size_t>(a)].area_um2 >
           blocks[static_cast<std::size_t>(b)].area_um2;
  });
  return order;
}

Instance make_instance(const graphir::CircuitGraph& g, double r_max) {
  Instance inst;
  inst.name = g.name;
  for (const auto& node : g.nodes) {
    Block b;
    b.name = node.name;
    b.type = node.type;
    b.area_um2 = node.area_um2;
    b.shapes = candidate_shapes(node.area_um2, node.type);
    inst.blocks.push_back(std::move(b));
  }
  for (const auto& net : g.nets) inst.nets.push_back(net.blocks);
  inst.constraints = g.constraints;
  const double side = geom::canvas_side(inst.total_block_area(), r_max);
  inst.canvas_w = side;
  inst.canvas_h = side;
  // Optimistic per-net bound: each net at least spans the half-perimeter of
  // the smallest square covering its blocks' combined area.
  double ref = 0.0;
  for (const auto& net : inst.nets) {
    double a = 0.0;
    for (int b : net) a += inst.blocks[static_cast<std::size_t>(b)].area_um2;
    ref += 2.0 * std::sqrt(a);
  }
  inst.hpwl_ref = std::max(1.0, ref);
  return inst;
}

double hpwl_of(const Instance& inst, const std::vector<geom::Rect>& rects) {
  double total = 0.0;
  for (const auto& net : inst.nets) {
    if (net.size() < 2) continue;
    double x0 = 1e300, x1 = -1e300, y0 = 1e300, y1 = -1e300;
    for (int b : net) {
      const geom::Point c = rects[static_cast<std::size_t>(b)].center();
      x0 = std::min(x0, c.x);
      x1 = std::max(x1, c.x);
      y0 = std::min(y0, c.y);
      y1 = std::max(y1, c.y);
    }
    total += (x1 - x0) + (y1 - y0);
  }
  return total;
}

void HpwlCache::reset(const Instance& inst) {
  inst_ = &inst;
  block_nets_.assign(inst.blocks.size(), {});
  for (std::size_t n = 0; n < inst.nets.size(); ++n) {
    for (int b : inst.nets[n]) {
      block_nets_[static_cast<std::size_t>(b)].push_back(static_cast<int>(n));
    }
  }
  boxes_.assign(inst.nets.size(), {});
  dirty_.assign(inst.nets.size(), 0);
}

void HpwlCache::rescan(std::size_t net, const std::vector<geom::Rect>& rects) {
  // Same scan order and min/max chain as hpwl_of, so each extent is the
  // bitwise-identical double.
  NetBox box{1e300, -1e300, 1e300, -1e300};
  for (int b : inst_->nets[net]) {
    const geom::Point c = rects[static_cast<std::size_t>(b)].center();
    box.x0 = std::min(box.x0, c.x);
    box.x1 = std::max(box.x1, c.x);
    box.y0 = std::min(box.y0, c.y);
    box.y1 = std::max(box.y1, c.y);
  }
  boxes_[net] = box;
}

double HpwlCache::sum() const {
  // Accumulation order matches hpwl_of exactly: nets in index order, one
  // (dx) + (dy) term each, short nets skipped before the add.
  double total = 0.0;
  for (std::size_t n = 0; n < inst_->nets.size(); ++n) {
    if (inst_->nets[n].size() < 2) continue;
    const NetBox& b = boxes_[n];
    total += (b.x1 - b.x0) + (b.y1 - b.y0);
  }
  return total;
}

double HpwlCache::recompute(const std::vector<geom::Rect>& rects) {
  for (std::size_t n = 0; n < inst_->nets.size(); ++n) rescan(n, rects);
  return sum();
}

double HpwlCache::update(const std::vector<geom::Rect>& rects,
                         const std::vector<int>& moved) {
  for (int b : moved) {
    for (int n : block_nets_[static_cast<std::size_t>(b)]) {
      if (!dirty_[static_cast<std::size_t>(n)]) {
        dirty_[static_cast<std::size_t>(n)] = 1;
        rescan(static_cast<std::size_t>(n), rects);
      }
    }
  }
  for (int b : moved) {
    for (int n : block_nets_[static_cast<std::size_t>(b)]) {
      dirty_[static_cast<std::size_t>(n)] = 0;
    }
  }
  return sum();
}

int constraint_violations(const Instance& inst,
                          const std::vector<geom::Rect>& rects, double tol,
                          int* total_items) {
  const auto& cs = inst.constraints;
  if (total_items) *total_items = 0;
  if (cs.empty()) return 0;
  int items = 0;
  int violated = 0;
  // One item per constraint element; the item count is a pure function of
  // the constraint spec (never of the placement), so violated/items is a
  // stable fraction the metaheuristic penalty can anneal against.
  auto check = [&](bool ok) {
    ++items;
    if (!ok) ++violated;
  };

  // All vertical-symmetry constraints share one vertical axis; same for
  // horizontal.  Derive each axis from the first constraint that pins it.
  auto axis_of = [&](bool vertical) -> std::optional<double> {
    for (const auto& ss : cs.self_syms) {
      if (ss.vertical == vertical) {
        const auto c = rects[static_cast<std::size_t>(ss.block)].center();
        return vertical ? c.x : c.y;
      }
    }
    for (const auto& sp : cs.sym_pairs) {
      if (sp.vertical == vertical) {
        const auto ca = rects[static_cast<std::size_t>(sp.a)].center();
        const auto cb = rects[static_cast<std::size_t>(sp.b)].center();
        return vertical ? (ca.x + cb.x) / 2.0 : (ca.y + cb.y) / 2.0;
      }
    }
    return std::nullopt;
  };

  for (bool vertical : {true, false}) {
    const auto axis = axis_of(vertical);
    if (!axis) continue;
    for (const auto& ss : cs.self_syms) {
      if (ss.vertical != vertical) continue;
      const auto c = rects[static_cast<std::size_t>(ss.block)].center();
      check(std::abs((vertical ? c.x : c.y) - *axis) <= tol);
    }
    for (const auto& sp : cs.sym_pairs) {
      if (sp.vertical != vertical) continue;
      const auto& ra = rects[static_cast<std::size_t>(sp.a)];
      const auto& rb = rects[static_cast<std::size_t>(sp.b)];
      // Mirrored twins must be congruent: a reflection maps each block onto
      // its partner's footprint, so mismatched dimensions can never satisfy
      // the pair — including the pair the axis itself was derived from,
      // whose midpoint check is vacuously true by construction.
      bool ok = std::abs(ra.w - rb.w) <= tol && std::abs(ra.h - rb.h) <= tol;
      if (vertical) {
        // Mirrored about x = axis, same row.
        ok = ok &&
             std::abs((ra.center().x + rb.center().x) / 2.0 - *axis) <= tol &&
             std::abs(ra.y - rb.y) <= tol;
      } else {
        ok = ok &&
             std::abs((ra.center().y + rb.center().y) / 2.0 - *axis) <= tol &&
             std::abs(ra.x - rb.x) <= tol;
      }
      check(ok);
    }
  }

  for (const auto& ag : cs.align_groups) {
    if (ag.blocks.size() < 2) continue;
    const auto& r0 = rects[static_cast<std::size_t>(ag.blocks[0])];
    for (std::size_t i = 1; i < ag.blocks.size(); ++i) {
      const auto& ri = rects[static_cast<std::size_t>(ag.blocks[i])];
      // One item per follower: a common bottom (left) edge with the leader.
      check(ag.horizontal ? std::abs(ri.y - r0.y) <= tol
                          : std::abs(ri.x - r0.x) <= tol);
    }
  }

  // Matching groups: every member takes the same footprint.
  for (const auto& mg : cs.match_groups) {
    if (mg.blocks.size() < 2) continue;
    const auto& r0 = rects[static_cast<std::size_t>(mg.blocks[0])];
    for (std::size_t i = 1; i < mg.blocks.size(); ++i) {
      const auto& ri = rects[static_cast<std::size_t>(mg.blocks[i])];
      check(std::abs(ri.w - r0.w) <= tol && std::abs(ri.h - r0.h) <= tol);
    }
  }

  // Keep-out regions: no block may overlap a forbidden rectangle.  Shrink
  // by tol on each side so a shared edge within tolerance does not count as
  // an overlap (geom::Rect is half-open already; this guards fp noise).
  for (const auto& ko : cs.keep_outs) {
    geom::Rect shrunk = ko.region;
    shrunk.x += tol;
    shrunk.y += tol;
    shrunk.w = std::max(0.0, shrunk.w - 2.0 * tol);
    shrunk.h = std::max(0.0, shrunk.h - 2.0 * tol);
    if (shrunk.w <= 0.0 || shrunk.h <= 0.0) continue;
    bool clear = true;
    for (const auto& r : rects) {
      if (r.overlaps(shrunk)) {
        clear = false;
        break;
      }
    }
    check(clear);
  }

  // Pre-placed blocks: lower-left corner pinned.
  for (const auto& pp : cs.preplaced) {
    const auto& r = rects[static_cast<std::size_t>(pp.block)];
    check(std::abs(r.x - pp.x) <= tol && std::abs(r.y - pp.y) <= tol);
  }
  if (total_items) *total_items = items;
  return violated;
}

double eq5_cost(const Instance& inst, const geom::Rect& bb, double hpwl,
                double block_area, const RewardWeights& w) {
  // A perfect packing (zero dead space) at the reference wirelength and
  // target aspect ratio scores 0.
  double r = w.alpha * (bb.area() / std::max(1e-12, block_area) - 1.0) +
             w.beta * (hpwl / inst.hpwl_ref - 1.0);
  if (inst.target_aspect) {
    const double d = *inst.target_aspect - geom::aspect_ratio(bb);
    r += w.gamma * d * d;
  }
  return r;
}

Evaluation evaluate_floorplan(const Instance& inst,
                              const std::vector<geom::Rect>& rects,
                              const RewardWeights& w, double constraint_tol) {
  Evaluation ev;
  const geom::Rect bb = geom::bounding_box(rects);
  ev.area = bb.area();
  const double total = inst.total_block_area();
  ev.dead_space = ev.area > 0.0 ? 1.0 - total / ev.area : 1.0;
  ev.hpwl = hpwl_of(inst, rects);
  ev.aspect = geom::aspect_ratio(bb);
  ev.constraint_violations =
      constraint_violations(inst, rects, constraint_tol,
                            &ev.constraint_items);
  ev.constraints_ok = ev.constraint_violations == 0;
  ev.reward = ev.constraints_ok ? -eq5_cost(inst, bb, ev.hpwl, total, w)
                                : w.violation_penalty;
  return ev;
}

}  // namespace afp::floorplan
