#include "layoutgen/layoutgen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace afp::layoutgen {

double Layout::dead_space(const floorplan::Instance& inst) const {
  if (outline.area() <= 0.0) return 1.0;
  return 1.0 - inst.total_block_area() / outline.area();
}

namespace {

geom::Rect conduit_rect(const route::Conduit& c, double width) {
  const double hw = width / 2.0;
  if (c.layer == 1) {  // horizontal
    return {std::min(c.a.x, c.b.x) - hw, c.a.y - hw,
            std::abs(c.b.x - c.a.x) + width, width};
  }
  return {c.a.x - hw, std::min(c.a.y, c.b.y) - hw, width,
          std::abs(c.b.y - c.a.y) + width};
}

/// Deterministic lane offset for a net: nets are shifted rigidly by a
/// sub-pitch amount so wires that global routing placed on the same Hanan
/// line separate without breaking intra-net connectivity.  Offsets stay
/// below half the pin pad so pin contact is preserved.
geom::Point net_lane_offset(std::size_t net_index, double lane_step) {
  // Four quantized lanes per axis: {-1.5, -0.5, +0.5, +1.5} * lane_step.
  // Distinct lanes differ by at least lane_step, which exceeds the wire
  // width, so same-line wires of different nets cannot overlap.  Nets
  // sharing both lanes (more than 16 nets) may still crowd; DRC reports
  // those as the manual-refinement cases of Section V-C.
  const double lx = static_cast<double>((net_index / 4) % 4) - 1.5;
  const double ly = static_cast<double>(net_index % 4) - 1.5;
  return {lx * lane_step, ly * lane_step};
}

}  // namespace

Layout generate_layout(const floorplan::Instance& inst,
                       const std::vector<geom::Rect>& rects,
                       const route::GlobalRoute& gr,
                       const LayoutConfig& cfg,
                       const std::vector<int>& routing_dirs) {
  Layout layout;
  layout.blocks = rects;

  // Stage 1: pin shapes on each block's preferred routing edge (template
  // realization keeps pins where the multi-shape configuration routed the
  // structure's terminals) — the same convention global routing used.
  // Pin pads are sized to cover the maximum net-lane shift applied during
  // detailed routing, so lane assignment can never disconnect a pin.
  const double lane_step = cfg.wire_width * 1.25;
  const double pin_half = 1.5 * lane_step + cfg.wire_width;
  for (std::size_t ni = 0; ni < inst.nets.size(); ++ni) {
    for (int b : inst.nets[ni]) {
      const int dir = b < static_cast<int>(routing_dirs.size())
                          ? routing_dirs[static_cast<std::size_t>(b)]
                          : 0;
      const geom::Point p =
          route::block_pin_for_net(rects[static_cast<std::size_t>(b)], dir, ni);
      layout.pins.push_back(
          {{p.x - pin_half, p.y - pin_half, 2 * pin_half, 2 * pin_half},
           b,
           "net" + std::to_string(ni)});
    }
  }

  // Stage 2: channels from conduits.
  for (const auto& c : gr.conduits) {
    layout.channels.push_back(
        {conduit_rect(c, cfg.wire_width + 2.0 * cfg.channel_pad), c.layer});
  }

  // Stage 3: detailed wires.  Each net is shifted rigidly onto its own
  // lane (net_lane_offset), which keeps the net's geometry connected by
  // construction while separating wires that global routing placed on the
  // same Hanan line.  Residual crowding shows up as DRC spacing
  // violations — the cases Section V-C attributes to manual channel
  // refinement.
  std::map<std::string, std::size_t> net_index;
  for (const auto& c : gr.conduits) {
    net_index.emplace(c.net, net_index.size());
  }
  for (const auto& c : gr.conduits) {
    const geom::Point off = net_lane_offset(net_index[c.net], lane_step);
    const geom::Rect w = conduit_rect(c, cfg.wire_width).translated(off.x, off.y);
    layout.wires.push_back({w, c.layer, c.net});
  }
  for (const auto& c : gr.conduits) {
    const geom::Point off = net_lane_offset(net_index[c.net], lane_step);
    for (const geom::Point& p : {c.a, c.b}) {
      layout.vias.push_back(
          {{p.x + off.x - cfg.via_size / 2.0, p.y + off.y - cfg.via_size / 2.0,
            cfg.via_size, cfg.via_size},
           c.net});
    }
  }

  // Outline covers blocks and channels.
  geom::Rect bb = geom::bounding_box(layout.blocks);
  for (const auto& ch : layout.channels) bb = geom::bounding_union(bb, ch.rect);
  layout.outline = bb.inflated(cfg.outline_margin);
  return layout;
}

namespace {

/// Interns net names to dense ids in first-seen order.  The views point
/// into the layout being checked, which outlives the interner.
class NetIds {
 public:
  std::uint32_t operator()(const std::string& net) {
    const auto [it, fresh] =
        ids_.try_emplace(net, static_cast<std::uint32_t>(names_.size()));
    if (fresh) names_.push_back(net);
    return it->second;
  }
  const std::vector<std::string_view>& names() const { return names_; }

 private:
  std::unordered_map<std::string_view, std::uint32_t> ids_;
  std::vector<std::string_view> names_;
};

struct Shape {
  geom::Rect rect;
  std::uint32_t id = 0;
};

/// Sort-and-sweep contact index over a fixed set of shapes.  Shapes are
/// sorted by their lower edge on the axis along which they are thinner
/// relative to their spread (horizontal wires sweep in y, vertical ones in
/// x).  The scan from a shape stops at the first later shape whose lower
/// edge reaches its upper edge: Rect::overlaps is strict on both edges, so
/// no overlapping partner lies past that point, and every pair is tested
/// with the same doubles an all-pairs loop would use.
class ContactIndex {
 public:
  explicit ContactIndex(std::vector<Shape> shapes)
      : shapes_(std::move(shapes)) {
    double sum_w = 0.0;
    double sum_h = 0.0;
    geom::Rect span{};
    for (const Shape& s : shapes_) {
      sum_w += s.rect.w;
      sum_h += s.rect.h;
      span = geom::bounding_union(span, s.rect);
    }
    by_y_ = sum_h * span.w < sum_w * span.h;
    // A NaN edge overlaps nothing, and would break the sort's ordering.
    std::erase_if(shapes_,
                  [this](const Shape& s) { return std::isnan(lo(s)); });
    std::sort(shapes_.begin(), shapes_.end(),
              [this](const Shape& a, const Shape& b) { return lo(a) < lo(b); });
  }

  /// Calls visit(id_a, id_b) once for every unordered pair of shapes whose
  /// rects overlap.
  template <class Visit>
  void for_each_overlap(Visit&& visit) const {
    for (std::size_t s = 0; s < shapes_.size(); ++s) {
      const geom::Rect& a = shapes_[s].rect;
      const double hi = by_y_ ? a.top() : a.right();
      for (std::size_t t = s + 1; t < shapes_.size() && lo(shapes_[t]) < hi;
           ++t) {
        if (a.overlaps(shapes_[t].rect)) visit(shapes_[s].id, shapes_[t].id);
      }
    }
  }

 private:
  double lo(const Shape& s) const { return by_y_ ? s.rect.y : s.rect.x; }

  std::vector<Shape> shapes_;
  bool by_y_ = false;
};

/// Every pair i < j of same-layer, different-net wires whose rects, each
/// inflated by `margin`, overlap.  Wire i's partners are
/// partner[start[i] .. start[i + 1]), ascending.
struct WireContacts {
  std::vector<std::size_t> start;
  std::vector<std::uint32_t> partner;
};

/// `net[i]` is wire i's interned net id.
WireContacts wire_contacts(const std::vector<WireSegment>& wires,
                           const std::vector<std::uint32_t>& net,
                           double margin) {
  if (wires.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("layoutgen: too many wires to index");
  }
  std::map<int, std::vector<Shape>> layers;
  for (std::size_t i = 0; i < wires.size(); ++i) {
    layers[wires[i].layer].push_back(
        {wires[i].rect.inflated(margin), static_cast<std::uint32_t>(i)});
  }
  std::vector<ContactIndex> index;
  for (auto& [layer, shapes] : layers) index.emplace_back(std::move(shapes));

  // Count, then fill, so the lists are allocated at their exact size.
  const auto for_each_pair = [&](auto&& emit) {
    for (const ContactIndex& idx : index) {
      idx.for_each_overlap([&](std::uint32_t a, std::uint32_t b) {
        if (net[a] != net[b]) emit(std::min(a, b), std::max(a, b));
      });
    }
  };
  WireContacts out;
  out.start.assign(wires.size() + 1, 0);
  for_each_pair([&](std::uint32_t i, std::uint32_t) { ++out.start[i + 1]; });
  for (std::size_t i = 0; i < wires.size(); ++i) {
    out.start[i + 1] += out.start[i];
  }
  out.partner.resize(out.start.back());
  std::vector<std::size_t> fill(out.start.begin(), out.start.end() - 1);
  for_each_pair(
      [&](std::uint32_t i, std::uint32_t j) { out.partner[fill[i]++] = j; });
  for (std::size_t i = 0; i < wires.size(); ++i) {
    std::sort(out.partner.begin() + static_cast<std::ptrdiff_t>(out.start[i]),
              out.partner.begin() +
                  static_cast<std::ptrdiff_t>(out.start[i + 1]));
  }
  return out;
}

}  // namespace

DrcReport run_drc(const Layout& layout, const LayoutConfig& cfg) {
  DrcReport report;
  NetIds intern;
  std::vector<std::uint32_t> net;
  net.reserve(layout.wires.size());
  for (const auto& w : layout.wires) net.push_back(intern(w.net));
  const WireContacts spacing =
      wire_contacts(layout.wires, net, cfg.wire_spacing / 2.0);
  for (std::size_t i = 0; i < layout.wires.size(); ++i) {
    const auto& a = layout.wires[i];
    if (!layout.outline.contains(a.rect)) {
      report.violations.push_back(
          {"outline", "wire of " + a.net + " escapes the outline"});
    }
    for (std::size_t k = spacing.start[i]; k < spacing.start[i + 1]; ++k) {
      const auto& b = layout.wires[spacing.partner[k]];
      report.violations.push_back(
          {"spacing", "layer " + std::to_string(a.layer) + ": " + a.net +
                          " vs " + b.net});
    }
  }
  for (std::size_t i = 0; i < layout.blocks.size(); ++i) {
    for (std::size_t j = i + 1; j < layout.blocks.size(); ++j) {
      if (layout.blocks[i].overlaps(layout.blocks[j])) {
        report.violations.push_back(
            {"block_overlap", "blocks " + std::to_string(i) + " and " +
                                  std::to_string(j)});
      }
    }
  }
  return report;
}

LvsReport run_lvs(const Layout& layout) {
  LvsReport report;
  // Gather geometry per net: wires, vias and pins, inflated slightly so
  // abutting shapes connect.
  NetIds intern;
  std::vector<std::vector<Shape>> net_geom;
  const auto add = [&](const std::string& net, const geom::Rect& r) {
    const std::uint32_t id = intern(net);
    if (id == net_geom.size()) net_geom.emplace_back();
    auto& shapes = net_geom[id];
    shapes.push_back(
        {r.inflated(1e-6), static_cast<std::uint32_t>(shapes.size())});
    return id;
  };
  std::vector<std::uint32_t> wire_net;
  wire_net.reserve(layout.wires.size());
  for (const auto& w : layout.wires) wire_net.push_back(add(w.net, w.rect));
  for (const auto& v : layout.vias) add(v.net, v.rect);
  for (const auto& p : layout.pins) add(p.net, p.rect);

  // Connectivity: union-find over each net's touching shapes, nets in name
  // order.  Components do not depend on the order pairs are merged in.
  std::vector<std::uint32_t> by_name(net_geom.size());
  for (std::uint32_t i = 0; i < by_name.size(); ++i) by_name[i] = i;
  std::sort(by_name.begin(), by_name.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return intern.names()[a] < intern.names()[b];
            });
  std::vector<std::uint32_t> parent;
  const auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (std::uint32_t id : by_name) {
    const std::size_t n = net_geom[id].size();
    parent.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
    ContactIndex(std::move(net_geom[id]))
        .for_each_overlap([&](std::uint32_t a, std::uint32_t b) {
          parent[find(a)] = find(b);
        });
    std::size_t roots = 0;
    for (std::uint32_t i = 0; i < n; ++i) roots += find(i) == i ? 1 : 0;
    if (roots > 1) report.open_nets.emplace_back(intern.names()[id]);
  }

  // Shorts: same-layer wire contact between different nets.
  const WireContacts shorts = wire_contacts(layout.wires, wire_net, 0.0);
  for (std::size_t i = 0; i < layout.wires.size(); ++i) {
    for (std::size_t k = shorts.start[i]; k < shorts.start[i + 1]; ++k) {
      report.shorted.push_back(layout.wires[i].net + "/" +
                               layout.wires[shorts.partner[k]].net);
    }
  }
  return report;
}

void write_svg(const std::string& path, const Layout& layout) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_svg: cannot open " + path);
  const geom::Rect& o = layout.outline;
  const double scale = 20.0;
  os << "<svg xmlns='http://www.w3.org/2000/svg' width='"
     << o.w * scale << "' height='" << o.h * scale << "' viewBox='0 0 "
     << o.w * scale << ' ' << o.h * scale << "'>\n";
  auto emit = [&](const geom::Rect& r, const std::string& fill,
                  double opacity) {
    // Flip y: SVG origin is top-left.
    os << "<rect x='" << (r.x - o.x) * scale << "' y='"
       << (o.top() - r.top()) * scale << "' width='" << r.w * scale
       << "' height='" << r.h * scale << "' fill='" << fill
       << "' fill-opacity='" << opacity << "' stroke='black' stroke-width='0.5'/>\n";
  };
  emit(o, "#f8f8f8", 1.0);
  for (const auto& ch : layout.channels) {
    emit(ch.rect, ch.layer == 1 ? "#ffe9b3" : "#d0e8ff", 0.5);
  }
  for (const auto& b : layout.blocks) emit(b, "#b8c4ce", 0.9);
  for (const auto& w : layout.wires) {
    emit(w.rect, w.layer == 1 ? "#d97706" : "#2563eb", 0.95);
  }
  for (const auto& v : layout.vias) emit(v.rect, "#111111", 1.0);
  for (const auto& p : layout.pins) emit(p.rect, "#16a34a", 1.0);
  os << "</svg>\n";
}

}  // namespace afp::layoutgen
