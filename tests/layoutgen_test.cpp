#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <set>

#include "core/pipeline.hpp"
#include "ingest/scenario.hpp"
#include "layoutgen/layoutgen.hpp"
#include "netlist/library.hpp"

namespace afp::layoutgen {
namespace {

struct Fixture {
  floorplan::Instance inst;
  std::vector<geom::Rect> rects;
  route::GlobalRoute gr;
};

Fixture fixture_of(const std::string& name, double gap = 2.0) {
  netlist::Netlist nl;
  for (const auto& e : netlist::circuit_registry()) {
    if (e.name == name) nl = e.make();
  }
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  Fixture f;
  f.inst = floorplan::make_instance(g);
  double x = 0.0;
  for (const auto& b : f.inst.blocks) {
    f.rects.push_back({x, 0.0, b.shapes[1].w, b.shapes[1].h});
    x += b.shapes[1].w + gap;
  }
  f.gr = route::global_route(f.inst, f.rects);
  return f;
}

TEST(GenerateLayout, StagesProduceGeometry) {
  const auto f = fixture_of("ota_small");
  const Layout layout = generate_layout(f.inst, f.rects, f.gr);
  EXPECT_EQ(layout.blocks.size(), f.rects.size());
  EXPECT_FALSE(layout.pins.empty());
  EXPECT_FALSE(layout.channels.empty());
  EXPECT_FALSE(layout.wires.empty());
  EXPECT_FALSE(layout.vias.empty());
  EXPECT_GT(layout.area(), 0.0);
  // Outline covers every block and wire.
  for (const auto& b : layout.blocks) {
    EXPECT_TRUE(layout.outline.contains(b));
  }
}

TEST(GenerateLayout, DeadSpaceConsistentWithOutline) {
  const auto f = fixture_of("ota1");
  const Layout layout = generate_layout(f.inst, f.rects, f.gr);
  const double ds = layout.dead_space(f.inst);
  EXPECT_GT(ds, 0.0);
  EXPECT_LT(ds, 1.0);
  EXPECT_NEAR(ds, 1.0 - f.inst.total_block_area() / layout.area(), 1e-9);
}

TEST(GenerateLayout, WiresFollowConduitLayers) {
  const auto f = fixture_of("ota_small");
  const Layout layout = generate_layout(f.inst, f.rects, f.gr);
  ASSERT_EQ(layout.wires.size(), f.gr.conduits.size());
  for (std::size_t i = 0; i < layout.wires.size(); ++i) {
    EXPECT_EQ(layout.wires[i].layer, f.gr.conduits[i].layer);
    EXPECT_EQ(layout.wires[i].net, f.gr.conduits[i].net);
  }
}

TEST(Drc, CleanOnWellSpacedLayout) {
  const auto f = fixture_of("ota_small", 4.0);
  const Layout layout = generate_layout(f.inst, f.rects, f.gr);
  const DrcReport report = run_drc(layout);
  EXPECT_TRUE(report.clean())
      << (report.violations.empty() ? "" : report.violations[0].detail);
}

TEST(Drc, DetectsBlockOverlap) {
  auto f = fixture_of("ota_small");
  Layout layout = generate_layout(f.inst, f.rects, f.gr);
  layout.blocks[1] = layout.blocks[0];  // force overlap
  const DrcReport report = run_drc(layout);
  EXPECT_FALSE(report.clean());
  bool found = false;
  for (const auto& v : report.violations) found |= v.rule == "block_overlap";
  EXPECT_TRUE(found);
}

TEST(Drc, DetectsSpacingViolation) {
  Layout layout;
  layout.outline = {0, 0, 100, 100};
  layout.wires.push_back({{10, 10, 5, 0.2}, 1, "a"});
  layout.wires.push_back({{10, 10.25, 5, 0.2}, 1, "b"});  // too close
  const DrcReport report = run_drc(layout);
  EXPECT_FALSE(report.clean());
}

TEST(Drc, SameNetWiresMayTouch) {
  Layout layout;
  layout.outline = {0, 0, 100, 100};
  layout.wires.push_back({{10, 10, 5, 0.2}, 1, "a"});
  layout.wires.push_back({{10, 10.1, 5, 0.2}, 1, "a"});
  EXPECT_TRUE(run_drc(layout).clean());
}

TEST(Lvs, CleanOnGeneratedLayout) {
  const auto f = fixture_of("ota_small", 4.0);
  const Layout layout = generate_layout(f.inst, f.rects, f.gr);
  const LvsReport report = run_lvs(layout);
  EXPECT_TRUE(report.shorted.empty());
}

TEST(Lvs, DetectsOpenNet) {
  Layout layout;
  layout.outline = {0, 0, 100, 100};
  layout.wires.push_back({{0, 0, 5, 0.2}, 1, "a"});
  layout.wires.push_back({{50, 50, 5, 0.2}, 1, "a"});  // disconnected piece
  const LvsReport report = run_lvs(layout);
  ASSERT_EQ(report.open_nets.size(), 1u);
  EXPECT_EQ(report.open_nets[0], "a");
}

TEST(Lvs, DetectsShort) {
  Layout layout;
  layout.outline = {0, 0, 100, 100};
  layout.wires.push_back({{0, 0, 5, 0.5}, 1, "a"});
  layout.wires.push_back({{2, 0, 5, 0.5}, 1, "b"});  // overlapping other net
  const LvsReport report = run_lvs(layout);
  EXPECT_FALSE(report.shorted.empty());
}

TEST(Svg, WritesWellFormedFile) {
  const auto f = fixture_of("ota_small");
  const Layout layout = generate_layout(f.inst, f.rects, f.gr);
  const std::string path =
      (std::filesystem::temp_directory_path() / "afp_layout_test.svg").string();
  write_svg(path, layout);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("<svg"), std::string::npos);
  EXPECT_NE(content.find("</svg>"), std::string::npos);
  EXPECT_GT(std::count(content.begin(), content.end(), '\n'),
            static_cast<long>(layout.blocks.size()));
  std::filesystem::remove(path);
}

TEST(Svg, InvalidPathThrows) {
  Layout layout;
  layout.outline = {0, 0, 10, 10};
  EXPECT_THROW(write_svg("/nonexistent_dir/x.svg", layout),
               std::runtime_error);
}

// The all-pairs DRC and LVS the contact index replaced, kept as the
// oracle: run_drc and run_lvs must reproduce their lists element by
// element, order included.
DrcReport reference_drc(const Layout& layout, const LayoutConfig& cfg = {}) {
  DrcReport report;
  for (std::size_t i = 0; i < layout.wires.size(); ++i) {
    const auto& a = layout.wires[i];
    if (!layout.outline.contains(a.rect)) {
      report.violations.push_back(
          {"outline", "wire of " + a.net + " escapes the outline"});
    }
    for (std::size_t j = i + 1; j < layout.wires.size(); ++j) {
      const auto& b = layout.wires[j];
      if (a.layer != b.layer || a.net == b.net) continue;
      if (a.rect.inflated(cfg.wire_spacing / 2.0)
              .overlaps(b.rect.inflated(cfg.wire_spacing / 2.0))) {
        report.violations.push_back(
            {"spacing", "layer " + std::to_string(a.layer) + ": " + a.net +
                            " vs " + b.net});
      }
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

LvsReport reference_lvs(const Layout& layout) {
  LvsReport report;
  std::map<std::string, std::vector<geom::Rect>> net_geom;
  for (const auto& w : layout.wires) net_geom[w.net].push_back(w.rect);
  for (const auto& v : layout.vias) net_geom[v.net].push_back(v.rect);
  for (const auto& p : layout.pins) net_geom[p.net].push_back(p.rect);
  for (const auto& [net, shapes] : net_geom) {
    const std::size_t n = shapes.size();
    std::vector<std::size_t> parent(n);
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
    std::function<std::size_t(std::size_t)> find =
        [&](std::size_t x) -> std::size_t {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (shapes[i].inflated(1e-6).overlaps(shapes[j].inflated(1e-6))) {
          parent[find(i)] = find(j);
        }
      }
    }
    std::set<std::size_t> roots;
    for (std::size_t i = 0; i < n; ++i) roots.insert(find(i));
    if (roots.size() > 1) report.open_nets.push_back(net);
  }
  for (std::size_t i = 0; i < layout.wires.size(); ++i) {
    for (std::size_t j = i + 1; j < layout.wires.size(); ++j) {
      const auto& a = layout.wires[i];
      const auto& b = layout.wires[j];
      if (a.net == b.net || a.layer != b.layer) continue;
      if (a.rect.overlaps(b.rect)) {
        report.shorted.push_back(a.net + "/" + b.net);
      }
    }
  }
  return report;
}

/// Asserts run_drc / run_lvs equal the oracle element by element.
void expect_matches_reference(const Layout& layout, const LayoutConfig& cfg,
                              const std::string& what) {
  const DrcReport got = run_drc(layout, cfg);
  const DrcReport want = reference_drc(layout, cfg);
  ASSERT_EQ(got.violations.size(), want.violations.size()) << what;
  for (std::size_t k = 0; k < want.violations.size(); ++k) {
    ASSERT_EQ(got.violations[k].rule, want.violations[k].rule)
        << what << ": violation " << k;
    ASSERT_EQ(got.violations[k].detail, want.violations[k].detail)
        << what << ": violation " << k;
  }
  const LvsReport lvs = run_lvs(layout);
  const LvsReport lvs_want = reference_lvs(layout);
  EXPECT_EQ(lvs.open_nets, lvs_want.open_nets) << what;
  EXPECT_EQ(lvs.shorted, lvs_want.shorted) << what;
}

TEST(ContactIndexOracle, RegistryPipelineLayouts) {
  core::PipelineConfig cfg;
  cfg.constrained = true;
  cfg.options = {{"iterations", "300"}};
  const core::FloorplanPipeline pipe(cfg);
  std::size_t violations = 0;
  for (const auto& entry : netlist::circuit_registry()) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      std::mt19937_64 rng(seed);
      const auto res = pipe.run(entry.make(), rng);
      violations += res.drc.violations.size() + res.lvs.shorted.size();
      expect_matches_reference(res.layout, cfg.layout,
                               entry.name + " seed " + std::to_string(seed));
    }
  }
  EXPECT_GT(violations, 0u);  // the lists compared are not all empty
}

TEST(ContactIndexOracle, WindowedScenarioLayout) {
  // An 80-block scenario layout, larger than any registry circuit's, whose
  // nets route on windows around their pins like every other layout's.
  ingest::ScenarioSpec spec;
  spec.size = 80;
  const ingest::Scenario sc = ingest::make_scenario(spec);
  core::PipelineConfig cfg;
  cfg.options = {{"iterations", "200"}, {"spacing_um", "0"}};
  cfg.scenario_constraints = sc.constraints;
  std::mt19937_64 rng(4);
  const auto res = core::FloorplanPipeline(cfg).run(sc.netlist, rng);
  EXPECT_FALSE(res.drc.violations.empty());
  expect_matches_reference(res.layout, cfg.layout, spec.to_string());
}

/// A random layout built to hit the index's edge cases: wires exactly
/// wire_spacing apart and 1 ulp closer, zero-width and zero-height rects,
/// duplicates, same-net overlaps, a third layer, outline escapes and a wire
/// spanning the whole outline.  Coordinates sit on a 0.05 um grid so ties
/// on the sweep axis are common.
Layout random_layout(std::uint64_t seed, const LayoutConfig& cfg) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> grid(0, 400);
  std::uniform_int_distribution<int> len(0, 120);
  std::uniform_int_distribution<int> pick(0, 99);
  const auto at = [&] { return 0.05 * grid(rng); };
  const auto net = [&] { return "n" + std::to_string(pick(rng) % 9); };
  const auto layer = [&] {
    const int r = pick(rng);
    return r < 45 ? 1 : r < 90 ? 2 : 3;
  };
  Layout layout;
  layout.outline = {0.0, 0.0, 20.0, 20.0};
  const int wires = 20 + pick(rng);
  for (int i = 0; i < wires; ++i) {
    const int r = pick(rng);
    WireSegment w;
    w.layer = layer();
    w.net = net();
    const double thin = r < 5 ? 0.0 : cfg.wire_width;
    const double length = r < 10 ? 0.0 : 0.05 * len(rng);
    w.rect = w.layer == 1 ? geom::Rect{at(), at(), length, thin}
                          : geom::Rect{at(), at(), thin, length};
    layout.wires.push_back(w);
    if (r >= 90 && r < 94) {  // exactly wire_spacing apart, and 1 ulp closer
      WireSegment b = w;
      b.net = w.net + "x";
      b.rect.y = w.rect.top() + cfg.wire_spacing;
      layout.wires.push_back(b);
      b.rect.y = std::nextafter(b.rect.y, -1.0);
      b.net = w.net + "y";
      layout.wires.push_back(b);
    } else if (r >= 94 && r < 97) {  // duplicate, same or other net
      WireSegment b = w;
      if (r == 94) b.net = w.net + "d";
      layout.wires.push_back(b);
    } else if (r == 97) {  // same-net overlap, shifted along the wire
      WireSegment b = w;
      b.rect = b.rect.translated(b.rect.w / 2.0, b.rect.h / 2.0);
      layout.wires.push_back(b);
    } else if (r == 98) {  // escapes the outline
      WireSegment b = w;
      b.rect.x = -0.1;
      layout.wires.push_back(b);
    }
  }
  // A wire across the whole outline on a random layer and net.
  layout.wires.insert(
      layout.wires.begin() + pick(rng) % static_cast<int>(layout.wires.size()),
      {layout.outline, layer(), net()});
  const int shapes = pick(rng) / 2;
  for (int i = 0; i < shapes; ++i) {
    layout.vias.push_back({{at(), at(), cfg.via_size, cfg.via_size}, net()});
    layout.pins.push_back({{at(), at(), 0.5, 0.5}, pick(rng) % 6, net()});
  }
  for (int i = 0; i < 6; ++i) {
    layout.blocks.push_back({at(), at(), 0.05 * len(rng), 0.05 * len(rng)});
  }
  return layout;
}

TEST(ContactIndexOracle, SeededRandomLayouts) {
  const LayoutConfig cfg;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    expect_matches_reference(random_layout(seed, cfg), cfg,
                             "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace afp::layoutgen
