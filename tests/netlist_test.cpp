#include <gtest/gtest.h>

#include "netlist/library.hpp"
#include "netlist/netlist.hpp"

namespace afp::netlist {
namespace {

TEST(Device, AreaModels) {
  Device mos{"m1", DeviceType::kNmos, {"d", "g", "s", "b"}, 10.0, 0.18, 2};
  EXPECT_GT(mos.area_um2(), 0.0);
  // More fingers with the same total width shrink the footprint height but
  // multiply stripes; area stays in the same ballpark and positive.
  Device mos4 = mos;
  mos4.fingers = 4;
  EXPECT_GT(mos4.area_um2(), 0.0);

  Device res{"r1", DeviceType::kResistor, {"a", "b"}, 0, 0, 1, 10000.0};
  Device res2 = res;
  res2.value = 20000.0;
  EXPECT_GT(res2.area_um2(), res.area_um2());

  Device cap{"c1", DeviceType::kCapacitor, {"a", "b"}, 0, 0, 1, 1e-12};
  EXPECT_NEAR(cap.area_um2(), 500.0, 1.0);  // ~2 fF/um^2
}

TEST(Device, TerminalArityEnforced) {
  Netlist nl;
  EXPECT_THROW(
      nl.add_device({"m", DeviceType::kNmos, {"d", "g", "s"}, 1.0}),
      std::invalid_argument);
  EXPECT_THROW(
      nl.add_device({"r", DeviceType::kResistor, {"a", "b", "c"}, 0, 0, 1, 1.0}),
      std::invalid_argument);
}

TEST(Net, SupplyDetection) {
  EXPECT_TRUE((Net{"VDD", {}}).is_supply());
  EXPECT_TRUE((Net{"vss", {}}).is_supply());
  EXPECT_TRUE((Net{"GND", {}}).is_supply());
  EXPECT_FALSE((Net{"out", {}}).is_supply());
}

TEST(Netlist, NetsDerivedFromTerminals) {
  Netlist nl = make_ota_small();
  const auto nets = nl.nets();
  EXPECT_GT(nets.size(), 3u);
  // Every device terminal shows up exactly once as a pin.
  std::size_t pin_count = 0;
  for (const auto& n : nets) pin_count += n.pins.size();
  std::size_t term_count = 0;
  for (const auto& d : nl.devices()) term_count += d.terminals.size();
  EXPECT_EQ(pin_count, term_count);
}

TEST(Netlist, DevicesOnNet) {
  Netlist nl = make_ota_small();
  const auto on_tail = nl.devices_on_net("tail");
  EXPECT_EQ(on_tail.size(), 3u);  // diff pair (2) + tail source
}

TEST(Library, RegistryCircuitsBuild) {
  for (const auto& entry : circuit_registry()) {
    const Netlist nl = entry.make();
    EXPECT_GT(nl.num_devices(), 0) << entry.name;
    EXPECT_GT(nl.total_device_area(), 0.0) << entry.name;
  }
}

TEST(Library, BlockCountCircuitsHaveExpectedDeviceMix) {
  EXPECT_EQ(make_ota_small().num_devices(), 5);   // DP(2)+CM(2)+tail
  EXPECT_GE(make_driver().num_devices(), 17);
  EXPECT_GE(make_bias2().num_devices(), 19);
}

TEST(Library, PerturbPreservesTopologyAndMatching) {
  std::mt19937_64 rng(3);
  const Netlist orig = make_ota1();
  const Netlist pert = perturb_sizes(orig, rng);
  ASSERT_EQ(pert.num_devices(), orig.num_devices());
  for (int i = 0; i < orig.num_devices(); ++i) {
    EXPECT_EQ(pert.device(i).terminals, orig.device(i).terminals);
  }
  // The diff-pair devices (same original W) stay matched.
  EXPECT_DOUBLE_EQ(pert.device(0).width_um, pert.device(1).width_um);
  // But sizes did change somewhere.
  bool changed = false;
  for (int i = 0; i < orig.num_devices(); ++i) {
    if (std::abs(pert.device(i).width_um - orig.device(i).width_um) > 1e-12 ||
        std::abs(pert.device(i).value - orig.device(i).value) > 1e-18) {
      changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(Library, RingOscillatorScales) {
  EXPECT_EQ(make_ring_oscillator(3).num_devices(), 6);
  EXPECT_EQ(make_ring_oscillator(7).num_devices(), 14);
}

}  // namespace
}  // namespace afp::netlist
