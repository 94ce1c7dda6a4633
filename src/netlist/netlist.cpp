#include "netlist/netlist.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace afp::netlist {

namespace {

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> toks;
  std::string t;
  while (is >> t) toks.push_back(t);
  return toks;
}

/// Parses "W=1.5" style key=value; returns value on key match.
std::optional<double> parse_kv(const std::string& tok, const std::string& key) {
  const std::string up = upper(tok);
  if (up.rfind(key + "=", 0) != 0) return std::nullopt;
  return std::stod(tok.substr(key.size() + 1));
}

/// NF= as a finger count.  The value is checked before its cast to int,
/// which is undefined for NaN, infinities and values outside int's range.
int finger_count(double nf, const std::string& line) {
  if (!(nf >= 1.0 && nf < 2147483648.0)) {
    throw std::runtime_error("bad NF in: " + line);
  }
  return static_cast<int>(nf);
}

}  // namespace

std::string to_string(DeviceType t) {
  switch (t) {
    case DeviceType::kNmos: return "nmos";
    case DeviceType::kPmos: return "pmos";
    case DeviceType::kResistor: return "resistor";
    case DeviceType::kCapacitor: return "capacitor";
  }
  return "?";
}

double Device::area_um2() const {
  if (is_mos()) {
    // Active area plus diffusion/contact overhead per finger: a simple
    // footprint model with 0.5um diffusion extension per finger edge.
    const double stripe_w = width_um / std::max(1, fingers);
    const double fin_h = stripe_w;
    const double fin_w = length_um + 1.0;  // gate + 2 x 0.5um diffusion
    return fin_h * fin_w * std::max(1, fingers);
  }
  if (type == DeviceType::kResistor) {
    // Poly resistor: ~1 kOhm per square at 0.5um width.
    const double squares = std::max(1.0, value / 1000.0);
    return squares * 0.5 * 0.5 + 1.0;
  }
  // MIM cap: ~2 fF/um^2.
  return std::max(1.0, value * 1e15 / 2.0);
}

bool Net::is_supply() const {
  const std::string u = [this] {
    std::string s = name;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    return s;
  }();
  return u == "VDD" || u == "VSS" || u == "GND" || u == "VDDA" || u == "VSSA" ||
         u == "AVDD" || u == "AVSS";
}

int Netlist::add_device(Device d) {
  if (d.is_mos() && d.terminals.size() != 4) {
    throw std::invalid_argument("MOS device " + d.name +
                                " needs 4 terminals");
  }
  if (!d.is_mos() && d.terminals.size() != 2) {
    throw std::invalid_argument("2-terminal device " + d.name +
                                " needs 2 terminals");
  }
  devices_.push_back(std::move(d));
  return static_cast<int>(devices_.size()) - 1;
}

std::vector<Net> Netlist::nets() const {
  std::vector<Net> out;
  std::map<std::string, int> index;
  for (int di = 0; di < num_devices(); ++di) {
    const Device& d = devices_[static_cast<std::size_t>(di)];
    for (int ti = 0; ti < static_cast<int>(d.terminals.size()); ++ti) {
      const std::string& nn = d.terminals[static_cast<std::size_t>(ti)];
      auto it = index.find(nn);
      if (it == index.end()) {
        index.emplace(nn, static_cast<int>(out.size()));
        out.push_back({nn, {{di, ti}}});
      } else {
        out[static_cast<std::size_t>(it->second)].pins.emplace_back(di, ti);
      }
    }
  }
  return out;
}

std::vector<int> Netlist::devices_on_net(const std::string& net) const {
  std::vector<int> out;
  for (int di = 0; di < num_devices(); ++di) {
    const Device& d = devices_[static_cast<std::size_t>(di)];
    if (std::find(d.terminals.begin(), d.terminals.end(), net) !=
        d.terminals.end()) {
      out.push_back(di);
    }
  }
  return out;
}

double Netlist::total_device_area() const {
  double a = 0.0;
  for (const Device& d : devices_) a += d.area_um2();
  return a;
}

std::string Netlist::to_spice() const {
  std::ostringstream os;
  os << ".subckt " << name_;
  for (const auto& p : ports_) os << ' ' << p;
  os << '\n';
  for (const Device& d : devices_) {
    switch (d.type) {
      case DeviceType::kNmos:
      case DeviceType::kPmos:
        os << 'M' << d.name << ' ' << d.terminals[0] << ' ' << d.terminals[1]
           << ' ' << d.terminals[2] << ' ' << d.terminals[3] << ' '
           << (d.type == DeviceType::kPmos ? "pmos" : "nmos")
           << " W=" << d.width_um << " L=" << d.length_um
           << " NF=" << d.fingers << '\n';
        break;
      case DeviceType::kResistor:
        os << 'R' << d.name << ' ' << d.terminals[0] << ' ' << d.terminals[1]
           << ' ' << d.value << '\n';
        break;
      case DeviceType::kCapacitor:
        os << 'C' << d.name << ' ' << d.terminals[0] << ' ' << d.terminals[1]
           << ' ' << d.value << '\n';
        break;
    }
  }
  os << ".ends\n";
  return os.str();
}

Netlist Netlist::from_spice(const std::string& text) {
  Netlist nl;
  std::istringstream is(text);
  std::string line;
  bool in_subckt = false;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    auto toks = tokenize(line);
    if (toks.empty() || toks[0][0] == '*') continue;
    const std::string head = upper(toks[0]);
    if (head == ".SUBCKT") {
      if (toks.size() < 2) throw std::runtime_error("malformed .subckt line");
      nl.set_name(toks[1]);
      nl.set_ports({toks.begin() + 2, toks.end()});
      in_subckt = true;
      continue;
    }
    if (head == ".ENDS") return nl;
    if (!in_subckt) {
      throw std::runtime_error("device statement outside .subckt: " + line);
    }
    Device d;
    const char kind = static_cast<char>(std::toupper(toks[0][0]));
    d.name = toks[0].substr(1);
    if (kind == 'M') {
      if (toks.size() < 6) throw std::runtime_error("malformed MOS: " + line);
      d.terminals = {toks[1], toks[2], toks[3], toks[4]};
      d.type = upper(toks[5]).find('P') != std::string::npos
                   ? DeviceType::kPmos
                   : DeviceType::kNmos;
      for (std::size_t i = 6; i < toks.size(); ++i) {
        if (auto w = parse_kv(toks[i], "W")) d.width_um = *w;
        else if (auto l = parse_kv(toks[i], "L")) d.length_um = *l;
        else if (auto nf = parse_kv(toks[i], "NF"))
          d.fingers = finger_count(*nf, line);
      }
    } else if (kind == 'R' || kind == 'C') {
      if (toks.size() < 4)
        throw std::runtime_error("malformed passive: " + line);
      d.terminals = {toks[1], toks[2]};
      d.type = kind == 'R' ? DeviceType::kResistor : DeviceType::kCapacitor;
      d.value = std::stod(toks[3]);
    } else {
      throw std::runtime_error("unsupported device kind in: " + line);
    }
    nl.add_device(std::move(d));
  }
  if (in_subckt) {
    throw std::runtime_error("unterminated .subckt '" + nl.name() +
                             "' (missing .ends)");
  }
  return nl;
}

}  // namespace afp::netlist
