#include "ev/config/scenario.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "kv_text.h"

namespace ev::config {
namespace {

using detail::fail;
using detail::split_ws;
using detail::trim;

// --- enum <-> text ----------------------------------------------------------

CycleKind parse_cycle(const std::string& s) {
  if (s == "urban") return CycleKind::kUrban;
  if (s == "highway") return CycleKind::kHighway;
  if (s == "suburban") return CycleKind::kSuburban;
  fail("scenario: unknown drive cycle '" + s + "'");
}

Balancing parse_balancing(const std::string& s) {
  if (s == "none") return Balancing::kNone;
  if (s == "passive") return Balancing::kPassive;
  if (s == "active") return Balancing::kActive;
  fail("scenario: unknown balancing policy '" + s + "'");
}

FaultKind parse_fault_kind(const std::string& s) {
  if (s == "bus.drop") return FaultKind::kBusDrop;
  if (s == "bus.corrupt") return FaultKind::kBusCorrupt;
  if (s == "bus.off") return FaultKind::kBusOff;
  if (s == "bus.babble") return FaultKind::kBusBabble;
  if (s == "partition.crash") return FaultKind::kPartitionCrash;
  if (s == "partition.hang") return FaultKind::kPartitionHang;
  if (s == "bms.stuck_voltage") return FaultKind::kSensorStuck;
  if (s == "bus.error_rate") return FaultKind::kBusErrorRate;
  if (s == "bus.error_prob") return FaultKind::kBusErrorProb;
  fail("scenario: unknown fault kind '" + s + "'");
}

// --- scalar parsing ---------------------------------------------------------

double parse_double(const std::string& s, const std::string& key) {
  return detail::parse_double(s, key, "scenario");
}

std::uint64_t parse_u64(const std::string& s, const std::string& key) {
  return detail::parse_u64(s, key, "scenario");
}

std::int64_t parse_i64(const std::string& s, const std::string& key) {
  return detail::parse_i64(s, key, "scenario");
}

bool parse_bool(const std::string& s, const std::string& key) {
  return detail::parse_bool(s, key, "scenario");
}

// --- arch helpers -----------------------------------------------------------

// Frame identifiers appear in scenario text exactly as the analyzer prints
// them: `0x` plus at least three lowercase hex digits.
std::string format_frame_id(std::uint32_t id) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%03x", id);
  return buf;
}

std::uint32_t parse_frame_id(const std::string& s, const std::string& key) {
  if (s.rfind("0x", 0) != 0)
    fail("scenario: '" + key + "' expects a 0x-prefixed frame id, got '" + s + "'");
  char* end = nullptr;
  const unsigned long v = std::strtoul(s.c_str() + 2, &end, 16);
  if (end == s.c_str() + 2 || *end != '\0' || v > 0x1FFFFFFFUL)
    fail("scenario: '" + key + "' expects a 0x-prefixed frame id, got '" + s + "'");
  return static_cast<std::uint32_t>(v);
}

// Inserts or replaces the entry for `frame_id` while keeping the list
// sorted by frame id — the canonical form ArchSpec::validate() demands.
template <typename Entry>
Entry& upsert_by_frame_id(std::vector<Entry>& entries, std::uint32_t frame_id) {
  std::size_t pos = 0;
  while (pos < entries.size() && entries[pos].frame_id < frame_id) ++pos;
  if (pos == entries.size() || entries[pos].frame_id != frame_id) {
    Entry e;
    e.frame_id = frame_id;
    entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(pos), e);
  }
  return entries[pos];
}

template <typename Entry>
void erase_by_frame_id(std::vector<Entry>& entries, std::uint32_t frame_id) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].frame_id == frame_id) {
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

}  // namespace

std::size_t arch_bus_index(const std::string& bus) {
  std::size_t i = 0;
  while (i < kArchBusCount && bus != kArchBusNames[i]) ++i;
  return i;
}

std::size_t home_bus(std::uint32_t frame_id) noexcept {
  if (frame_id >= 0x800) return 2;  // infotainment MOST
  if (frame_id >= 0x300) return 1;  // comfort CAN
  if (frame_id >= 0x200) return 3;  // safety CAN
  if (frame_id >= 0x100) return 4;  // chassis FlexRay
  return 0;                         // body LIN
}

std::size_t ArchSpec::bus_of(std::uint32_t frame_id) const {
  for (const FrameBusSpec& e : frame_buses)
    if (e.frame_id == frame_id) return arch_bus_index(e.bus);
  return home_bus(frame_id);
}

void ArchSpec::set_frame_bus(std::uint32_t frame_id, const std::string& bus) {
  upsert_by_frame_id(frame_buses, frame_id).bus = bus;
}

void ArchSpec::clear_frame_bus(std::uint32_t frame_id) {
  erase_by_frame_id(frame_buses, frame_id);
}

void ArchSpec::set_frame_id(std::uint32_t frame_id, std::uint32_t new_id) {
  if (new_id == frame_id) {
    erase_by_frame_id(frame_ids, frame_id);
    return;
  }
  upsert_by_frame_id(frame_ids, frame_id).new_id = new_id;
}

void ArchSpec::set_fr_slot(std::uint32_t frame_id, std::uint64_t slot) {
  upsert_by_frame_id(fr_slots, frame_id).slot = slot;
}

void ArchSpec::clear_fr_slots() { fr_slots.clear(); }

void ArchSpec::set_partition_windows(std::vector<PartitionWindowSpec> windows) {
  partitions = std::move(windows);
}

std::string format_double(double value) {
  char buf[40];
  char* const last = buf + sizeof buf;
  // Mantissa digits of the shortest round-trip form: no "%.*g" precision
  // below that count parses back to value. Counted in scientific form, since
  // the plain shortest form prints a large integer in full.
  char* end = std::to_chars(buf, last, value, std::chars_format::scientific).ptr;
  int precision = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c) precision += *c >= '0' && *c <= '9';
  // inf and NaN print no digit; NaN never round-trips and stops at 17.
  for (precision = std::max(precision, 1); precision <= 17; ++precision) {
    end = std::to_chars(buf, last, value, std::chars_format::general, precision).ptr;
    double parsed = 0.0;
    std::from_chars(buf, end, parsed);
    if (parsed == value) break;
  }
  return {buf, end};
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  const std::string s(text);
  if (!detail::match_decimal(s, /*allow_sign=*/false, /*allow_fraction=*/false))
    return std::nullopt;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

std::optional<std::int64_t> parse_i64(std::string_view text) {
  const std::string s(text);
  if (!detail::match_decimal(s, /*allow_sign=*/true, /*allow_fraction=*/false))
    return std::nullopt;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

std::string to_string(CycleKind kind) {
  switch (kind) {
    case CycleKind::kUrban: return "urban";
    case CycleKind::kHighway: return "highway";
    case CycleKind::kSuburban: return "suburban";
  }
  return "urban";
}

std::string to_string(Balancing balancing) {
  switch (balancing) {
    case Balancing::kNone: return "none";
    case Balancing::kPassive: return "passive";
    case Balancing::kActive: return "active";
  }
  return "passive";
}

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBusDrop: return "bus.drop";
    case FaultKind::kBusCorrupt: return "bus.corrupt";
    case FaultKind::kBusOff: return "bus.off";
    case FaultKind::kBusBabble: return "bus.babble";
    case FaultKind::kPartitionCrash: return "partition.crash";
    case FaultKind::kPartitionHang: return "partition.hang";
    case FaultKind::kSensorStuck: return "bms.stuck_voltage";
    case FaultKind::kBusErrorRate: return "bus.error_rate";
    case FaultKind::kBusErrorProb: return "bus.error_prob";
  }
  return "bus.drop";
}

void ScenarioSpec::validate() const {
  // Range checks below are written as `v < lo || v > hi`, which NaN slips
  // through (every comparison is false) and +inf slips past one-sided `< lo`
  // checks — so finiteness is asserted explicitly first. A valid spec holds
  // only finite doubles, which keeps the to_text/from_text round trip closed
  // (the parser rejects non-finite values).
  const auto finite = [](double v, const char* what) {
    if (!std::isfinite(v)) fail(std::string("scenario: ") + what + " must be finite");
  };
  finite(pack.initial_soc, "pack.initial_soc");
  finite(pack.soc_spread_sigma, "pack.soc_spread_sigma");
  finite(bms.initial_soc_estimate, "bms.initial_soc_estimate");
  finite(powertrain.aux_power_w, "powertrain.aux_power_w");
  finite(network.load_scale, "network.load_scale");
  finite(network.can_bit_rate, "network.can_bit_rate");
  finite(network.lin_bit_rate, "network.lin_bit_rate");
  finite(network.flexray_bit_rate, "network.flexray_bit_rate");
  finite(timing.control_period_s, "timing.control_period_s");
  finite(timing.bms_publish_period_s, "timing.bms_publish_period_s");
  if (name.empty()) fail("scenario: name must not be empty");
  if (name.find_first_of(" \t\n=") != std::string::npos)
    fail("scenario: name must not contain whitespace or '='");
  if (drive.repeat == 0) fail("scenario: drive.repeat must be >= 1");
  if (pack.module_count == 0) fail("scenario: pack.module_count must be positive");
  if (pack.cells_per_module == 0)
    fail("scenario: pack.cells_per_module must be positive");
  if (pack.initial_soc < 0.0 || pack.initial_soc > 1.0)
    fail("scenario: pack.initial_soc must lie in [0, 1]");
  if (pack.soc_spread_sigma < 0.0)
    fail("scenario: pack.soc_spread_sigma must be non-negative");
  if (bms.initial_soc_estimate < 0.0 || bms.initial_soc_estimate > 1.0)
    fail("scenario: bms.initial_soc_estimate must lie in [0, 1]");
  if (powertrain.aux_power_w < 0.0)
    fail("scenario: powertrain.aux_power_w must be non-negative");
  if (network.load_scale <= 0.0) fail("scenario: network.load_scale must be positive");
  if (network.can_bit_rate <= 0.0 || network.lin_bit_rate <= 0.0 ||
      network.flexray_bit_rate <= 0.0)
    fail("scenario: network bit rates must be positive");
  if (timing.control_period_s <= 0.0)
    fail("scenario: timing.control_period_s must be positive");
  if (timing.bms_publish_period_s <= 0.0)
    fail("scenario: timing.bms_publish_period_s must be positive");
  if (timing.middleware_frame_us <= 0)
    fail("scenario: timing.middleware_frame_us must be positive");
  for (std::size_t i = 0; i < arch.frame_buses.size(); ++i) {
    const FrameBusSpec& e = arch.frame_buses[i];
    if (arch_bus_index(e.bus) == kArchBusCount)
      fail("scenario: arch.frame_bus." + std::to_string(i) + " names unknown bus '" +
           e.bus + "'");
    if (i > 0 && arch.frame_buses[i - 1].frame_id >= e.frame_id)
      fail("scenario: arch.frame_bus entries must be in strictly increasing "
           "frame-id order");
  }
  for (std::size_t i = 0; i < arch.frame_ids.size(); ++i) {
    const FrameIdSpec& e = arch.frame_ids[i];
    if (e.new_id == e.frame_id)
      fail("scenario: arch.frame_id." + std::to_string(i) +
           " is an identity mapping; remove it");
    if (i > 0 && arch.frame_ids[i - 1].frame_id >= e.frame_id)
      fail("scenario: arch.frame_id entries must be in strictly increasing "
           "frame-id order");
    const std::size_t bus = arch.bus_of(e.frame_id);
    for (std::size_t j = 0; j < i; ++j)
      if (arch.frame_ids[j].new_id == e.new_id && arch.bus_of(arch.frame_ids[j].frame_id) == bus)
        fail("scenario: arch.frame_id entries assign duplicate id " +
             std::to_string(e.new_id) + " on " + kArchBusNames[bus]);
  }
  for (std::size_t i = 0; i < arch.fr_slots.size(); ++i) {
    const FrSlotSpec& e = arch.fr_slots[i];
    if (i > 0 && arch.fr_slots[i - 1].frame_id >= e.frame_id)
      fail("scenario: arch.fr_slot entries must be in strictly increasing "
           "frame-id order");
    for (std::size_t j = 0; j < i; ++j)
      if (arch.fr_slots[j].slot == e.slot)
        fail("scenario: arch.fr_slot entries assign duplicate slot " +
             std::to_string(e.slot));
  }
  for (std::size_t i = 0; i < arch.partitions.size(); ++i) {
    const PartitionWindowSpec& e = arch.partitions[i];
    const std::string at = "arch.partition." + std::to_string(i);
    if (e.partition.empty()) fail("scenario: " + at + " needs a partition name");
    if (e.partition.find_first_of(" \t") != std::string::npos)
      fail("scenario: " + at + " name must not contain whitespace");
    if (e.budget_us < 1) fail("scenario: " + at + " needs a budget >= 1 us");
    for (std::size_t j = 0; j < i; ++j)
      if (arch.partitions[j].partition == e.partition)
        fail("scenario: arch.partition lists '" + e.partition + "' twice");
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultEventSpec& f = faults[i];
    const std::string at = "fault." + std::to_string(i);
    if (!std::isfinite(f.at_s)) fail("scenario: " + at + " time must be finite");
    if (!std::isfinite(f.value)) fail("scenario: " + at + " value must be finite");
    if (f.at_s < 0.0) fail("scenario: " + at + " time must be non-negative");
    if (f.target.empty()) fail("scenario: " + at + " needs a target");
    if (f.target.find_first_of(" \t") != std::string::npos)
      fail("scenario: " + at + " target must not contain whitespace");
    if ((f.kind == FaultKind::kBusDrop || f.kind == FaultKind::kBusCorrupt ||
         f.kind == FaultKind::kPartitionHang) &&
        f.value < 1.0)
      fail("scenario: " + at + " needs a count >= 1");
    if ((f.kind == FaultKind::kBusOff || f.kind == FaultKind::kBusBabble) &&
        f.value <= 0.0)
      fail("scenario: " + at + " needs a positive duration");
    // Stochastic error models: reject out-of-range parameters here so the
    // analyzer and the simulation never see a rate they would have to clamp.
    // !(x >= 0) also catches NaN.
    if (f.kind == FaultKind::kBusErrorRate &&
        (!(f.value >= 0.0) || !std::isfinite(f.value)))
      fail("scenario: " + at + " needs a finite error rate >= 0 [errors/s]");
    if (f.kind == FaultKind::kBusErrorProb &&
        !(f.value >= 0.0 && f.value <= 1.0))
      fail("scenario: " + at + " needs an error probability in [0, 1]");
  }
}

std::string ScenarioSpec::to_text() const {
  std::ostringstream out;
  out << "# evsys scenario\n";
  out << "scenario.name = " << name << "\n";
  out << "drive.cycle = " << to_string(drive.cycle) << "\n";
  out << "drive.repeat = " << drive.repeat << "\n";
  out << "pack.module_count = " << pack.module_count << "\n";
  out << "pack.cells_per_module = " << pack.cells_per_module << "\n";
  out << "pack.initial_soc = " << format_double(pack.initial_soc) << "\n";
  out << "pack.soc_spread_sigma = " << format_double(pack.soc_spread_sigma) << "\n";
  out << "pack.lfp_chemistry = " << (pack.lfp_chemistry ? "true" : "false") << "\n";
  out << "bms.balancing = " << to_string(bms.balancing) << "\n";
  out << "bms.initial_soc_estimate = " << format_double(bms.initial_soc_estimate)
      << "\n";
  out << "powertrain.seed = " << powertrain.seed << "\n";
  out << "powertrain.aux_power_w = " << format_double(powertrain.aux_power_w) << "\n";
  out << "network.load_scale = " << format_double(network.load_scale) << "\n";
  out << "network.can_bit_rate = " << format_double(network.can_bit_rate) << "\n";
  out << "network.lin_bit_rate = " << format_double(network.lin_bit_rate) << "\n";
  out << "network.flexray_bit_rate = " << format_double(network.flexray_bit_rate)
      << "\n";
  out << "timing.control_period_s = " << format_double(timing.control_period_s) << "\n";
  out << "timing.bms_publish_period_s = " << format_double(timing.bms_publish_period_s)
      << "\n";
  out << "timing.middleware_frame_us = " << timing.middleware_frame_us << "\n";
  out << "subsystems.obs = " << (subsystems.obs ? "true" : "false") << "\n";
  out << "subsystems.faults = " << (subsystems.faults ? "true" : "false") << "\n";
  out << "subsystems.health = " << (subsystems.health ? "true" : "false") << "\n";
  out << "subsystems.security = " << (subsystems.security ? "true" : "false") << "\n";
  for (std::size_t i = 0; i < arch.frame_buses.size(); ++i) {
    out << "arch.frame_bus." << i << " = " << format_frame_id(arch.frame_buses[i].frame_id)
        << " " << arch.frame_buses[i].bus << "\n";
  }
  for (std::size_t i = 0; i < arch.frame_ids.size(); ++i) {
    out << "arch.frame_id." << i << " = " << format_frame_id(arch.frame_ids[i].frame_id)
        << " " << format_frame_id(arch.frame_ids[i].new_id) << "\n";
  }
  for (std::size_t i = 0; i < arch.fr_slots.size(); ++i) {
    out << "arch.fr_slot." << i << " = " << format_frame_id(arch.fr_slots[i].frame_id)
        << " " << arch.fr_slots[i].slot << "\n";
  }
  for (std::size_t i = 0; i < arch.partitions.size(); ++i) {
    out << "arch.partition." << i << " = " << arch.partitions[i].partition << " "
        << arch.partitions[i].budget_us << "\n";
  }
  out << "faults.seed = " << fault_seed << "\n";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultEventSpec& f = faults[i];
    out << "fault." << i << " = " << format_double(f.at_s) << " "
        << to_string(f.kind) << " " << f.target << " " << format_double(f.value)
        << "\n";
  }
  return out.str();
}

ScenarioSpec ScenarioSpec::from_text(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string line;
  std::size_t next_fault = 0;
  std::set<std::string> seen;
  while (std::getline(in, line)) {
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos)
      fail("scenario: expected 'key = value', got '" + stripped + "'");
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key.empty() || value.empty())
      fail("scenario: empty key or value in '" + stripped + "'");
    // Silently letting the last occurrence win would make two contradictory
    // lines a valid experiment description; reject the ambiguity instead.
    // (fault.N keys are unique already: the consecutive-numbering check
    // below rejects a reused index.)
    if (!seen.insert(key).second)
      fail("scenario: duplicate key '" + key + "'");

    if (key == "scenario.name") {
      spec.name = value;
    } else if (key == "drive.cycle") {
      spec.drive.cycle = parse_cycle(value);
    } else if (key == "drive.repeat") {
      spec.drive.repeat = parse_u64(value, key);
    } else if (key == "pack.module_count") {
      spec.pack.module_count = parse_u64(value, key);
    } else if (key == "pack.cells_per_module") {
      spec.pack.cells_per_module = parse_u64(value, key);
    } else if (key == "pack.initial_soc") {
      spec.pack.initial_soc = parse_double(value, key);
    } else if (key == "pack.soc_spread_sigma") {
      spec.pack.soc_spread_sigma = parse_double(value, key);
    } else if (key == "pack.lfp_chemistry") {
      spec.pack.lfp_chemistry = parse_bool(value, key);
    } else if (key == "bms.balancing") {
      spec.bms.balancing = parse_balancing(value);
    } else if (key == "bms.initial_soc_estimate") {
      spec.bms.initial_soc_estimate = parse_double(value, key);
    } else if (key == "powertrain.seed") {
      spec.powertrain.seed = parse_u64(value, key);
    } else if (key == "powertrain.aux_power_w") {
      spec.powertrain.aux_power_w = parse_double(value, key);
    } else if (key == "network.load_scale") {
      spec.network.load_scale = parse_double(value, key);
    } else if (key == "network.can_bit_rate") {
      spec.network.can_bit_rate = parse_double(value, key);
    } else if (key == "network.lin_bit_rate") {
      spec.network.lin_bit_rate = parse_double(value, key);
    } else if (key == "network.flexray_bit_rate") {
      spec.network.flexray_bit_rate = parse_double(value, key);
    } else if (key == "timing.control_period_s") {
      spec.timing.control_period_s = parse_double(value, key);
    } else if (key == "timing.bms_publish_period_s") {
      spec.timing.bms_publish_period_s = parse_double(value, key);
    } else if (key == "timing.middleware_frame_us") {
      spec.timing.middleware_frame_us = parse_i64(value, key);
    } else if (key == "subsystems.obs") {
      spec.subsystems.obs = parse_bool(value, key);
    } else if (key == "subsystems.faults") {
      spec.subsystems.faults = parse_bool(value, key);
    } else if (key == "subsystems.health") {
      spec.subsystems.health = parse_bool(value, key);
    } else if (key == "subsystems.security") {
      spec.subsystems.security = parse_bool(value, key);
    } else if (key == "faults.seed") {
      spec.fault_seed = parse_u64(value, key);
    } else if (key.rfind("arch.frame_bus.", 0) == 0) {
      const std::uint64_t index = parse_u64(key.substr(15), key);
      if (index != spec.arch.frame_buses.size())
        fail("scenario: arch.frame_bus entries must be numbered consecutively "
             "from 0; got '" + key + "'");
      const std::vector<std::string> fields = split_ws(value);
      if (fields.size() != 2)
        fail("scenario: '" + key + "' expects '<frame_id> <bus>'");
      FrameBusSpec e;
      e.frame_id = parse_frame_id(fields[0], key);
      e.bus = fields[1];
      spec.arch.frame_buses.push_back(std::move(e));
    } else if (key.rfind("arch.frame_id.", 0) == 0) {
      const std::uint64_t index = parse_u64(key.substr(14), key);
      if (index != spec.arch.frame_ids.size())
        fail("scenario: arch.frame_id entries must be numbered consecutively "
             "from 0; got '" + key + "'");
      const std::vector<std::string> fields = split_ws(value);
      if (fields.size() != 2)
        fail("scenario: '" + key + "' expects '<frame_id> <new_id>'");
      FrameIdSpec e;
      e.frame_id = parse_frame_id(fields[0], key);
      e.new_id = parse_frame_id(fields[1], key);
      spec.arch.frame_ids.push_back(e);
    } else if (key.rfind("arch.fr_slot.", 0) == 0) {
      const std::uint64_t index = parse_u64(key.substr(13), key);
      if (index != spec.arch.fr_slots.size())
        fail("scenario: arch.fr_slot entries must be numbered consecutively "
             "from 0; got '" + key + "'");
      const std::vector<std::string> fields = split_ws(value);
      if (fields.size() != 2)
        fail("scenario: '" + key + "' expects '<frame_id> <slot>'");
      FrSlotSpec e;
      e.frame_id = parse_frame_id(fields[0], key);
      e.slot = parse_u64(fields[1], key);
      spec.arch.fr_slots.push_back(e);
    } else if (key.rfind("arch.partition.", 0) == 0) {
      const std::uint64_t index = parse_u64(key.substr(15), key);
      if (index != spec.arch.partitions.size())
        fail("scenario: arch.partition entries must be numbered consecutively "
             "from 0; got '" + key + "'");
      const std::vector<std::string> fields = split_ws(value);
      if (fields.size() != 2)
        fail("scenario: '" + key + "' expects '<partition> <budget_us>'");
      PartitionWindowSpec e;
      e.partition = fields[0];
      e.budget_us = parse_i64(fields[1], key);
      spec.arch.partitions.push_back(std::move(e));
    } else if (key.rfind("fault.", 0) == 0) {
      const std::uint64_t index = parse_u64(key.substr(6), key);
      if (index != next_fault)
        fail("scenario: fault entries must be numbered consecutively from 0; got '" +
             key + "'");
      const std::vector<std::string> fields = split_ws(value);
      if (fields.size() != 4)
        fail("scenario: '" + key + "' expects '<at_s> <kind> <target> <value>'");
      FaultEventSpec f;
      f.at_s = parse_double(fields[0], key);
      f.kind = parse_fault_kind(fields[1]);
      f.target = fields[2];
      f.value = parse_double(fields[3], key);
      spec.faults.push_back(std::move(f));
      ++next_fault;
    } else {
      fail("scenario: unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("scenario: cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return ScenarioSpec::from_text(buf.str());
}

bool save_scenario_file(const ScenarioSpec& spec, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << spec.to_text();
  return static_cast<bool>(out);
}

}  // namespace ev::config
