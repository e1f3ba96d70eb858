#include "ev/config/scenario.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "kv_text.h"

namespace ev::config {

template <>
struct detail::EnumNames<CycleKind> {
  static constexpr const char* kWhat = "drive cycle";
  static constexpr std::string_view kNames[] = {"urban", "highway", "suburban"};
};

template <>
struct detail::EnumNames<Balancing> {
  static constexpr const char* kWhat = "balancing policy";
  static constexpr std::string_view kNames[] = {"none", "passive", "active"};
};

template <>
struct detail::EnumNames<FaultKind> {
  static constexpr const char* kWhat = "fault kind";
  static constexpr std::string_view kNames[] = {
      "bus.drop",          "bus.corrupt",     "bus.off",
      "bus.babble",        "partition.crash", "partition.hang",
      "bms.stuck_voltage", "bus.error_rate",  "bus.error_prob"};
};

// The values of one list entry, in text order (see kv_text.h).
void entry_fields(detail::MaybeConst<FrameBusSpec> auto& e, auto&& visit) {
  visit("<frame_id>", e.frame_id);
  visit("<bus>", e.bus);
}

void entry_fields(detail::MaybeConst<FrameIdSpec> auto& e, auto&& visit) {
  visit("<frame_id>", e.frame_id);
  visit("<new_id>", e.new_id);
}

void entry_fields(detail::MaybeConst<FrSlotSpec> auto& e, auto&& visit) {
  visit("<frame_id>", e.frame_id);
  visit("<slot>", e.slot);
}

void entry_fields(detail::MaybeConst<PartitionWindowSpec> auto& e, auto&& visit) {
  visit("<partition>", e.partition);
  visit("<budget_us>", e.budget_us);
}

void entry_fields(detail::MaybeConst<FaultEventSpec> auto& f, auto&& visit) {
  visit("<at_s>", f.at_s);
  visit("<kind>", f.kind);
  visit("<target>", f.target);
  visit("<value>", f.value);
}

namespace {

using detail::fail;

// Every key of scenario text, in to_text order.
void fields(detail::MaybeConst<ScenarioSpec> auto& s, auto&& visit) {
  visit("scenario.name", s.name);
  visit("drive.cycle", s.drive.cycle);
  visit("drive.repeat", s.drive.repeat);
  visit("pack.module_count", s.pack.module_count);
  visit("pack.cells_per_module", s.pack.cells_per_module);
  visit("pack.initial_soc", s.pack.initial_soc);
  visit("pack.soc_spread_sigma", s.pack.soc_spread_sigma);
  visit("pack.lfp_chemistry", s.pack.lfp_chemistry);
  visit("bms.balancing", s.bms.balancing);
  visit("bms.initial_soc_estimate", s.bms.initial_soc_estimate);
  visit("powertrain.seed", s.powertrain.seed);
  visit("powertrain.aux_power_w", s.powertrain.aux_power_w);
  visit("network.load_scale", s.network.load_scale);
  visit("network.can_bit_rate", s.network.can_bit_rate);
  visit("network.lin_bit_rate", s.network.lin_bit_rate);
  visit("network.flexray_bit_rate", s.network.flexray_bit_rate);
  visit("timing.control_period_s", s.timing.control_period_s);
  visit("timing.bms_publish_period_s", s.timing.bms_publish_period_s);
  visit("timing.middleware_frame_us", s.timing.middleware_frame_us);
  visit("subsystems.obs", s.subsystems.obs);
  visit("subsystems.faults", s.subsystems.faults);
  visit("subsystems.health", s.subsystems.health);
  visit("subsystems.security", s.subsystems.security);
  visit("arch.frame_bus", s.arch.frame_buses);
  visit("arch.frame_id", s.arch.frame_ids);
  visit("arch.fr_slot", s.arch.fr_slots);
  visit("arch.partition", s.arch.partitions);
  visit("faults.seed", s.fault_seed);
  visit("fault", s.faults);
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
  if (!detail::match_decimal(text, /*allow_sign=*/false, /*allow_fraction=*/false))
    return std::nullopt;
  const std::string s(text);
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

std::optional<std::int64_t> parse_i64(std::string_view text) {
  if (!detail::match_decimal(text, /*allow_sign=*/true, /*allow_fraction=*/false))
    return std::nullopt;
  const std::string s(text);
  errno = 0;
  const long long v = std::strtoll(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

std::string to_string(CycleKind kind) { return std::string(detail::enum_name(kind)); }

std::string to_string(Balancing balancing) {
  return std::string(detail::enum_name(balancing));
}

std::string to_string(FaultKind kind) { return std::string(detail::enum_name(kind)); }

void ScenarioSpec::validate() const {
  fields(*this, detail::FiniteCheck{"scenario"});
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
  std::string out = "# evsys scenario\n";
  fields(*this, detail::TextWriter{out});
  return out;
}

ScenarioSpec ScenarioSpec::from_text(const std::string& text) {
  ScenarioSpec spec;
  detail::read_text(text, "scenario", [&spec](auto&& visit) { fields(spec, visit); });
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
