#include "marketdata/symbols.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/rng.hpp"

namespace mm::md {

SymbolId SymbolTable::intern(const std::string& ticker) {
  MM_ASSERT_MSG(!ticker.empty(), "empty ticker");
  if (const auto it = ids_.find(ticker); it != ids_.end()) return it->second;
  const auto id = static_cast<SymbolId>(names_.size());
  names_.push_back(ticker);
  ids_.emplace(ticker, id);
  return id;
}

SymbolId SymbolTable::lookup(const std::string& ticker) const {
  const auto it = ids_.find(ticker);
  return it == ids_.end() ? invalid_symbol : it->second;
}

const std::string& SymbolTable::name(SymbolId id) const {
  MM_ASSERT_MSG(id < names_.size(), "symbol id out of range");
  return names_[id];
}

const std::vector<UniverseEntry>& default_universe() {
  // 61 large-cap names liquid in March 2008 (incl. the five that appear in the
  // paper's Table II sample: NVDA, ORCL, SLB, TWX, BK), grouped by sector.
  // Prices are plausible levels for early March 2008.
  static const std::vector<UniverseEntry> universe = {
      // Technology
      {"MSFT", "tech", 28.0},  {"IBM", "tech", 114.0},  {"ORCL", "tech", 19.6},
      {"NVDA", "tech", 18.2},  {"INTC", "tech", 20.0},  {"CSCO", "tech", 24.0},
      {"AAPL", "tech", 122.0}, {"HPQ", "tech", 47.0},   {"DELL", "tech", 20.0},
      {"TXN", "tech", 29.0},   {"QCOM", "tech", 40.0},  {"EMC", "tech", 15.5},
      // Financials
      {"BK", "financial", 41.5},   {"C", "financial", 21.0},
      {"JPM", "financial", 40.0},  {"BAC", "financial", 38.0},
      {"WFC", "financial", 29.0},  {"GS", "financial", 165.0},
      {"MS", "financial", 42.0},   {"MER", "financial", 47.0},
      {"AXP", "financial", 43.0},  {"USB", "financial", 32.0},
      // Energy
      {"XOM", "energy", 86.0},  {"CVX", "energy", 85.0},  {"SLB", "energy", 83.0},
      {"COP", "energy", 80.0},  {"OXY", "energy", 75.0},  {"HAL", "energy", 38.0},
      {"DVN", "energy", 100.0}, {"APA", "energy", 110.0},
      // Consumer / retail
      {"WMT", "consumer", 50.0}, {"TGT", "consumer", 51.0}, {"HD", "consumer", 26.0},
      {"LOW", "consumer", 23.0}, {"COST", "consumer", 62.0}, {"MCD", "consumer", 53.0},
      {"KO", "consumer", 58.0},  {"PEP", "consumer", 68.0},  {"PG", "consumer", 66.0},
      {"CL", "consumer", 76.0},
      // Industrials / transport
      {"UPS", "industrial", 70.0}, {"FDX", "industrial", 88.0},
      {"GE", "industrial", 33.0},  {"BA", "industrial", 78.0},
      {"CAT", "industrial", 72.0}, {"DE", "industrial", 84.0},
      {"HON", "industrial", 56.0}, {"MMM", "industrial", 78.0},
      // Healthcare
      {"JNJ", "health", 62.0}, {"PFE", "health", 22.0}, {"MRK", "health", 44.0},
      {"ABT", "health", 54.0}, {"LLY", "health", 50.0}, {"BMY", "health", 22.0},
      // Media / telecom
      {"TWX", "media", 14.2}, {"DIS", "media", 31.0}, {"T", "media", 36.0},
      {"VZ", "media", 35.0},  {"CMCSA", "media", 19.0},
      // Semis / misc tech to round out 61
      {"AMD", "tech", 7.0}, {"MU", "tech", 6.5},
  };
  return universe;
}

Universe make_universe(std::size_t n) {
  const auto& all = default_universe();
  MM_ASSERT_MSG(n >= 2, "universe needs at least two symbols");

  Universe u;
  const std::size_t builtin = std::min(n, all.size());
  for (std::size_t i = 0; i < builtin; ++i) {
    const auto& entry = all[i];
    const SymbolId id = u.table.intern(entry.ticker);
    MM_ASSERT(id == i);
    const std::string sector = entry.sector;
    auto it = std::find(u.sector_names.begin(), u.sector_names.end(), sector);
    if (it == u.sector_names.end()) {
      u.sector_names.push_back(sector);
      it = std::prev(u.sector_names.end());
    }
    u.sector.push_back(static_cast<int>(it - u.sector_names.begin()));
    u.base_price.push_back(entry.price_2008);
  }

  // Beyond the 61 built-in large caps the universe continues with synthetic
  // names — the scale regime of the exchange-wide all-pairs studies. Tickers,
  // sector assignment and base prices are pure functions of the symbol index
  // (no RNG seed involved), so make_universe(m) is always a prefix of
  // make_universe(n) for m < n and every experiment stays reproducible.
  constexpr std::size_t kSyntheticSectorSize = 25;  // names per synthetic sector
  const auto base_sectors = u.sector_names.size();
  for (std::size_t i = builtin; i < n; ++i) {
    char ticker[24];  // "SYN" + up to 20 digits of a size_t + NUL
    std::snprintf(ticker, sizeof(ticker), "SYN%05zu", i);
    const SymbolId id = u.table.intern(ticker);
    MM_ASSERT(id == i);
    const std::size_t ordinal = (i - all.size()) / kSyntheticSectorSize;
    if (base_sectors + ordinal == u.sector_names.size())
      u.sector_names.push_back("syn" + std::to_string(ordinal));
    u.sector.push_back(static_cast<int>(base_sectors + ordinal));
    // Hash-derived price level in [5, 150] — plausible large-cap range.
    std::uint64_t sm = 0x7c9f0e8d2b1a5634ULL ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    const double f = static_cast<double>(splitmix64(sm) >> 11) * 0x1.0p-53;
    u.base_price.push_back(5.0 + 145.0 * f);
  }
  return u;
}

}  // namespace mm::md
