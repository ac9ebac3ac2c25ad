#include "stats/corr_store.hpp"

#include "common/strings.hpp"

namespace mm::stats {

std::string CorrKey::cache_key() const {
  std::string key = format("u=%s|d=%d|s=%lld|w=%lld|e=%s", universe.c_str(), date,
                           static_cast<long long>(delta_s),
                           static_cast<long long>(window), estimator.c_str());
  if (!frames_config.empty()) key += "|c=" + frames_config;
  return key;
}

}  // namespace mm::stats
