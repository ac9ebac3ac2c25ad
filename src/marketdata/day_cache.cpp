#include "marketdata/day_cache.hpp"

#include <cstdio>
#include <utility>

#include "marketdata/tickdb.hpp"

namespace mm::md {

namespace {

std::size_t day_bytes(const std::vector<Quote>& quotes) {
  return sizeof(std::vector<Quote>) + quotes.capacity() * sizeof(Quote);
}

}  // namespace

DayCache::DayCache(Loader loader, std::size_t byte_budget, obs::Registry* registry)
    : OnceCache("day_cache", day_bytes, byte_budget, registry),
      loader_(std::move(loader)) {
  MM_ASSERT_MSG(loader_ != nullptr, "DayCache needs a loader");
}

Expected<DayCache::Day> DayCache::get(const std::string& key) {
  auto lease = acquire(key);
  if (lease.hit()) return lease.data();
  auto loaded = loader_(key);
  // On failure the lease abandons on return: nothing is cached and one
  // waiter, if any, becomes the owner and retries the loader.
  if (!loaded.has_value()) return loaded.error();
  return lease.publish(std::move(loaded.value()));
}

DayCache DayCache::from_tickdb(std::string root, std::size_t byte_budget,
                               obs::Registry* registry) {
  return DayCache(
      [root = std::move(root)](const std::string& key) -> Expected<std::vector<Quote>> {
        Date date;
        if (std::sscanf(key.c_str(), "%d-%d-%d", &date.year, &date.month,
                        &date.day) != 3 ||
            !date.valid())
          return Error(Errc::invalid_argument,
                       "day cache key must be an ISO date: " + key);
        auto db = TickDb::open(root);
        if (!db.has_value()) return db.error();
        return db.value().read_day(date);
      },
      byte_budget, registry);
}

}  // namespace mm::md
