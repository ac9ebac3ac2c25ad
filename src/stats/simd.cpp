// Runtime dispatch for the SIMD kernel variants.
#include "stats/simd_detail.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace mm::stats::simd {
namespace {

bool cpu_has_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512f() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

Level detect_best_level() {
  if (!avx2_supported()) return Level::scalar;
  // MM_SIMD_LEVEL=scalar pins the fallback kernels on capable hosts (ops
  // knob, and how the scalar CI leg exercises the fallback on AVX2 runners).
  if (const char* env = std::getenv("MM_SIMD_LEVEL");
      env != nullptr && std::strcmp(env, "scalar") == 0)
    return Level::scalar;
  return avx512_supported() ? Level::avx512 : Level::avx2;
}

std::atomic<const KernelTable*>& active_table() {
  static std::atomic<const KernelTable*> table{&table_for(detect_best_level())};
  return table;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::scalar: return "scalar";
    case Level::avx2: return "avx2";
    case Level::avx512: return "avx512";
  }
  return "?";
}

bool avx2_compiled() {
#if MM_SIMD_AVX2
  return true;
#else
  return false;
#endif
}

bool avx2_supported() { return avx2_compiled() && cpu_has_avx2(); }

bool avx512_compiled() {
#if MM_SIMD_AVX512
  return true;
#else
  return false;
#endif
}

bool avx512_supported() {
  return avx512_compiled() && avx2_supported() && cpu_has_avx512f();
}

const KernelTable& scalar_kernels() { return detail::scalar_table(); }

const KernelTable& table_for(Level level) {
#if MM_SIMD_AVX512
  if (level == Level::avx512 && avx512_supported()) return detail::avx512_table();
#endif
#if MM_SIMD_AVX2
  if (level != Level::scalar && avx2_supported()) return detail::avx2_table();
#endif
  (void)level;
  return detail::scalar_table();
}

const KernelTable& kernels() {
  return *active_table().load(std::memory_order_relaxed);
}

Level active_level() {
  const KernelTable* current = active_table().load(std::memory_order_relaxed);
#if MM_SIMD_AVX512
  if (current == &detail::avx512_table()) return Level::avx512;
#endif
#if MM_SIMD_AVX2
  if (current == &detail::avx2_table()) return Level::avx2;
#endif
  (void)current;
  return Level::scalar;
}

bool set_level(Level level) {
  if (level == Level::avx2 && !avx2_supported()) return false;
  if (level == Level::avx512 && !avx512_supported()) return false;
  active_table().store(&table_for(level), std::memory_order_relaxed);
  return true;
}

ScopedLevel::ScopedLevel(Level level)
    : saved_(active_level()), engaged_(set_level(level)) {}

ScopedLevel::~ScopedLevel() {
  if (engaged_) set_level(saved_);
}

}  // namespace mm::stats::simd
