#include "util/simd/dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "util/simd/kernels_avx2.h"
#include "util/simd/kernels_neon.h"
#include "util/simd/kernels_scalar.h"

namespace regcluster {
namespace util {
namespace simd {
namespace {

constexpr SimdOps kScalarOps = {
    Level::kScalar,
    &util::AndWords,
    &util::OrWordsInto,
    &util::CopyWords,
    &scalar::SortScored,
};

/// Table for an *available* level; null when the level is not compiled in.
const SimdOps* TableFor(Level level) {
  switch (level) {
    case Level::kScalar:
      return &kScalarOps;
    case Level::kAvx2:
#if defined(REGCLUSTER_HAVE_AVX2)
      return &GetAvx2Ops();
#else
      return nullptr;
#endif
    case Level::kNeon:
#if defined(REGCLUSTER_HAVE_NEON)
      return &GetNeonOps();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

/// The resolved table; null until the first Ops()/SetLevel() call.
std::atomic<const SimdOps*> g_ops{nullptr};

/// First-use resolution: honor REGCLUSTER_SIMD when it names an available
/// level, warn and fall back to auto-detection otherwise.  Two threads
/// racing here compute the same answer, so the benign double-store is fine.
const SimdOps* Resolve() {
  if (const char* env = std::getenv("REGCLUSTER_SIMD");
      env != nullptr && *env != '\0') {
    const auto parsed = ParseLevel(env);
    if (parsed.ok() && LevelAvailable(*parsed)) {
      return TableFor(*parsed);
    }
    std::fprintf(stderr,
                 "[regcluster] REGCLUSTER_SIMD=%s is not a usable kernel "
                 "level on this build/CPU; using auto-detection\n",
                 env);
  }
  return TableFor(DetectBestLevel());
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "unknown";
}

StatusOr<Level> ParseLevel(const std::string& name) {
  if (name == "auto") return DetectBestLevel();
  if (name == "scalar") return Level::kScalar;
  if (name == "avx2") return Level::kAvx2;
  if (name == "neon") return Level::kNeon;
  return Status::InvalidArgument("unknown SIMD level \"" + name +
                                 "\" (expected auto, scalar, avx2 or neon)");
}

Level DetectBestLevel() {
#if defined(REGCLUSTER_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
#if defined(REGCLUSTER_HAVE_NEON)
  return Level::kNeon;
#endif
  return Level::kScalar;
}

bool LevelAvailable(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
#if defined(REGCLUSTER_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Level::kNeon:
#if defined(REGCLUSTER_HAVE_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

const SimdOps& Ops() {
  const SimdOps* ops = g_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    ops = Resolve();
    g_ops.store(ops, std::memory_order_release);
  }
  return *ops;
}

Level CurrentLevel() { return Ops().level; }

Status SetLevel(Level level) {
  if (!LevelAvailable(level)) {
    return Status::FailedPrecondition(
        std::string("SIMD level \"") + LevelName(level) +
        "\" is not available on this build/CPU");
  }
  g_ops.store(TableFor(level), std::memory_order_release);
  return Status::OK();
}

Status ApplySimdFlag(const std::string& name) {
  const auto level = ParseLevel(name);
  if (!level.ok()) return level.status();
  return SetLevel(*level);
}

}  // namespace simd
}  // namespace util
}  // namespace regcluster
