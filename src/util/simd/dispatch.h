// Run provenance only: the vector ISA of the host CPU, which
// benchmark/trace_driver.cc prints (`trace_driver info`) so that
// benchmark/run.py compares results from like hosts.  Nothing dispatches on
// it: every host runs the same portable kernel code.

#ifndef REGCLUSTER_UTIL_SIMD_DISPATCH_H_
#define REGCLUSTER_UTIL_SIMD_DISPATCH_H_

namespace regcluster {
namespace util {
namespace simd {

/// Values are stable: the regcluster_simd_level metric exports them.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// "scalar" / "avx2" / "neon".
inline const char* LevelName(Level level) {
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

struct HostIsa {
  Level level;
};

/// The host CPU's vector ISA: AVX2 when the CPU reports it, NEON on
/// AArch64, else scalar.
inline HostIsa Ops() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return {Level::kAvx2};
#elif defined(__aarch64__)
  return {Level::kNeon};
#endif
  return {Level::kScalar};
}

}  // namespace simd
}  // namespace util
}  // namespace regcluster

#endif  // REGCLUSTER_UTIL_SIMD_DISPATCH_H_
