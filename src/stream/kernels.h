#ifndef JARVIS_STREAM_KERNELS_H_
#define JARVIS_STREAM_KERNELS_H_

#include <cstdint>
#include <string_view>

namespace jarvis::stream::kernels {

/// Read only by blockbench, whose `kernel_isa` line prints IsaName: every
/// build runs scalar code.
enum class Isa : uint8_t { kScalar = 0 };

inline std::string_view IsaName(Isa) { return "scalar"; }
inline Isa ActiveIsa() { return Isa::kScalar; }

}  // namespace jarvis::stream::kernels

#endif  // JARVIS_STREAM_KERNELS_H_
