#include "p4sim/exec_tier.hpp"

#include <cstdlib>

namespace p4sim {

const char* to_string(ExecTier tier) noexcept {
  switch (tier) {
    case ExecTier::kThreaded: return "threaded";
    case ExecTier::kNative: return "native";
    case ExecTier::kReference: return "reference";
  }
  return "?";
}

std::optional<ExecTier> parse_exec_tier(std::string_view name) noexcept {
  if (name == "threaded") return ExecTier::kThreaded;
  if (name == "native" || name == "jit") return ExecTier::kNative;
  if (name == "reference") return ExecTier::kReference;
  return std::nullopt;
}

ExecTier default_exec_tier() noexcept {
  static const ExecTier tier = [] {
    const char* env = std::getenv("STAT4_EXEC_TIER");
    if (env != nullptr) {
      if (const auto parsed = parse_exec_tier(env)) return *parsed;
    }
    return ExecTier::kThreaded;
  }();
  return tier;
}

}  // namespace p4sim
