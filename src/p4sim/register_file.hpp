// Stateful register arrays — the P4 `register` extern.
//
// Stat4 keeps every distribution, every statistical measure and every piece
// of tracker state in registers (Figure 4).  The file also accounts for the
// state memory the program occupies: the "3.1KB" style figure of the
// paper's Resource Consumption paragraph maps to total_state_bytes().
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stat4/types.hpp"

namespace p4sim {

using RegisterId = std::uint32_t;
using Word = std::uint64_t;

/// One register array: `size` cells of `width_bits` each.
struct RegisterArrayInfo {
  std::string name;
  std::uint32_t width_bits = 64;
  std::uint32_t size = 1;
};

/// Raw view of one array for the execution tiers (threaded / native): the
/// cell base pointer plus the pre-resolved bounds check and width mask, so
/// a compiled action touches the cells without going through read()/write()
/// dispatch.  Accesses through a window follow the same semantics as
/// read()/write(): out-of-bounds reads yield 0, out-of-bounds writes are
/// dropped, in-bounds writes are masked to the declared width.  A window
/// stays valid until the next declare() — P4Switch::declare_register bumps
/// config_gen_ so every compiled tier re-resolves its windows.
struct RegisterWindow {
  Word* base = nullptr;
  std::uint64_t size = 0;
  Word mask = ~Word{0};
};

class RegisterFile {
 public:
  /// Declares an array; returns its id.  Width is capped at 64 bits (cells
  /// are stored as words; writes are masked to the declared width like a P4
  /// target truncating to the register type).
  RegisterId declare(std::string name, std::uint32_t size,
                     std::uint32_t width_bits = 64);

  [[nodiscard]] Word read(RegisterId id, std::uint64_t index) const;
  void write(RegisterId id, std::uint64_t index, Word value);

  /// Raw view of array `id` for compiled execution tiers; throws
  /// std::out_of_range for an unknown array like read()/write().
  [[nodiscard]] RegisterWindow window(RegisterId id);

  /// Read-only view of array `id`'s cells, for a controller that copies a
  /// whole array with one bounds check; throws std::out_of_range for an
  /// unknown array like read().
  [[nodiscard]] std::span<const Word> cells(RegisterId id) const {
    return arrays_.at(id).cells;
  }

  [[nodiscard]] std::size_t array_count() const noexcept {
    return arrays_.size();
  }
  [[nodiscard]] const RegisterArrayInfo& info(RegisterId id) const;

  /// Total state memory in bytes across all arrays (width rounded up to
  /// whole bytes per cell) — the resource-consumption metric.
  [[nodiscard]] std::size_t total_state_bytes() const noexcept;

  /// Zero every cell (switch reboot).
  void clear() noexcept;

 private:
  struct Array {
    RegisterArrayInfo info;
    std::vector<Word> cells;
    Word mask = ~Word{0};
  };
  std::vector<Array> arrays_;
};

}  // namespace p4sim
