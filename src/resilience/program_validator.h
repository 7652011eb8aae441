// Pre-flight validation of compiled programs, with structured diagnostics.
//
// The one structural checker for a Program: the execution stack runs it
// *before* a program touches an arena, and the compiler test suites run it
// over every generated program. It checks op bounds, arena and input index
// ranges, shift-immediate ranges, scratch-read-before-write, probe coverage
// and input coverage, each defect reported as a distinct DiagCode into a
// Diagnostics sink. A corrupted or ill-formed Program is therefore a
// structured rejection, never out-of-bounds execution. The fallback chain
// re-validates after every downgrade, and the resilient batch entry point
// validates before its first pass (DESIGN.md §5f).
#pragma once

#include <span>
#include <stdexcept>
#include <string>

#include "core/kernel_runner.h"
#include "ir/program.h"
#include "netlist/diagnostics.h"

namespace udsim {

struct ValidateOptions {
  /// Arena bits the caller intends to sample after each vector; validated
  /// against the arena bounds and the program word size.
  std::span<const ArenaProbe> probes{};
  /// Arena words legitimately live across vectors (net variables,
  /// bit-fields, arena-init constants); each must lie inside the arena. When
  /// non-empty, reading any other word before this program writes it is an
  /// error.
  std::span<const std::uint32_t> persistent{};
  /// Warn (ProgramInputUnused) when an input word is never loaded — usually
  /// a sign the program and the vector stream disagree about PI order.
  bool check_input_coverage = true;
};

/// Validate `p`, reporting every defect (Error severity) and coverage gap
/// (Warning) into `diag`; on acceptance a single ProgramAccepted note is
/// recorded. Returns true when no Error-severity record was added. Defect
/// reporting is capped at 16 records so a garbage program cannot flood the
/// sink.
bool validate_program(const Program& p, const ValidateOptions& opts,
                      Diagnostics& diag);

/// Convenience wrapper: the first defect as a one-line string, empty when
/// the program is accepted.
[[nodiscard]] std::string validate_program_brief(const Program& p,
                                                 const ValidateOptions& opts = {});

/// Thrown by execution layers handed a program that fails validation.
class ProgramRejected : public std::runtime_error {
 public:
  explicit ProgramRejected(std::string first_defect);
};

}  // namespace udsim
