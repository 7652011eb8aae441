// C source emitter: prints a straight-line program as a self-contained C
// translation unit, the textual form the paper's code generators produce
// (compare Figs. 4, 6, 8, 10). Useful for inspection, for out-of-process
// compilation (examples/export_c), and to validate the in-process executor
// against a real C compiler (bench/ablation_emitted_c).
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "ir/program.h"

namespace udsim {

struct CEmitOptions {
  std::string function_name = "udsim_step";
  std::string arena_name = "udsim_arena";
  /// Emit `/* name */` comments from the `names` argument (empty: none).
  bool comments = true;
  /// Entry-point mode (the native backend, DESIGN.md §5h): the arena becomes
  /// the first parameter of every function instead of a global, and a batch
  /// entry point `<fn>_run(arena, in, n_vectors)` is emitted after
  /// `<fn>_init(arena)` and `<fn>(arena, in)` — one `_run` call simulates a
  /// whole row-major vector stream against a caller-owned arena, so a single
  /// dlopen'd symbol drives any number of vectors.
  bool batch_entry = false;
};

/// Emit (batch_entry = false, the historical layout):
///   #include <stdint.h>
///   uintN_t <arena>[arena_words];
///   void <fn>_init(void) { ...constant init... }
///   void <fn>(const uintN_t *in) { ...one statement per op...; }
/// where N = program.word_bits. With batch_entry = true the arena is a
/// parameter and `<fn>_run(arena, in, n_vectors)` is appended (see
/// CEmitOptions::batch_entry). `names`, one per arena word, come from the
/// compiled type (lcc_var_names, pcset_var_names, parallel_var_names).
void emit_c(std::ostream& os, const Program& p, const CEmitOptions& opts = {},
            std::span<const std::string> names = {});

/// The single C statement for one op (used by emit_c and by tests that
/// check the generated-code shape against the paper's figures).
[[nodiscard]] std::string op_to_c(const Program& p, const Op& op,
                                  const CEmitOptions& opts = {},
                                  std::span<const std::string> names = {});

}  // namespace udsim
