#include "core/equivalence.h"

#include <algorithm>
#include <bit>

#include "core/kernel_runner.h"
#include "harness/vectors.h"
#include "lcc/lcc.h"

namespace udsim {

namespace {

struct Interface {
  std::vector<NetId> inputs_a, inputs_b;    // matched by name, a's order
  std::vector<NetId> outputs_a, outputs_b;  // matched by name, a's order
};

std::string match_interface(const Netlist& a, const Netlist& b, Interface& io) {
  if (a.primary_inputs().size() != b.primary_inputs().size()) {
    return "primary input counts differ";
  }
  if (a.primary_outputs().size() != b.primary_outputs().size()) {
    return "primary output counts differ";
  }
  for (NetId pi : a.primary_inputs()) {
    const auto other = b.find_net(a.net(pi).name);
    if (!other || !b.net(*other).is_primary_input) {
      return "input '" + a.net(pi).name + "' missing in second netlist";
    }
    io.inputs_a.push_back(pi);
    io.inputs_b.push_back(*other);
  }
  for (NetId po : a.primary_outputs()) {
    const auto other = b.find_net(a.net(po).name);
    if (!other || !b.net(*other).is_primary_output) {
      return "output '" + a.net(po).name + "' missing in second netlist";
    }
    io.outputs_a.push_back(po);
    io.outputs_b.push_back(*other);
  }
  return {};
}

}  // namespace

EquivalenceResult check_equivalence(const Netlist& a, const Netlist& b,
                                    const EquivalenceOptions& opts) {
  EquivalenceResult result;
  Interface io;
  result.error = match_interface(a, b, io);
  if (!result.error.empty()) return result;

  Netlist la = a, lb = b;
  lower_wired_nets(la);
  lower_wired_nets(lb);
  const LccCompiled ca = compile_lcc(la);
  const LccCompiled cb = compile_lcc(lb);
  KernelRunner<std::uint32_t> ra(ca.program);
  KernelRunner<std::uint32_t> rb(cb.program);

  const std::size_t n_in = io.inputs_a.size();
  const bool exhaustive = n_in <= opts.exhaustive_limit;
  result.exhaustive = exhaustive;
  const std::uint64_t total =
      exhaustive ? (std::uint64_t{1} << n_in) : opts.random_vectors;

  // Drive both with identical packed words (32 vectors per pass). Input
  // order of `a` defines the lane assignment; `b`'s input words are
  // permuted into its own primary-input order.
  std::vector<std::size_t> b_pos(n_in);
  for (std::size_t i = 0; i < n_in; ++i) {
    const auto& pis = lb.primary_inputs();
    b_pos[i] = static_cast<std::size_t>(
        std::find(pis.begin(), pis.end(), io.inputs_b[i]) - pis.begin());
  }
  std::vector<std::uint32_t> in_a(n_in), in_b(n_in);
  RandomVectorSource src(n_in, opts.seed);
  std::uint64_t done = 0;
  while (done < total) {
    const unsigned lanes =
        static_cast<unsigned>(std::min<std::uint64_t>(32, total - done));
    for (std::size_t i = 0; i < n_in; ++i) in_a[i] = 0;
    for (unsigned lane = 0; lane < lanes; ++lane) {
      for (std::size_t i = 0; i < n_in; ++i) {
        const Bit bit = exhaustive
                            ? static_cast<Bit>(((done + lane) >> i) & 1u)
                            : static_cast<Bit>(0);
        in_a[i] |= static_cast<std::uint32_t>(bit) << lane;
      }
    }
    if (!exhaustive) {
      src.next_packed<std::uint32_t>(in_a, lanes);
    }
    for (std::size_t i = 0; i < n_in; ++i) in_b[b_pos[i]] = in_a[i];
    ra.run(in_a);
    rb.run(in_b);
    for (std::size_t o = 0; o < io.outputs_a.size(); ++o) {
      const std::uint32_t wa = ra.word(ca.net_var[io.outputs_a[o].value]);
      const std::uint32_t wb = rb.word(cb.net_var[io.outputs_b[o].value]);
      std::uint32_t diff = wa ^ wb;
      if (lanes < 32) diff &= (1u << lanes) - 1;
      if (diff) {
        const unsigned lane = static_cast<unsigned>(std::countr_zero(diff));
        Counterexample cex;
        cex.output = a.net(io.outputs_a[o]).name;
        cex.value_a = static_cast<Bit>((wa >> lane) & 1u);
        cex.value_b = static_cast<Bit>((wb >> lane) & 1u);
        for (std::size_t i = 0; i < n_in; ++i) {
          cex.inputs.push_back(static_cast<Bit>((in_a[i] >> lane) & 1u));
        }
        result.counterexample = std::move(cex);
        result.vectors_checked = done + lane + 1;
        return result;
      }
    }
    done += lanes;
  }
  result.equivalent = true;
  result.vectors_checked = done;
  return result;
}

}  // namespace udsim
