#include "fault/transition.h"

#include "core/kernel_runner.h"
#include "fault/forcing.h"
#include "netlist/transform.h"

namespace udsim {

std::vector<TransitionFault> enumerate_transition_faults(const Netlist& nl) {
  std::vector<TransitionFault> out;
  for (const Fault& f : enumerate_faults(nl)) {
    if (f.stuck_at == 0) {
      out.push_back({f.net, true});   // slow-to-rise pairs with stuck-at-0
    } else {
      out.push_back({f.net, false});  // slow-to-fall pairs with stuck-at-1
    }
  }
  return out;
}

TransitionFaultResult run_transition_fault_sim(const Netlist& nl,
                                               std::span<const TransitionFault> faults,
                                               std::size_t patterns,
                                               std::uint64_t seed) {
  using Word = std::uint32_t;
  constexpr std::size_t L = 32;
  const std::size_t pis = nl.primary_inputs().size();
  const std::vector<Bit> m = detail::fault_patterns(patterns, pis, seed);
  const std::size_t batches = (patterns + L - 1) / L;
  const LccCompiled good = compile_lcc(nl);
  const auto& pos = nl.primary_outputs();

  // Packed inputs per batch (lane = pattern index within the batch).
  std::vector<Word> inputs(batches * pis, 0);
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t lane = 0; lane < L; ++lane) {
      const std::size_t k = std::min(b * L + lane, patterns - 1);
      for (std::size_t i = 0; i < pis; ++i) {
        inputs[b * pis + i] |= static_cast<Word>(m[k * pis + i] & 1u) << lane;
      }
    }
  }

  // Good run: per-pattern finals of every faulted net and every PO.
  const std::size_t pattern_words = batches;  // bitset words per net
  std::vector<Word> net_final(nl.net_count() * pattern_words, 0);
  std::vector<Word> good_po(batches * pos.size());
  {
    KernelRunner<Word> runner(good.program);
    for (std::size_t b = 0; b < batches; ++b) {
      runner.run(std::span<const Word>(inputs.data() + b * pis, pis));
      for (const TransitionFault& f : faults) {
        net_final[f.net.value * pattern_words + b] =
            runner.word(good.net_var[f.net.value]);
      }
      for (std::size_t o = 0; o < pos.size(); ++o) {
        good_po[b * pos.size() + o] = runner.word(good.net_var[pos[o].value]);
      }
    }
  }
  const auto final_bit = [&](NetId n, std::size_t k) {
    return (net_final[n.value * pattern_words + k / L] >> (k % L)) & 1u;
  };

  TransitionFaultResult result;
  result.pattern_pairs = patterns ? patterns - 1 : 0;
  result.detected.assign(faults.size(), false);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const TransitionFault& fault = faults[f];
    // Capture half: the paired stuck-at fault's observability per pattern.
    const std::uint64_t stuck = fault.rising ? 0 : ~std::uint64_t{0};
    const Program forced =
        detail::build_forced(good, {{fault.net, ~std::uint64_t{0}, stuck}});
    KernelRunner<Word> runner(forced);
    for (std::size_t b = 0; b < batches && !result.detected[f]; ++b) {
      runner.run(std::span<const Word>(inputs.data() + b * pis, pis));
      Word observable = 0;
      for (std::size_t o = 0; o < pos.size(); ++o) {
        observable |=
            runner.word(good.net_var[pos[o].value]) ^ good_po[b * pos.size() + o];
      }
      if (!observable) continue;
      // Launch half: the net must make the right transition into pattern k.
      for (std::size_t lane = 0; lane < L; ++lane) {
        const std::size_t k = b * L + lane;
        if (k == 0 || k >= patterns) continue;
        if (!((observable >> lane) & 1u)) continue;
        const unsigned prev = final_bit(fault.net, k - 1);
        const unsigned cur = final_bit(fault.net, k);
        if (fault.rising ? (prev == 0 && cur == 1) : (prev == 1 && cur == 0)) {
          result.detected[f] = true;
          break;
        }
      }
    }
  }
  return result;
}

TransitionFaultResult run_transition_fault_sim_serial(
    const Netlist& nl, std::span<const TransitionFault> faults,
    std::size_t patterns, std::uint64_t seed) {
  const std::size_t pis = nl.primary_inputs().size();
  const std::vector<Bit> m = detail::fault_patterns(patterns, pis, seed);
  const auto& pos = nl.primary_outputs();

  // Good finals of every net per pattern.
  LccSim<> good(nl);
  std::vector<Bit> finals(nl.net_count() * patterns);
  std::vector<Bit> good_po(patterns * pos.size());
  for (std::size_t k = 0; k < patterns; ++k) {
    good.step(std::span<const Bit>(m.data() + k * pis, pis));
    for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
      finals[n * patterns + k] = good.value(NetId{n});
    }
    for (std::size_t o = 0; o < pos.size(); ++o) {
      good_po[k * pos.size() + o] = good.value(pos[o]);
    }
  }

  TransitionFaultResult result;
  result.pattern_pairs = patterns ? patterns - 1 : 0;
  result.detected.assign(faults.size(), false);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const TransitionFault& fault = faults[f];
    if (nl.net(fault.net).is_primary_input) {
      // Observability of the paired stuck-at via pattern forcing.
      std::size_t pi_index = 0;
      for (; pi_index < pis; ++pi_index) {
        if (nl.primary_inputs()[pi_index] == fault.net) break;
      }
      LccSim<> sim(nl);
      std::vector<Bit> v(pis);
      for (std::size_t k = 1; k < patterns && !result.detected[f]; ++k) {
        const Bit prev = finals[fault.net.value * patterns + k - 1];
        const Bit cur = finals[fault.net.value * patterns + k];
        const bool launch = fault.rising ? (prev == 0 && cur == 1)
                                         : (prev == 1 && cur == 0);
        if (!launch) continue;
        std::copy_n(m.data() + k * pis, pis, v.data());
        v[pi_index] = fault.rising ? 0 : 1;
        sim.step(v);
        for (std::size_t o = 0; o < pos.size(); ++o) {
          if (sim.value(pos[o]) != good_po[k * pos.size() + o]) {
            result.detected[f] = true;
            break;
          }
        }
      }
      continue;
    }
    const Netlist faulty =
        inject_stuck_at(nl, fault.net, fault.rising ? 0 : 1);
    LccSim<> sim(faulty);
    for (std::size_t k = 1; k < patterns && !result.detected[f]; ++k) {
      const Bit prev = finals[fault.net.value * patterns + k - 1];
      const Bit cur = finals[fault.net.value * patterns + k];
      const bool launch =
          fault.rising ? (prev == 0 && cur == 1) : (prev == 1 && cur == 0);
      if (!launch) continue;
      sim.step(std::span<const Bit>(m.data() + k * pis, pis));
      for (std::size_t o = 0; o < pos.size(); ++o) {
        if (sim.value(pos[o]) != good_po[k * pos.size() + o]) {
          result.detected[f] = true;
          break;
        }
      }
    }
  }
  return result;
}

}  // namespace udsim
