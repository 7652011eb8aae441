#include "fault/fault_sim.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/kernel_runner.h"
#include "fault/forcing.h"
#include "harness/vectors.h"
#include "netlist/transform.h"

namespace udsim {

std::vector<Fault> enumerate_faults(const Netlist& nl) {
  std::vector<Fault> out;
  out.reserve(nl.net_count() * 2);
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(NetId{n});
    bool constant = false;
    for (GateId g : net.drivers) {
      constant |= is_constant(nl.gate(g).type);
    }
    if (constant) continue;
    out.push_back({NetId{n}, 0});
    out.push_back({NetId{n}, 1});
  }
  return out;
}

namespace detail {

std::vector<Bit> fault_patterns(std::size_t patterns, std::size_t inputs,
                                std::uint64_t seed) {
  RandomVectorSource src(inputs, seed);
  std::vector<Bit> m(patterns * inputs);
  for (std::size_t k = 0; k < patterns; ++k) {
    src.next(std::span<Bit>(m.data() + k * inputs, inputs));
  }
  return m;
}

}  // namespace detail

using detail::build_forced;
using detail::Forcing;

template <class Word>
FaultSimulator<Word>::FaultSimulator(const Netlist& nl)
    : nl_(nl), good_(compile_lcc(nl, static_cast<int>(sizeof(Word) * 8))) {}

template <class Word>
FaultSimResult FaultSimulator<Word>::run_ppsfp(std::span<const Fault> faults,
                                               std::size_t patterns,
                                               std::uint64_t seed) {
  constexpr std::size_t L = sizeof(Word) * 8;
  const std::size_t pis = nl_.primary_inputs().size();
  const std::vector<Bit> m = detail::fault_patterns(patterns, pis, seed);
  const std::size_t batches = (patterns + L - 1) / L;

  // Packed inputs per batch (short final batch repeats its last pattern —
  // duplicates cannot detect anything the original lane does not).
  std::vector<Word> inputs(batches * pis, 0);
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t lane = 0; lane < L; ++lane) {
      const std::size_t k = std::min(b * L + lane, patterns - 1);
      for (std::size_t i = 0; i < pis; ++i) {
        inputs[b * pis + i] |= static_cast<Word>(m[k * pis + i] & 1u) << lane;
      }
    }
  }
  // Good-machine primary-output words per batch.
  const auto& pos = nl_.primary_outputs();
  std::vector<Word> good_po(batches * pos.size());
  {
    KernelRunner<Word> runner(good_.program);
    for (std::size_t b = 0; b < batches; ++b) {
      runner.run(std::span<const Word>(inputs.data() + b * pis, pis));
      for (std::size_t o = 0; o < pos.size(); ++o) {
        good_po[b * pos.size() + o] = runner.word(good_.net_var[pos[o].value]);
      }
    }
  }

  FaultSimResult result;
  result.patterns = patterns;
  result.detected.assign(faults.size(), false);
  result.first_detection.assign(faults.size(), FaultSimResult::kUndetected);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const Word stuck = faults[f].stuck_at ? static_cast<Word>(~Word{0}) : Word{0};
    const Program forced =
        build_forced(good_, {{faults[f].net, ~std::uint64_t{0},
                              static_cast<std::uint64_t>(stuck)}});
    KernelRunner<Word> runner(forced);
    for (std::size_t b = 0; b < batches && !result.detected[f]; ++b) {
      runner.run(std::span<const Word>(inputs.data() + b * pis, pis));
      Word diff = 0;
      for (std::size_t o = 0; o < pos.size(); ++o) {
        diff |= runner.word(good_.net_var[pos[o].value]) ^ good_po[b * pos.size() + o];
      }
      if (diff) {
        result.detected[f] = true;  // fault dropped
        const auto lane = static_cast<std::size_t>(std::countr_zero(diff));
        result.first_detection[f] = std::min(b * L + lane, patterns - 1);
      }
    }
  }
  return result;
}

template <class Word>
FaultSimResult FaultSimulator<Word>::run_pfsp(std::span<const Fault> faults,
                                              std::size_t patterns,
                                              std::uint64_t seed) {
  constexpr std::size_t L = sizeof(Word) * 8;
  const std::size_t pis = nl_.primary_inputs().size();
  const std::vector<Bit> m = detail::fault_patterns(patterns, pis, seed);
  const auto& pos = nl_.primary_outputs();

  FaultSimResult result;
  result.patterns = patterns;
  result.detected.assign(faults.size(), false);
  result.first_detection.assign(faults.size(), FaultSimResult::kUndetected);

  std::vector<Word> in(pis);
  for (std::size_t base = 0; base < faults.size(); base += L - 1) {
    const std::size_t batch = std::min(L - 1, faults.size() - base);
    std::vector<Forcing> forcings;
    forcings.reserve(batch);
    for (std::size_t j = 0; j < batch; ++j) {
      // Lane 0 is the good machine; fault j rides lane j+1.
      const std::uint64_t mask = std::uint64_t{1} << (j + 1);
      forcings.push_back({faults[base + j].net,
                          mask, faults[base + j].stuck_at ? mask : 0});
    }
    const Program forced = build_forced(good_, std::move(forcings));
    KernelRunner<Word> runner(forced);
    std::size_t remaining = batch;
    for (std::size_t k = 0; k < patterns && remaining; ++k) {
      for (std::size_t i = 0; i < pis; ++i) {
        // Same pattern in every lane.
        in[i] = static_cast<Word>(Word{0} - static_cast<Word>(m[k * pis + i] & 1u));
      }
      runner.run(in);
      Word diff = 0;
      for (std::size_t o = 0; o < pos.size(); ++o) {
        const Word w = runner.word(good_.net_var[pos[o].value]);
        const Word good_lane = static_cast<Word>(Word{0} - (w & Word{1}));
        diff |= w ^ good_lane;
      }
      for (std::size_t j = 0; j < batch; ++j) {
        if (!result.detected[base + j] && ((diff >> (j + 1)) & Word{1})) {
          result.detected[base + j] = true;
          result.first_detection[base + j] = k;
          --remaining;
        }
      }
    }
  }
  return result;
}

FaultSimResult run_serial_fault_sim(const Netlist& nl, std::span<const Fault> faults,
                                    std::size_t patterns, std::uint64_t seed) {
  const std::size_t pis = nl.primary_inputs().size();
  const std::vector<Bit> m = detail::fault_patterns(patterns, pis, seed);
  const auto& pos = nl.primary_outputs();

  // Good responses.
  LccSim<> good(nl);
  std::vector<Bit> good_po(patterns * pos.size());
  for (std::size_t k = 0; k < patterns; ++k) {
    good.step(std::span<const Bit>(m.data() + k * pis, pis));
    for (std::size_t o = 0; o < pos.size(); ++o) {
      good_po[k * pos.size() + o] = good.value(pos[o]);
    }
  }

  FaultSimResult result;
  result.patterns = patterns;
  result.detected.assign(faults.size(), false);
  result.first_detection.assign(faults.size(), FaultSimResult::kUndetected);
  std::vector<Bit> v(pis);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const Fault& fault = faults[f];
    if (nl.net(fault.net).is_primary_input) {
      // A stuck input is the same circuit with that pattern bit forced.
      std::size_t pi_index = 0;
      for (; pi_index < pis; ++pi_index) {
        if (nl.primary_inputs()[pi_index] == fault.net) break;
      }
      LccSim<> sim(nl);
      for (std::size_t k = 0; k < patterns && !result.detected[f]; ++k) {
        std::copy_n(m.data() + k * pis, pis, v.data());
        v[pi_index] = fault.stuck_at;
        sim.step(v);
        for (std::size_t o = 0; o < pos.size(); ++o) {
          if (sim.value(pos[o]) != good_po[k * pos.size() + o]) {
            result.detected[f] = true;
            result.first_detection[f] = k;
            break;
          }
        }
      }
      continue;
    }
    const Netlist faulty = inject_stuck_at(nl, fault.net, fault.stuck_at);
    LccSim<> sim(faulty);
    for (std::size_t k = 0; k < patterns && !result.detected[f]; ++k) {
      sim.step(std::span<const Bit>(m.data() + k * pis, pis));
      for (std::size_t o = 0; o < pos.size(); ++o) {
        if (sim.value(faulty.primary_outputs()[o]) != good_po[k * pos.size() + o]) {
          result.detected[f] = true;
          result.first_detection[f] = k;
          break;
        }
      }
    }
  }
  return result;
}

std::vector<std::size_t> compact_patterns(const FaultSimResult& result) {
  std::vector<std::size_t> kept(result.first_detection.begin(),
                                result.first_detection.end());
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  if (!kept.empty() && kept.back() == FaultSimResult::kUndetected) {
    kept.pop_back();
  }
  return kept;
}

template class FaultSimulator<std::uint32_t>;
template class FaultSimulator<std::uint64_t>;

}  // namespace udsim
