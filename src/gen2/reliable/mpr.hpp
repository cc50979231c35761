// Multi-packet-reception (MPR) capable readers and their optimal Q.
//
// Pudasaini et al., "Optimum Tag Reading Efficiency of Multi-Packet
// Reception Capable RFID Readers": a reader that can separate up to M
// simultaneous backscatter replies turns collided slots into (partial)
// successes, and the frame size that maximizes tag throughput is no longer
// L = N (the classic slotted-ALOHA result for M = 1) but L = N / lambda*(M)
// where lambda*(M) is the per-slot offered load maximizing the expected
// number of decoded replies per slot
//
//     T(lambda, M) = sum_{k=1..M} k * e^{-lambda} lambda^k / k!
//
// under the Poisson approximation of slot occupancy. lambda*(1) = 1
// recovers Q* = log2(N); lambda*(2) is the golden ratio (1+sqrt(5))/2 —
// the root of 1 + lambda - lambda^2 — and lambda* grows roughly linearly
// in M, so an MPR reader should start its inventory with a SMALLER Q than
// a conventional one for the same population. The engine side of MPR (the
// per-slot multi-decode) lives in gen2::InventoryEngine behind
// InventoryConfig::mpr_capacity; this module adds the planning math (set
// InventoryConfig::q.initial_q from optimal_q to apply it).
#pragma once

#include <cstddef>

namespace rfidsim::gen2::reliable {

/// Expected decoded replies per slot at offered load `lambda` for a reader
/// that separates up to `m` simultaneous replies (Poisson slot occupancy).
/// The m -> infinity limit is lambda itself.
double expected_decodes_per_slot(double lambda, int m);

/// The load lambda*(m) maximizing expected_decodes_per_slot. Deterministic
/// closed-form evaluation: the optimum is the unique positive root of
/// d T / d lambda = 0, bracketed in [1, m + 1] and bisected to 1e-12 —
/// pure arithmetic, no RNG, identical on every platform. lambda*(1) == 1
/// exactly; lambda*(2) == (1 + sqrt(5)) / 2.
double optimal_slot_load(int m);

/// The optimal initial Q for inventorying an (estimated) population of
/// `population` tags with an MPR-m reader: round(log2(population /
/// lambda*(m))), clamped to [min_q, max_q]. The m = 1 case is the
/// textbook Q* = round(log2(N)).
int optimal_q(std::size_t population, int m, int min_q = 0, int max_q = 15);

/// Q-offset an MPR-m reader should apply relative to a conventional
/// reader's Q* = log2(N): the (negative) closed-form log2(lambda*(1)) -
/// log2(lambda*(m)) = -log2(lambda*(m)). Exposed separately because the
/// ablation reports it against the simulated optimum.
double optimal_q_offset(int m);

}  // namespace rfidsim::gen2::reliable
