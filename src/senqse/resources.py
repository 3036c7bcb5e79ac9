"""Analytic circuit-resource estimates for swap-test state preparation.

Closed-form CNOT and depth counts per circuit component: controlled CSF
preparation (a base of N_e/2 plus a fixed increment per CSF family), two
CNOTs and depth five per pair rotation, and a CSWAP network of 7*N_orb
CNOTs at depth 12*N_orb.  Depth composes additively across the serial
components, so totals are upper bounds rather than scheduled depths.
"""

from __future__ import annotations

from dataclasses import dataclass

from senqse.csfbasis import BasisState, CsfKind

# (extra CNOTs, extra depth) on top of the N_e/2 base, per CSF family
_PREP_INCREMENT = {
    CsfKind.HF: (0, 0),
    CsfKind.SINGLE_SINGLET: (3, 5),
    CsfKind.DOUBLE_SINGLET: (6, 8),
    CsfKind.TRIPLET_PAIR_SINGLET: (8, 9),
}

ROTATION_CNOTS = 2
ROTATION_DEPTH = 5
CSWAP_CNOTS_PER_ORBITAL = 7
CSWAP_DEPTH_PER_ORBITAL = 12


@dataclass(frozen=True)
class ResourceEstimate:
    breakdown: dict  # component -> (cnots, depth)

    @property
    def cnots(self) -> int:
        return sum(c for c, _ in self.breakdown.values())

    @property
    def depth(self) -> int:
        return sum(d for _, d in self.breakdown.values())


def controlled_prep_cost(kind: CsfKind, n_elec: int, omega: int) -> tuple:
    base = n_elec // 2
    # a degenerate-index double carries a single open-shell pair, so its
    # preparation circuit is the two-unpaired-electron one
    if kind is CsfKind.DOUBLE_SINGLET and omega == 2:
        kind = CsfKind.SINGLE_SINGLET
    inc_c, inc_d = _PREP_INCREMENT[kind]
    return (base + inc_c, base + inc_d)


def estimate_pair(
    bra: BasisState, ket: BasisState, n_orb: int, n_elec: int
) -> ResourceEstimate:
    """Cost of preparing the swap-test state for one matrix element."""
    n_rot = len(bra.rotations) + len(ket.rotations)
    breakdown = {
        "bra_prep": controlled_prep_cost(bra.csf.kind, n_elec, bra.csf.omega),
        "ket_prep": controlled_prep_cost(ket.csf.kind, n_elec, ket.csf.omega),
        "pair_rotations": (ROTATION_CNOTS * n_rot, ROTATION_DEPTH * n_rot),
        "cswap_network": (
            CSWAP_CNOTS_PER_ORBITAL * n_orb,
            CSWAP_DEPTH_PER_ORBITAL * n_orb,
        ),
    }
    return ResourceEstimate(breakdown)
