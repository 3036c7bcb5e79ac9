"""Seniority symmetries, the tapering Clifford, and effective Hamiltonians.

Each spatial orbital i carries the Pauli symmetry S_i = Z_2i Z_2i+1 whose
eigenvalue fixes whether the orbital holds an unpaired electron.  The
tapering Clifford maps S_i to Z_i, after which any seniority eigenstate
factors as |v> (x) |phi> with the orbital seniorities v stored on the first
n_orb qubits and an n_orb-qubit remainder state.  Matrix elements of a
2*n_orb-qubit operator between seniority eigenstates then reduce to matrix
elements of an n_orb-qubit effective operator, built here by bit logic.

Register layout after tapering: qubit i (low half) holds v_i, qubit
n_orb + i (high half) holds the down-spin occupation of orbital i, so a
doubly occupied orbital shows as |1> on its tapered qubit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from senqse.pauli import CliffordMap, PauliProduct, PauliSum
from senqse.simulator import StateVector, apply_clifford

PRODUCT_TOL = 1e-10


class TaperError(ValueError):
    """Violated seniority-structure contract."""


@dataclass(frozen=True)
class SeniorityConfig:
    """Orbital seniorities: v[i] = 1 iff orbital i holds an unpaired electron.

    The state-level checks (``taper_check``, ``untaper_state``) use this
    type; the element path carries a config as its bit mask alone
    (``csfbasis.config_bits``, ``SectorHamiltonian.op``).  ``bits`` packs
    v into an integer (bit i is v[i]) once, on construction; equality and
    hashing depend on v alone.
    """

    v: tuple
    bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.v):
            raise TaperError(f"seniority entries must be 0/1, got {self.v}")
        object.__setattr__(self, "v", tuple(int(b) for b in self.v))
        object.__setattr__(self, "bits", sum(b << i for i, b in enumerate(self.v)))

    @classmethod
    def from_bits(cls, bits: int, n_orb: int) -> "SeniorityConfig":
        return cls(tuple((bits >> i) & 1 for i in range(n_orb)))

    @property
    def n_orb(self) -> int:
        return len(self.v)


def seniority_symmetries(n_orb: int) -> list[PauliProduct]:
    """[Z0 Z1, Z2 Z3, ...] on 2*n_orb qubits."""
    if n_orb < 1:
        raise TaperError("n_orb must be >= 1")
    nq = 2 * n_orb
    return [
        PauliProduct(nq, 0, (1 << (2 * i)) | (1 << (2 * i + 1))) for i in range(n_orb)
    ]


def build_clifford(n_orb: int) -> CliffordMap:
    """CNOT(2i+1 -> 2i) per orbital, then even qubits shuffled to the front.

    Conjugation maps S_i = Z_2i Z_2i+1 to Z_i with phase +1, and every
    Z_2i+1 to a Z supported on the last n_orb qubits.
    """
    if n_orb < 1:
        raise TaperError("n_orb must be >= 1")
    gates = [("cnot", 2 * i + 1, 2 * i) for i in range(n_orb)]
    perm = [0] * (2 * n_orb)
    for i in range(n_orb):
        perm[2 * i] = i
        perm[2 * i + 1] = n_orb + i
    gates.append(("perm", tuple(perm)))
    return CliffordMap(2 * n_orb, tuple(gates))


def left_factor_element(x_left: int, z_left: int, bra_bits: int, ket_bits: int):
    """<v| P |w> for a phase-free product on the seniority register.

    Nonzero iff x equals v XOR w; the value i^{y_count} (-1)^{popcount(z&w)}
    is one of {+-1, +-i}.
    """
    if x_left != bra_bits ^ ket_bits:
        return 0.0
    val = (1j) ** ((x_left & z_left).bit_count() % 4)
    if (z_left & ket_bits).bit_count() % 2:
        val = -val
    return val


class SectorHamiltonian:
    """A 2*n_orb-qubit operator conjugated once and indexed by sector pair.

    After tapering, a term reaches the (bra, ket) seniority pair only when
    the X part of its seniority register equals bra XOR ket (the
    symmetry-induced zero pattern).  Each term of ``hq`` is conjugated by
    the tapering Clifford once and kept, in ``hq`` order, in the bucket of
    that X part as (z_left, x_right, z_right, c * phase).  ``op`` reads one
    bucket, weights each term by its closed-form bra-ket factor and
    memoises the n_orb-qubit effective operator per pair.
    """

    def __init__(self, hq: PauliSum, uc: CliffordMap | None = None):
        if hq.n_qubits % 2:
            raise TaperError(
                f"operator on {hq.n_qubits} qubits is not a 2*n_orb register"
            )
        n_orb = hq.n_qubits // 2
        if uc is None:
            uc = build_clifford(n_orb)
        self.n_orb = n_orb
        mask = (1 << n_orb) - 1
        self._buckets: dict[int, list] = {}
        for (x, z), c in hq.items():
            p = uc.conjugate(PauliProduct(2 * n_orb, x, z))
            self._buckets.setdefault(p.x_bits & mask, []).append(
                (p.z_bits & mask, p.x_bits >> n_orb, p.z_bits >> n_orb, c * p.phase)
            )
        self._ops: dict[tuple[int, int], PauliSum] = {}

    def op(self, bra_bits: int, ket_bits: int) -> PauliSum:
        """Effective operator of the (bra, ket) config pair, given as bit masks."""
        key = (bra_bits, ket_bits)
        if key not in self._ops:
            for bits in key:
                if not 0 <= bits < 1 << self.n_orb:
                    raise TaperError(f"config bits {bits} outside n_orb={self.n_orb}")
            x_left = bra_bits ^ ket_bits
            out = PauliSum(self.n_orb)
            for z_left, x_right, z_right, coeff in self._buckets.get(x_left, ()):
                factor = left_factor_element(x_left, z_left, bra_bits, ket_bits)
                out.add_term(x_right, z_right, coeff * factor)
            self._ops[key] = out.simplify()
        return self._ops[key]


def effective_hamiltonian(
    hq: PauliSum,
    bra: SeniorityConfig,
    ket: SeniorityConfig,
    uc: CliffordMap,
) -> PauliSum:
    """Project a 2*n_orb-qubit operator onto one (bra, ket) seniority pair.

    A one-pair ``SectorHamiltonian``: terms are conjugated by the tapering
    Clifford, weighted by the bra-ket factor of their left part and
    accumulated on their right part; right-part collisions merge.  Returns
    the n_orb-qubit effective operator.
    """
    if bra.n_orb != ket.n_orb:
        raise TaperError("config length mismatch")
    if hq.n_qubits != 2 * bra.n_orb:
        raise TaperError(
            f"operator on {hq.n_qubits} qubits does not match n_orb={bra.n_orb}"
        )
    return SectorHamiltonian(hq, uc).op(bra.bits, ket.bits)


def taper_check(full_state: StateVector, uc: CliffordMap):
    """Split U_c|phi> into (seniority config, n_orb-qubit remainder state).

    Raises TaperError when the rotated state is not an exact product of a
    computational seniority register and a remainder factor.
    """
    if full_state.n_qubits != uc.n_qubits or full_state.n_qubits % 2 != 0:
        raise TaperError("state must live on the full 2*n_orb register")
    n_orb = full_state.n_qubits // 2
    rotated = apply_clifford(full_state, uc)
    # index = (remainder bits << n_orb) | seniority bits
    table = rotated.amplitudes.reshape(2**n_orb, 2**n_orb)
    col_norms = np.linalg.norm(table, axis=0)
    v_index = int(np.argmax(col_norms))
    residual = np.sqrt(max(np.sum(col_norms**2) - col_norms[v_index] ** 2, 0.0))
    if residual > PRODUCT_TOL:
        raise TaperError(
            f"not a seniority eigenstate: cross-sector weight {residual:.3e}"
        )
    config = SeniorityConfig.from_bits(v_index, n_orb)
    column = table[:, v_index]
    column = column / np.linalg.norm(column)
    return config, StateVector(column, n_orb)


def untaper_state(config: SeniorityConfig, state: StateVector, uc: CliffordMap):
    """Inverse of taper_check: rebuild the full 2*n_orb-qubit state."""
    n_orb = config.n_orb
    if state.n_qubits != n_orb:
        raise TaperError("remainder state must act on n_orb qubits")
    full = np.zeros(2 ** (2 * n_orb), dtype=complex)
    base = config.bits
    idx = (np.arange(2**n_orb) << n_orb) | base
    full[idx] = state.amplitudes
    return apply_clifford(StateVector(full, 2 * n_orb), uc.inverse())
