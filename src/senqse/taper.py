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

import itertools
import operator

import numpy as np

from senqse.pauli import DROP_TOL, CliffordMap, PauliArrays


class TaperError(ValueError):
    """Violated seniority-structure contract."""


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


# <v| sigma(x, z) |w> for x = v XOR w is i^|x & z| (-1)^|z & w|, entry
# [|z & w| mod 2, |x & z| mod 4]: Python's (1j) ** k and its negation
_LEFT_FACTORS = np.array([[(1j) ** k for k in range(4)], [-((1j) ** k) for k in range(4)]])


class SectorHamiltonian:
    """A 2*n_orb-qubit operator conjugated once and indexed by sector pair.

    After tapering, a term reaches the (bra, ket) seniority pair only when
    the X part x_left of its seniority register equals bra XOR ket (the
    symmetry-induced zero pattern).  The words of ``hq`` are conjugated in
    one ``conjugate_words`` call and sorted stably by x_left, so a bucket
    is a slice, in ``hq`` order, of whole-table arrays: z_left, c times the
    conjugation sign, |x_left & z_left| mod 4, and the index of the term's
    remainder key (x_right, z_right) among its bucket's distinct keys, kept
    in order of first appearance.  ``op`` weights a bucket's terms by
    i^|x_left & z_left| (-1)^|z_left & ket| from an eight-entry table, sums
    each key's terms from +0 in bucket order (``np.add.at``), drops sums
    below DROP_TOL (``hypot`` is Python's complex ``abs``) and memoises the
    ``PauliArrays`` per pair: bit for bit the terms of adding each
    conjugated, weighted term into a dict by key and dropping the small
    sums.
    """

    def __init__(self, hq: PauliArrays):
        if hq.n_qubits % 2 or hq.n_qubits > 64:
            raise TaperError(
                f"operator on {hq.n_qubits} qubits is not a 2*n_orb register "
                "of at most 64 qubits"
            )
        n_orb = hq.n_qubits // 2
        self.n_orb = n_orb
        mask = (1 << n_orb) - 1
        x, z, sign = build_clifford(n_orb).conjugate_words(hq.keys[:, 0], hq.keys[:, 1])
        # a stable sort in Python: NumPy's stable argsort of uint64 would
        # fault in about 128 KB of library code that nothing else runs
        order = sorted(range(len(x)), key=(x & mask).tolist().__getitem__)
        x, z = x[order], z[order]
        self._z_left = z & mask
        self._coeffs = (hq.coeffs * np.where(sign, -1 + 0j, 1 + 0j))[order]
        self._quarter = np.bitwise_count(x & self._z_left) & np.uint64(3)
        self._buckets: dict[int, tuple] = {}
        key_index, distinct = [], []
        rights = zip((x >> n_orb).tolist(), (z >> n_orb).tolist())
        terms = zip((x & mask).tolist(), rights)
        for x_left, run in itertools.groupby(terms, key=operator.itemgetter(0)):
            start, first = len(key_index), {}
            for _, key in run:
                key_index.append(first.setdefault(key, len(first)))
            distinct.extend(first)
            bucket = (start, len(key_index), len(distinct) - len(first), len(distinct))
            self._buckets[x_left] = bucket
        self._key_index = np.array(key_index, dtype=np.intp)
        self._keys = np.array(distinct, dtype=np.uint64).reshape(-1, 2)
        self._ops: dict[tuple[int, int], PauliArrays] = {}

    def op(self, bra_bits: int, ket_bits: int) -> PauliArrays:
        """Effective operator of the (bra, ket) config pair, given as bit masks."""
        key = (bra_bits, ket_bits)
        if key not in self._ops:
            for bits in key:
                if not 0 <= bits < 1 << self.n_orb:
                    raise TaperError(f"config bits {bits} outside n_orb={self.n_orb}")
            lo, hi, first, last = self._buckets.get(bra_bits ^ ket_bits, (0, 0, 0, 0))
            odd = np.bitwise_count(self._z_left[lo:hi] & np.uint64(ket_bits)) & np.uint64(1)
            terms = self._coeffs[lo:hi] * _LEFT_FACTORS[odd, self._quarter[lo:hi]]
            sums = np.zeros(last - first, dtype=complex)
            np.add.at(sums, self._key_index[lo:hi], terms)
            kept = np.hypot(sums.real, sums.imag) >= DROP_TOL
            self._ops[key] = PauliArrays(self.n_orb, self._keys[first:last][kept], sums[kept])
        return self._ops[key]


def effective_hamiltonian(hq: PauliArrays, bra_bits: int, ket_bits: int) -> PauliArrays:
    """Project a 2*n_orb-qubit operator onto one (bra, ket) seniority pair.

    A one-pair ``SectorHamiltonian``: terms are conjugated by the tapering
    Clifford, weighted by the bra-ket factor of their left part and
    accumulated on their right part; right-part collisions merge.  The
    configs are bit masks (bit i set iff orbital i is singly occupied).
    Returns the n_orb-qubit effective operator.
    """
    return SectorHamiltonian(hq).op(bra_bits, ket_bits)


def index_groups(keys) -> dict:
    """{key: the indices of ``keys`` that hold it}, in first-seen order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def block_rows(bra_bits: int, bras, configs, kets, block) -> np.ndarray:
    """<bras|H|kets> for bras of config ``bra_bits`` and kets of configs ``configs``,
    one ``block(bra_bits, ket_bits, bras, kets)`` per ket config."""
    out = np.zeros((len(bras), len(kets)))
    for ket_bits, cols in index_groups(configs).items():
        out[:, cols] = block(bra_bits, ket_bits, bras, [kets[j] for j in cols])
    return out


def symmetric_matrix(configs, states, block) -> np.ndarray:
    """The real symmetric matrix of ``states``, of configs ``configs``: the
    bras of each config take ``block_rows`` against the kets from their
    first on, so entry (i, j), i <= j, is bra i against ket j."""
    h = np.zeros((len(states), len(states)))
    for bits, rows in index_groups(configs).items():
        bras, lo = [states[i] for i in rows], rows[0]
        h[rows, lo:] = block_rows(bits, bras, configs[lo:], states[lo:], block)
    idx = np.arange(len(states))
    return np.where(idx[:, None] <= idx, h, h.T)
