"""Seniority symmetries, the tapering Clifford, and effective Hamiltonians.

Each spatial orbital i carries the Pauli symmetry S_i = Z_2i Z_2i+1 whose
eigenvalue fixes whether the orbital holds an unpaired electron.  The
tapering Clifford maps S_i to Z_i, after which any seniority eigenstate
factors as |v> (x) |phi> with the orbital seniorities v stored on the first
n_orb qubits and an n_orb-qubit remainder state.  Matrix elements of a
2*n_orb-qubit operator between seniority eigenstates then reduce to matrix
elements of an n_orb-qubit effective operator, built here by bit logic;
exact matrices of many such states come from one pass of the tapered
operator over their joint support (``SupportOperator``, which also builds
the FCI oracle's sector matrix and the slot models' dense effective
operators).

Register layout after tapering: qubit i (low half) holds v_i, qubit
n_orb + i (high half) holds the down-spin occupation of orbital i, so a
doubly occupied orbital shows as |1> on its tapered qubit.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from senqse.pauli import DROP_TOL, PauliArrays
from senqse.simulator import SimulatorError, _factors


class TaperError(ValueError):
    """Violated seniority-structure contract."""


_EVEN = 0x5555555555555555
# (shift, mask) steps that move bit 2i of a 64-bit word with clear odd bits to bit i
_GATHER = (
    (1, 0x3333333333333333),
    (2, 0x0F0F0F0F0F0F0F0F),
    (4, 0x00FF00FF00FF00FF),
    (8, 0x0000FFFF0000FFFF),
    (16, 0x00000000FFFFFFFF),
)


def _gather_even(w):
    """The even bits of w packed into its low half: bit 2i moves to bit i."""
    w = w & _EVEN
    for shift, mask in _GATHER:
        w = (w | w >> shift) & mask
    return w


def taper_words(x, z, n_orb: int):
    """The tapering Clifford U on sigma(x, z): U sigma U^dagger = (-1)^s sigma(x', z').

    U is CNOT(2i+1 -> 2i) on each orbital, then the shuffle that moves
    qubit 2i to i and qubit 2i+1 to n_orb + i, so S_i = Z_2i Z_2i+1 goes
    to Z_i with phase +1 and Z_2i+1 to a Z in the high half (Bravyi et al.
    2017, arXiv:1701.08213).  The CNOTs copy the odd X bits onto the even
    ones and the even Z bits onto the odd ones; s is the parity of
    x_c z_t (x_t XOR z_c XOR 1) over the pairs (Aaronson and Gottesman
    2004, PRA 70, 052328).  ``x`` and ``z`` are Python ints or uint64
    arrays of words on 2*n_orb <= 64 qubits; returns (x', z', s), s 0 or
    1 per word.
    """
    # each pair's sign bit at its even position, then their parity in bit 0
    flips = (x >> 1) & z & (x ^ (z >> 1) ^ _EVEN) & _EVEN
    for shift in (32, 16, 8, 4, 2):
        flips = flips ^ flips >> shift
    x = x ^ (x >> 1) & _EVEN
    z = z ^ (z << 1) & (_EVEN << 1)
    return (
        _gather_even(x) | _gather_even(x >> 1) << n_orb,
        _gather_even(z) | _gather_even(z >> 1) << n_orb,
        flips & 1,
    )


def real_support(amps: np.ndarray, bits: int = 0, shift: int = 0):
    """(indices, values) of a real state's nonzero amplitudes: amplitude k
    sits at register index bits | k << shift (uint64), its value a float.
    An amplitude with an imaginary part is a SimulatorError."""
    support = np.flatnonzero(amps)
    values = amps[support]
    if np.any(values.imag):
        raise SimulatorError("state has an imaginary amplitude")
    return support.astype(np.uint64) << np.uint64(shift) | np.uint64(bits), values.real


# table lookups per chunk and term-entry pairs per block of a
# SupportOperator pass: a few 32 KiB arrays alive at once, from the heap's
# free lists, far below the 256 KiB at which NumPy's temporary elision
# walks the C stack (and loads the unwinder)
_PAIR_BITS = 12
_PAIRS = 1 << _PAIR_BITS
# largest summed |imaginary part| of one X string's terms that link two indices
IMAG_TOL = 1e-10


class SupportOperator:
    """A real Pauli sum on a sorted set of basis indices: the program's one
    assembly of such a sum.

    The terms are sorted stably by X string, so each X string's terms are
    a run in ``op`` order with one real factor Re(c i^|x & z|) each.
    ``entries`` finds the entries (i, j) of the sorted indices U that each
    X string links, U[i] = U[j] ^ x, in chunks of X strings, through a
    two-level table (the low n_qubits // 2 bits of an index, then the
    rest, one more on an odd register), so no search runs.  An entry sums
    its run's signed factors (-1)^|z & U[j]| from +0 in ``op`` order
    (``np.bincount``); a run whose factors' imaginary parts sum in
    magnitude above IMAG_TOL is refused where it links two indices of U.
    x is its own inverse, so a chunk also holds each entry's mirror (j, i),
    which sums the same terms; for a Hermitian op with the same signs (a
    term with odd |x & z| has a factor of real part 0), so its matrix is
    symmetric bit for bit, and a non-Hermitian op's need not be.
    ``matrix`` takes states as ``real_support`` pairs and returns
    S_bra op_U S_ket^T, op_U the ``dense`` op on the union U of their
    indices and S the states' values on U (Knowles and Handy 1984, Chem.
    Phys. Lett. 111, 315, build the CI matrix from the determinants the
    states hold in the same way).  A pass keeps the table, one row of
    int32 slots per distinct low half in U and an empty row; each of its
    scratch arrays holds at most about ``_PAIRS`` entries (one X string's
    on a larger U).
    """

    def __init__(self, op: PauliArrays):
        self.n_qubits, self.half = op.n_qubits, op.n_qubits // 2
        x = op.keys[:, 0]
        order = np.argsort(x.view(np.int64), kind="stable")
        x, factors = x[order], _factors(op.keys, op.coeffs)[order]
        self._z, self._f = op.keys[order, 1], np.ascontiguousarray(factors.real)
        new = np.append(True, x[1:] != x[:-1])
        first = np.flatnonzero(new)
        self._starts, self._counts = first, np.diff(np.append(first, len(x)))
        # each run's summed |imaginary part|, at least its largest one
        self._imag = np.bincount(np.cumsum(new) - 1, np.abs(factors.imag), len(first))
        self._x_low = (x[first] & np.uint64((1 << self.half) - 1)).view(np.int64)
        self._x_high = (x[first] >> np.uint64(self.half)).view(np.int64)

    def entries(self, support: np.ndarray):
        """(rows, cols, values) of the linked entries on the sorted indices
        ``support``, one chunk of X strings at a time, by increasing X
        string, then column: value k is <support[rows[k]]|op|support[cols[k]]>."""
        high_bits = self.n_qubits - self.half
        # int64 words like the table's offsets: NumPy has no int64 | uint64
        low = support.view(np.int64) & (1 << self.half) - 1
        high = support.view(np.int64) >> self.half
        lows = sorted(set(low.tolist()))
        # the table: row r << high_bits of a low half in U, the last row
        # (every other low half) empty, then the high half's slot in U
        base = np.full(1 << self.half, len(lows) << high_bits)
        base[lows] = np.arange(len(lows)) << high_bits
        slot = np.full((len(lows) + 1) << high_bits, -1, dtype=np.int32)
        slot[base[low] | high] = np.arange(len(support))
        step = max(1, _PAIRS // len(support))
        for a in range(0, len(self._starts), step):
            index = base[low ^ self._x_low[a : a + step, None]]
            index |= high ^ self._x_high[a : a + step, None]
            row = slot[index]
            del index
            linked = row >= 0
            run, col = np.nonzero(linked)
            if len(run):
                run += a
                row = row[linked]
                yield row, col, self._sums(run, support[col])

    def _sums(self, run, kets):
        """Entry k's value: the factors of X string run[k], signed at
        index kets[k] and summed from +0 in ``op`` order, in blocks of
        about ``_PAIRS`` term-entry pairs."""
        imag = np.max(self._imag[run], initial=0.0)
        if imag > IMAG_TOL:
            raise SimulatorError(f"terms with imaginary part {imag} reach the support")
        counts = self._counts[run]
        ends = np.cumsum(counts)
        values = np.empty(len(run))
        # a shift, not //: some workloads run no integer division at all
        cuts = np.flatnonzero(np.diff(ends >> _PAIR_BITS)) + 1
        for e0, e1 in itertools.pairwise([0, *cuts.tolist(), len(run)]):
            block = slice(e0, e1)
            values[block] = self._block(run[block], kets[block], counts[block], ends[block])
        return values

    def _block(self, run, kets, counts, ends):
        """``_sums`` of a block of entries with term counts ``counts`` and
        running ends ``ends``; at most three arrays of pairs live at once."""
        # pair p of entry k reads term starts[run[k]] + p - (its first pair)
        term = np.repeat(self._starts[run] - ends + counts, counts)
        term += np.arange(ends[0] - counts[0], ends[-1])
        odd = np.repeat(kets, counts)
        odd &= self._z[term]
        terms = self._f[term]
        del term
        np.negative(terms, out=terms, where=np.bitwise_count(odd) & 1 == 1)
        del odd
        return np.bincount(np.repeat(np.arange(len(run)), counts), terms, minlength=len(run))

    def dense(self, support: np.ndarray) -> np.ndarray:
        """The operator on the sorted indices ``support``, as a dense array."""
        out = np.zeros((len(support), len(support)))
        for rows, cols, values in self.entries(support):
            out[rows, cols] = values
        return out

    def _pass(self, states):
        """op on the joint support U of ``states``, and the column of U
        that each nonzero of each state sits in."""
        index = np.concatenate([index for index, _ in states])
        order = np.argsort(index.view(np.int64), kind="stable")
        new = np.append(True, index[order][1:] != index[order][:-1])
        cols = np.empty(len(index), dtype=np.intp)
        cols[order] = np.cumsum(new) - 1
        return self.dense(index[order][new]), cols

    def matrix(self, bras, kets=None) -> np.ndarray:
        """<bras|op|kets> of ``real_support`` states; with kets None, the
        symmetric matrix of bras, entry (i, j), i <= j, mirrored.

        Both products with S are sums from +0 in the order of the states'
        nonzeros (``np.bincount``): op_U S_ket^T first, then S_bra times
        it.  No BLAS product runs, so the bits do not depend on the thread
        count.
        """
        h_u, cols = self._pass(list(bras) if kets is None else [*bras, *kets])
        return _sandwich(h_u, cols, bras, kets)

    def border(self, bras, kets):
        """``matrix(bras, kets)`` and the bras' diagonal <b|op|b>, from one
        pass over the joint support.  Each diagonal entry reads only its
        own state's block of op_U, summed in ``matrix``'s order, so it has
        the bits of the diagonal of ``matrix(bras, bras)``."""
        h_u, cols = self._pass([*bras, *kets])
        lengths = np.array([len(index) for index, _ in bras])
        owner = np.repeat(np.arange(len(bras)), lengths)
        values = np.concatenate([values for _, values in bras])
        # nonzero j of a bra pairs with each nonzero k of the same bra, k in order
        n = lengths[owner]
        ends = np.cumsum(n)
        left = np.repeat(np.arange(len(values)), n)
        right = np.repeat(np.cumsum(lengths)[owner] - ends, n)
        right += np.arange(len(left))
        terms = h_u[cols[left], cols[right]]
        terms *= values[right]
        inner = np.bincount(left, terms, minlength=len(values))
        diagonal = np.bincount(owner, inner * values, minlength=len(bras))
        return _sandwich(h_u, cols, bras, kets), diagonal


def _sandwich(h_u, cols, bras, kets):
    """S_bra h_u S_ket^T, ``cols`` the column of U of each nonzero of the
    bras and then the kets; with kets None, of the bras with themselves."""
    if kets is None:
        h = _times(_times(h_u, bras, cols).T, bras, cols).T
        idx = np.arange(len(bras))
        return np.where(idx[:, None] <= idx, h, h.T)
    split = sum(len(index) for index, _ in bras)
    return _times(_times(h_u, kets, cols[split:]).T, bras, cols[:split]).T


def _times(left, group, cols):
    """left (rows x U) times the states' S^T, by summing columns, ``_PAIRS``
    products at a time; ``cols`` is the column of U of each nonzero."""
    owner = np.repeat(np.arange(len(group)), [len(index) for index, _ in group])
    values = np.concatenate([values for _, values in group])
    out = np.empty((len(left), len(group)))
    step = max(1, _PAIRS // len(cols))
    for r in range(0, len(left), step):
        terms = left[r : r + step, cols]
        terms *= values
        sums = np.arange(len(terms))[:, None] * len(group) + owner
        out[r : r + step] = np.bincount(
            sums.ravel(), terms.ravel(), minlength=out[r : r + step].size
        ).reshape(len(terms), len(group))
    return out


# <v| sigma(x, z) |w> for x = v XOR w is i^|x & z| (-1)^|z & w|, entry
# [|z & w| mod 2, |x & z| mod 4]: Python's (1j) ** k and its negation
_LEFT_FACTORS = np.array([[(1j) ** k for k in range(4)], [-((1j) ** k) for k in range(4)]])


def tapered_operator(hq: PauliArrays) -> PauliArrays:
    """H' = U hq U^dagger on the whole tapered register, terms in hq order."""
    x, z, sign = taper_words(hq.keys[:, 0], hq.keys[:, 1], hq.n_qubits // 2)
    coeffs = hq.coeffs * np.where(sign, -1 + 0j, 1 + 0j)
    return PauliArrays(hq.n_qubits, np.stack((x, z), axis=1), coeffs)


class SectorHamiltonian:
    """A 2*n_orb-qubit operator conjugated once and indexed by sector pair.

    After tapering, a term reaches the (bra, ket) seniority pair only when
    the X part x_left of its seniority register equals bra XOR ket (the
    symmetry-induced zero pattern).  The words of ``hq`` are conjugated in
    one ``taper_words`` call and sorted stably by x_left, so a bucket
    is a slice, in ``hq`` order, of whole-table arrays: z_left, c times the
    conjugation sign, |x_left & z_left| mod 4, and the index of the term's
    remainder key (x_right, z_right) among its bucket's distinct keys, kept
    in order of first appearance.  ``op`` weights a bucket's terms by
    i^|x_left & z_left| (-1)^|z_left & ket| from an eight-entry table, sums
    each key's terms from +0 in bucket order (``np.add.at``), drops sums
    below DROP_TOL (``hypot`` is Python's complex ``abs``) and memoises the
    ``PauliArrays`` per pair: bit for bit the terms of adding each
    conjugated, weighted term into a dict by key and dropping the small
    sums.  ``support`` is the same conjugated operator as a
    ``SupportOperator``, for exact matrices.
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
        tapered = tapered_operator(hq)
        x, z, coeffs = tapered.keys[:, 0], tapered.keys[:, 1], tapered.coeffs
        # a stable sort in Python: NumPy's stable argsort of uint64 would
        # fault in about 128 KB of library code that nothing else runs
        order = sorted(range(len(x)), key=(x & mask).tolist().__getitem__)
        x, z = x[order], z[order]
        self._z_left = z & mask
        self._coeffs = coeffs[order]
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
        self.support = SupportOperator(tapered)

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
