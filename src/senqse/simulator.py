"""Dense statevector engine for the tapered register plus one ancilla.

States are complex arrays of length 2**n with qubit q on bit q of the index
(little endian).  All values are frozen after construction and every
operation here is a pure function, so concurrent use needs no locking.

A Pauli sum acts on a state, or a stack of states, from the indices where
some state is nonzero: each term's contributions there are added into
k ^ x in term order, so every output amplitude has the bits of a
term-by-term loop over the whole register.

Shot sampling of a commuting fragment reads its independent generators,
as a measurement after a diagonalizing Clifford would: every term is a
signed product of generators, so one joint outcome of the generators fixes
the value of every term and of their weighted sum.  The outcome
distribution comes from projecting the state onto each generator's +-1
eigenspaces in turn, with no dense matrix and no eigensolve, and the
sample mean is an unbiased estimator of the fragment expectation value.
The branches are kept only on the orbit of the state's support under the
generators' X flips, where all their nonzero amplitudes lie, so the
distribution is bit-for-bit that of full-register branches.  The states
that measure one fragment are branched as one stack on the orbit of their
joint support: the elimination and the generator table are built once,
each state's rows hold exact zeros off its own orbit, and each state's
values and mean are taken from its own rows alone, so every state gets
the bits it would get by itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from senqse.pauli import (
    CliffordMap,
    PauliArrays,
    PauliProduct,
    PauliSum,
    anticommute,
    product_phase,
)

NORM_TOL = 1e-10


class SimulatorError(ValueError):
    """Dimension mismatch or contract violation in the statevector engine."""


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on n_qubits qubits."""

    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise SimulatorError(
                f"amplitude length {amps.shape} does not match {self.n_qubits} qubits"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise SimulatorError(f"state norm {norm} deviates from 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def computational(cls, index: int, n_qubits: int) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps, n_qubits)

    @classmethod
    def from_amplitudes(cls, amps, n_qubits: int, normalize: bool = False):
        amps = np.asarray(amps, dtype=complex)
        if normalize:
            amps = amps / np.linalg.norm(amps)
        return cls(amps, n_qubits)

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


# term contributions formed per block of apply_pauli_sum, and amplitudes
# per chunk of a stacked pass; bounds their scratch memory
BLOCK_AMPLITUDES = 2**16


def stack_chunks(items, amplitudes_each: int) -> list:
    """``items`` cut in order into chunks of at most
    BLOCK_AMPLITUDES // amplitudes_each items (at least one), one chunk per
    stacked pass, so that a pass holds about BLOCK_AMPLITUDES amplitudes."""
    step = max(1, BLOCK_AMPLITUDES // amplitudes_each)
    return [items[start : start + step] for start in range(0, len(items), step)]


# i^k for k = 0..3: P = i^|x & z| X^x Z^z
_QUARTER_TURNS = np.array([(1j) ** k for k in range(4)])


def _term_arrays(items):
    """The (x, z) keys of the terms ((x, z), c) of `items` as a (terms, 2)
    uint64 array, and their coefficients c as a complex array."""
    pairs = itertools.chain.from_iterable(key for key, _ in items)
    keys = np.fromiter(pairs, dtype=np.uint64, count=2 * len(items)).reshape(-1, 2)
    coeffs = np.fromiter((c for _, c in items), dtype=complex, count=len(items))
    return keys, coeffs


def _operator_arrays(op):
    """(keys, coefficients) of a ``PauliSum`` or ``PauliArrays``, in term order."""
    if isinstance(op, PauliArrays):
        return op.keys, op.coeffs
    return _term_arrays(op.items())


def _x_groups(op) -> dict:
    """{x: (keys, coefficients)} of the terms of ``op`` with X string x, each
    group in term order and the X strings in order of first appearance."""
    keys, coeffs = _operator_arrays(op)
    groups = {}
    for t, x in enumerate(keys[:, 0].tolist()):
        groups.setdefault(x, []).append(t)
    return {x: (keys[rows], coeffs[rows]) for x, rows in groups.items()}


def _factors(keys, coeffs) -> np.ndarray:
    """c_t i^|x_t & z_t| of each term; a product by a unit, so every bit is
    that of Python's ``c * (1j) ** k``."""
    return coeffs * _QUARTER_TURNS[np.bitwise_count(keys[:, 0] & keys[:, 1]) & np.uint64(3)]


def _coefficients(keys, factors, sources: np.ndarray) -> np.ndarray:
    """Row t: c_t i^|x_t & z_t| (-1)^|z_t & k| at each source k, the weight
    with which c_t P_t sends psi[k] to k ^ x_t (P|k> = i^|x&z| (-1)^|z&k| |k^x>)."""
    signs = np.bitwise_count(sources & keys[:, 1:]) & np.uint64(1)
    return factors[:, None] * (1.0 - 2.0 * signs.astype(float))


def _term_table(keys, coeffs, index: np.ndarray):
    """Gather indices src[t, j] = j ^ x_t of each output index j of `index`
    and coefficients with (c_t P_t psi)[j] = coef[t, j] * psi[src[t, j]]."""
    src = index ^ keys[:, :1]
    return src, _coefficients(keys, _factors(keys, coeffs), src)


def apply_pauli_sum(amps: np.ndarray, n_qubits: int, op) -> np.ndarray:
    """op |amps>, formed from the nonzero amplitudes only.

    ``op`` is a ``PauliSum`` or ``PauliArrays``, whose arrays are read as
    they are.  ``amps`` is one state or a stack of states along its leading
    axis.  At each index k where some state is nonzero, every block of
    terms forms coef * amp and adds it into k ^ x with ``np.add.at``, which
    applies repeated indices in order, so every output amplitude is summed
    from +0 in term order.  A left-out term would add a signed zero to a
    sum that is never -0, so the bits are those of the same sum over the
    whole register.  A block holds at most BLOCK_AMPLITUDES contributions
    (one term at least).
    """
    dim = 2**n_qubits
    if dim != amps.shape[-1]:
        raise SimulatorError("amplitude length mismatch")
    stack = amps.reshape(-1, dim)
    support = np.flatnonzero(stack.any(axis=0)).astype(np.uint64)
    values = stack[:, support][:, None, :]
    row_starts = (np.arange(len(stack), dtype=np.uint64) * np.uint64(dim))[:, None, None]
    keys, coeffs = _operator_arrays(op)
    factors = _factors(keys, coeffs)
    out = np.zeros(amps.shape, dtype=complex)
    step = max(1, BLOCK_AMPLITUDES // max(1, values.size))
    for start in range(0, len(keys), step):
        block = keys[start : start + step]
        coef = _coefficients(block, factors[start : start + step], support)
        targets = row_starts + (support ^ block[:, :1])
        np.add.at(out.reshape(-1), targets.ravel(), (coef * values).ravel())
    return out


def expectation(state: StateVector, op: PauliSum) -> complex:
    """Exact <psi|op|psi>; real to 1e-12 when op is Hermitian."""
    return matrix_element_exact(state, op, state)


def matrix_element_exact(bra: StateVector, op: PauliSum, ket: StateVector) -> complex:
    if not (bra.n_qubits == ket.n_qubits == op.n_qubits):
        raise SimulatorError("qubit count mismatch in matrix element")
    return complex(
        np.vdot(bra.amplitudes, apply_pauli_sum(ket.amplitudes, ket.n_qubits, op))
    )


def prepare_swap_state(a: StateVector, b: StateVector) -> StateVector:
    """(|0>|a> + |1>|b>)/sqrt(2) with the ancilla on the top (highest) qubit."""
    if a.n_qubits != b.n_qubits:
        raise SimulatorError("swap-state inputs must share a qubit count")
    amps = np.concatenate([a.amplitudes, b.amplitudes]) / np.sqrt(2.0)
    return StateVector(amps, a.n_qubits + 1)


def apply_clifford(state: StateVector, cmap: CliffordMap) -> StateVector:
    """Apply a CNOT/permutation Clifford to a statevector (no phases arise).

    Such a Clifford sends |k> to |f(k)>, where f acts on the index bits as
    conjugation acts on X words, so ``conjugate_words`` gives every f(k).
    """
    if cmap.n_qubits != state.n_qubits:
        raise SimulatorError("Clifford qubit count mismatch")
    idx = np.arange(2**state.n_qubits, dtype=np.uint64)
    targets, _, _ = cmap.conjugate_words(idx, np.zeros_like(idx))
    amps = np.empty_like(state.amplitudes)
    amps[targets] = state.amplitudes
    return StateVector(amps, state.n_qubits)


def dense_matrix(op) -> np.ndarray:
    """Dense matrix of a PauliSum or PauliArrays, accumulated term by term
    in order."""
    dim = 2**op.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    src, coef = _term_table(*_operator_arrays(op), np.arange(dim, dtype=np.uint64))
    for cols, values in zip(src, coef):
        out[rows, cols] += values
    return out


# ---------------------------------------------------------------------------
# Shot sampling
# ---------------------------------------------------------------------------


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator with a stream derived from (seed, *key)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(seed), *map(int, key)]))
    )


def _product_sign(gens: list, mask: int) -> float:
    """eta = +-1 of prod_{i in mask} g_i, the generators (x, z) taken in order.

    Each product adds the quarter turns of ``product_phase``; commuting
    Hermitian generators leave 0 or 2.
    """
    x = z = quarter = 0
    for i, (gx, gz) in enumerate(gens):
        if mask >> i & 1:
            quarter += product_phase(x, z, gx, gz)
            x, z = x ^ gx, z ^ gz
    return -1.0 if quarter % 4 else 1.0


def _generators(fragment: PauliSum):
    """GF(2) elimination of a commuting fragment's terms, walked in order.

    Returns (gens, masks, coeffs): each term independent of those before it
    (by elimination on its symplectic bits) becomes a generator (x, z);
    every term is eta_j prod_{i in S_j} g_i, with mask S_j and coefficient
    eta_j c_j.
    """
    n = fragment.n_qubits
    gens: list[tuple[int, int]] = []
    # echelon rows: (symplectic vector, its highest bit, generator mask)
    rows: list[tuple[int, int, int]] = []
    masks, coeffs = [], []
    for (x, z), c in fragment.items():
        vec, mask = x | (z << n), 0
        for row, pivot, combo in rows:
            if vec >> pivot & 1:
                vec ^= row
                mask ^= combo
        if vec:
            # every term is a signed product of generators, so the
            # generators commuting pairwise is the whole commutation check
            for gx, gz in gens:
                if anticommute(x, z, gx, gz):
                    raise SimulatorError(
                        f"fragment terms {PauliProduct(n, gx, gz).label()} and "
                        f"{PauliProduct(n, x, z).label()} do not commute"
                    )
            rows.append((vec, vec.bit_length() - 1, mask | 1 << len(gens)))
            mask, eta = 1 << len(gens), 1.0
            gens.append((x, z))
        else:
            eta = _product_sign(gens, mask)
        masks.append(mask)
        coeffs.append(eta * c.real)
    return gens, np.array(masks, dtype=np.int64), np.array(coeffs)


def _branch_stack(states, gens, masks, coeffs) -> list:
    """(probs, values, mean) of each state, from one branching pass.

    The branches of every state live on the orbit of the union of their
    supports, each row tagged with the state it came from, and are split
    on each generator together; one stable sort by (state, outcome) then
    hands each state its own rows in increasing outcome.
    """
    index = np.arange(2 ** states[0].n_qubits, dtype=np.uint64)
    inside = np.zeros(len(index), dtype=bool)
    for state in states:
        inside |= state.amplitudes != 0
    for x, _ in gens:
        inside |= inside[index ^ np.uint64(x)]
    orbit = index[inside]
    pos = np.zeros(len(index), dtype=np.intp)
    pos[orbit] = np.arange(len(orbit))
    src, coef = _term_table(*_term_arrays([(g, 1.0) for g in gens]), orbit)
    cols = pos[src]
    branches = np.array([state.amplitudes[orbit] for state in states])
    owner = np.arange(len(states))
    outcomes = np.zeros(len(states), dtype=np.int64)
    probs = np.ones(len(states))
    for i in range(len(gens)):
        # (B + gB) / 2 over (B - gB) / 2, with gB built in the lower half
        # so that the split holds no other scratch array
        rows = len(branches)
        split = np.empty((2 * rows, len(orbit)), dtype=complex)
        np.multiply(coef[i], branches[:, cols[i]], out=split[rows:])
        np.add(branches, split[rows:], out=split[:rows])
        np.subtract(branches, split[rows:], out=split[rows:])
        branches = np.multiply(0.5, split, out=split)
        outcomes = np.concatenate([outcomes, outcomes | 1 << i])
        owner = np.concatenate([owner, owner])
        probs = np.einsum("ij,ij->i", branches.conj(), branches).real
        # a branch at or below the cut has no descendant above it
        live = probs > 1e-15
        branches, outcomes, owner, probs = (
            branches[live],
            outcomes[live],
            owner[live],
            probs[live],
        )
    order = np.lexsort((outcomes, owner))
    outcomes, owner, probs = outcomes[order], owner[order], probs[order]
    bounds = np.searchsorted(owner, np.arange(len(states) + 1))
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # one product per state: BLAS rounding depends on the operand shape
        signs = np.bitwise_count(outcomes[lo:hi, None] & masks) & 1
        values = (1.0 - 2.0 * signs) @ coeffs
        state_probs = probs[lo:hi] / probs[lo:hi].sum()
        out.append((state_probs, values, float(values @ state_probs)))
    return out


class FragmentSampler:
    """Exact finite-shot sampler for one internally commuting fragment.

    The fragment's terms are walked in order and each term independent of
    those before it (by GF(2) elimination on its symplectic bits) becomes
    a generator g_i; every term is then eta_j prod_{i in S_j} g_i with
    eta_j = +-1.  Splitting the state on each generator in turn gives one
    branch B_s per joint outcome s (bit i set when g_i reads -1), with
    probability |B_s|^2 and fragment value sum_j c_j eta_j (-1)^|s & S_j|.
    ``values`` and ``probs`` hold the outcomes of probability above 1e-15
    in increasing s.  A draw samples the counts of the distinct values
    (``distinct_values``), so repeated sampling of the same (state,
    fragment) pair is cheap.

    The branches live on the orbit of the state's support under XOR with
    the generators' X bit-words, the only indices a generator can move
    amplitude to; a seniority-sector state reaches a small part of the
    register.  Every branch amplitude outside the orbit is exactly zero, the
    kept ones go through the same operations in the same order as on the
    full register, and each probability is summed along its row in index
    order, so leaving out the exact zeros changes no bit of the result.

    ``stack`` builds the samplers of one fragment on many states with one
    elimination, and per chunk of states one orbit (of the union of their
    supports), one generator table and one branching pass over all their
    rows.  A state's rows hold exact zeros off its own orbit, so each of
    them gets the bits it would get alone; its values and mean are then
    taken from its own rows only, as on one state, because a matrix
    product's rounding depends on the operand shape.  ``stack_chunks`` cuts
    the states so that a chunk holds at most
    BLOCK_AMPLITUDES // (2**generators * 2**n) of them, at least one, which
    bounds the branch memory.
    """

    def __init__(self, state: StateVector, fragment: PauliSum):
        [sampler] = self.stack([state], fragment)
        self.probs, self.values, self.mean = sampler.probs, sampler.values, sampler.mean

    @classmethod
    def stack(cls, states, fragment: PauliSum) -> list:
        """One sampler of `fragment` per state, in order, from stacked passes."""
        if any(state.n_qubits != fragment.n_qubits for state in states):
            raise SimulatorError("fragment qubit count mismatch")
        if fragment.max_imag() > 1e-10:
            raise SimulatorError("fragment must be Hermitian (real coefficients)")
        gens, masks, coeffs = _generators(fragment)
        samplers = []
        for chunk in stack_chunks(states, 2 ** (len(gens) + fragment.n_qubits)):
            for probs, values, mean in _branch_stack(chunk, gens, masks, coeffs):
                sampler = cls.__new__(cls)
                sampler.probs, sampler.values, sampler.mean = probs, values, mean
                samplers.append(sampler)
        return samplers

    def sample(self, shots: int, rng: np.random.Generator) -> float:
        """Sample mean of `shots` independent joint outcomes.

        One multinomial call draws the counts of the fragment's distinct
        values, the row that ``draw_table`` lays out for this sampler.
        """
        if shots < 1:
            raise SimulatorError("shots must be >= 1")
        probs, values = distinct_values(self.probs, self.values)
        counts = rng.multinomial(shots, probs)
        return float(counts @ values) / shots


def distinct_values(probs, values):
    """(probs, values) of the distinct values of an outcome distribution,
    the most likely first.

    Each value's probability is its outcomes' probabilities summed in
    outcome order (``np.bincount``); equal probabilities keep increasing
    value (a stable sort).  Merging the categories of a multinomial gives
    the multinomial of the merged probabilities, so a sample mean drawn
    from these entries has the distribution of one drawn from the
    outcomes, up to the rounding of the sums, and NumPy's draw, one
    binomial per entry until the shots run out, ends sooner.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    merged = np.bincount(inverse, weights=probs)
    order = np.argsort(-merged, kind="stable")
    return merged[order], distinct[order]


def draw_table(samplers):
    """(probs, values): one row per sampler, in order, holding its
    ``distinct_values`` and zeros beyond them."""
    rows = [distinct_values(s.probs, s.values) for s in samplers]
    width = max((len(p) for p, _ in rows), default=1)
    probs = np.zeros((len(rows), width))
    values = np.zeros((len(rows), width))
    for r, (p, v) in enumerate(rows):
        probs[r, : len(p)] = p
        values[r, : len(v)] = v
    return probs, values

