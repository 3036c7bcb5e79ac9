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
the value of every term and of their weighted sum, and the sample mean is
an unbiased estimator of the fragment expectation value.  That Clifford is
a Hadamard layer over the span of the generators' X words (Aaronson and
Gottesman 2004), so the outcome distribution has a closed form with no
dense matrix and no eigensolve: on each coset of that span that meets the
state's support, one Walsh-Hadamard transform of the state's phased
amplitudes weighs every outcome of the generators with X words, and the
diagonal ones read one value on the whole coset.  The states that measure
one fragment are transformed as one stack: the elimination and the product
table are built once, each state's entries hold exact zeros off its own
cosets, and each state's values, mean and variance are taken from its own
entries alone, so every state gets the bits it would get by itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from senqse.pauli import PauliArrays, anticommute, label, product_phase

NORM_TOL = 1e-10
# largest imaginary part (Ha) a matrix element may carry
IMAG_TOL = 1e-9
# largest imaginary part a Hermitian fragment's coefficient may carry
FRAGMENT_IMAG_TOL = 1e-10


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
        if not abs(norm - 1.0) <= NORM_TOL:  # a nan norm fails too
            raise SimulatorError(f"state norm {norm} deviates from 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

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


def apply_pauli_sum(amps: np.ndarray, op: PauliArrays) -> np.ndarray:
    """op |amps>, formed from the nonzero amplitudes only.

    ``amps`` is one state or a stack of states along its leading axis, each
    on the register of ``op`` (a last axis other than 2**op.n_qubits is a
    SimulatorError); the terms' factors are formed once, and each state is
    applied on its own.  At each index k where the state is nonzero, every
    block of terms forms coef * amp and adds it into k ^ x with
    ``np.add.at``, which applies repeated indices in order, so every output
    amplitude is summed from +0 in term order.  A left-out term would add a
    signed zero to a sum that is never -0, so the bits are those of the same
    sum over the whole register.  A block holds at most BLOCK_AMPLITUDES
    contributions (one term at least), so a stack needs the scratch of one
    state.
    """
    dim = 2**op.n_qubits
    if dim != amps.shape[-1]:
        raise SimulatorError("amplitude length mismatch")
    factors = _factors(op.keys, op.coeffs)
    out = np.zeros(amps.shape, dtype=complex)
    for state, row in zip(amps.reshape(-1, dim), out.reshape(-1, dim)):
        support = np.flatnonzero(state).astype(np.uint64)
        values = state[support]
        step = max(1, BLOCK_AMPLITUDES // max(1, len(support)))
        for start in range(0, len(op), step):
            block = op.keys[start : start + step]
            coef = _coefficients(block, factors[start : start + step], support)
            np.add.at(row, (support ^ block[:, :1]).ravel(), (coef * values).ravel())
    return out


def real_block(bras, products) -> np.ndarray:
    """Entry (a, b) is ``np.vdot`` of bra row a with product row b, H|ket b>
    for a real H; one check refuses an imaginary part above IMAG_TOL."""
    vals = np.array([[np.vdot(bra, p) for p in products] for bra in bras])
    imag = np.max(np.abs(vals.imag), initial=0.0)
    if imag > IMAG_TOL:
        raise SimulatorError(f"matrix element has imaginary part {imag}")
    return vals.real


def prepare_swap_state(a: StateVector, b: StateVector) -> StateVector:
    """(|0>|a> + |1>|b>)/sqrt(2) with the ancilla on the top (highest) qubit."""
    if a.n_qubits != b.n_qubits:
        raise SimulatorError("swap-state inputs must share a qubit count")
    amps = np.concatenate([a.amplitudes, b.amplitudes]) / np.sqrt(2.0)
    return StateVector(amps, a.n_qubits + 1)


def dense_matrix(op: PauliArrays) -> np.ndarray:
    """Dense matrix of op, accumulated term by term in order."""
    dim = 2**op.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    src, coef = _term_table(op.keys, op.coeffs, np.arange(dim, dtype=np.uint64))
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


def _generators(fragment: PauliArrays):
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
                        f"fragment terms {label(gx, gz)} and {label(x, z)} do not commute"
                    )
            rows.append((vec, vec.bit_length() - 1, mask | 1 << len(gens)))
            mask, eta = 1 << len(gens), 1.0
            gens.append((x, z))
        else:
            eta = _product_sign(gens, mask)
        masks.append(mask)
        coeffs.append(eta * c.real)
    return gens, np.array(masks, dtype=np.int64), np.array(coeffs)


def _coset_basis(gens):
    """The generators' group rewritten for the coset transform.

    Walked in order, each generator g_i is multiplied by the earlier h_j
    whose X pivot (highest bit) it holds, so h_i = g_i prod_{j in R_i} h_j
    has an X word independent of those before it, or none.  As the h
    commute and square to one, g_i = h_i prod_{j in R_i} h_j, so bit i of
    the outcome s is the XOR of the readings of the h_j, j in {i} + R_i,
    and s = flips[t] ^ diag_outcomes[u] for the returned
    (xs, products, flips, diagonal, diag_outcomes):

    - xs: the X words of the r h with one, in order;
    - products: (keys, coefficients) of their 2**r products
      h^b = prod_{a in b} h_a, each +-sigma(x, z);
    - flips[t]: the outcome when the a-th of them reads (-1)**t_a;
    - diagonal: (z, 1 if the sign is -1) of each other h = +-Z^z;
    - diag_outcomes[u]: the outcome when the c-th of those reads (-1)**u_c.
    """
    rows, cols = [], []
    for i, (x, z) in enumerate(gens):
        sign = 1.0
        cols.append(1 << i)
        for j, (rx, rz, rsign) in enumerate(rows):
            if rx and x >> (rx.bit_length() - 1) & 1:
                # commuting Hermitian products: 0 or 2 quarter turns
                sign *= -rsign if product_phase(x, z, rx, rz) else rsign
                x, z = x ^ rx, z ^ rz
                cols[j] ^= 1 << i
        rows.append((x, z, sign))
    table, flips, diagonal, diag_outcomes = [((0, 0), 1.0)], [0], [], [0]
    for (x, z, sign), col in zip(rows, cols):
        if x:
            table += [
                ((bx ^ x, bz ^ z), (-sign if product_phase(bx, bz, x, z) else sign) * c)
                for (bx, bz), c in table
            ]
            flips += [s ^ col for s in flips]
        else:
            diagonal.append((z, int(sign < 0)))
            diag_outcomes += [s ^ col for s in diag_outcomes]
    xs = [x for x, _, _ in rows if x]
    return xs, _term_arrays(table), np.array(flips), diagonal, np.array(diag_outcomes)


def _coset_weights(states, xs, products):
    """(reps, weights): the cosets of span(xs) that meet the states' joint
    support, each named by its member with every X pivot bit clear, in
    increasing order, and weights[state, t, coset], the weight of the h
    with X words reading (-1)**t there: one Walsh-Hadamard transform of
    <j0|h^b|psi> over b, squared, over 2**r."""
    index = np.arange(len(states[0].amplitudes), dtype=np.uint64)
    inside = np.zeros(len(index), dtype=bool)
    for state in states:
        inside |= state.amplitudes != 0
    pivots = np.uint64(0)
    for x in xs:
        inside |= inside[index ^ np.uint64(x)]
        pivots |= np.uint64(1 << (x.bit_length() - 1))
    reps = index[inside & ((index & pivots) == 0)]
    src, coef = _term_table(*products, reps)
    amps = np.array([state.amplitudes[src] for state in states])
    amps *= coef
    for a in range(len(xs)):
        # butterfly on bit a of b
        pairs = amps.reshape(len(states), -1, 2, 2**a, len(reps))
        low = pairs[:, :, 0] + pairs[:, :, 1]
        np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=pairs[:, :, 1])
        pairs[:, :, 0] = low
    weights = amps.real**2
    weights += amps.imag**2
    weights /= len(coef)
    return reps, weights


def _coset_stack(states, basis, masks, coeffs) -> list:
    """(probs, values, mean, variance) of each state, one transform per coset.

    Each (coset, t) is mapped to its outcome s and each state's weights are
    summed per s over the cosets in increasing order, so its entries off
    its own cosets add +0 to every sum.  The variance sums p (v - mean)**2,
    whose terms are never negative, so a one-outcome state reads 0.
    """
    xs, products, flips, diagonal, diag_outcomes = basis
    reps, weights = _coset_weights(states, xs, products)
    # u: bit c set when the c-th diagonal h reads -1 on the coset
    u = np.zeros(len(reps), dtype=np.int64)
    for c, (z, flipped) in enumerate(diagonal):
        reads = np.bitwise_count(reps & np.uint64(z)) & np.uint64(1)
        u |= (reads.astype(np.int64) ^ flipped) << c
    present = np.zeros(len(diag_outcomes), dtype=bool)
    present[u] = True
    seen = np.flatnonzero(present)
    group = np.zeros(len(diag_outcomes), dtype=np.intp)
    group[seen] = np.arange(len(seen))
    index = (group[u] * len(flips) + np.arange(len(flips))[:, None]).ravel()
    outcomes = (diag_outcomes[seen, None] ^ flips).ravel()
    order = np.argsort(outcomes, kind="stable")
    outcomes = outcomes[order]
    out = []
    for state_weights in weights.reshape(len(states), -1):
        row = np.bincount(index, state_weights, len(outcomes))[order]
        live = row > 1e-15
        # one product per state: BLAS rounding depends on the operand shape
        signs = np.bitwise_count(outcomes[live, None] & masks) & 1
        values = (1.0 - 2.0 * signs) @ coeffs
        probs = row[live] / row[live].sum()
        mean = float(values @ probs)
        out.append((probs, values, mean, float((values - mean) ** 2 @ probs)))
    return out


def check_hermitian(fragment: PauliArrays, error: type):
    """Raise ``error`` unless every coefficient of the fragment is real to
    FRAGMENT_IMAG_TOL."""
    if np.max(np.abs(fragment.coeffs.imag), initial=0.0) > FRAGMENT_IMAG_TOL:
        raise error("fragment must be Hermitian (real coefficients)")


class FragmentSampler:
    """Exact finite-shot sampler for one internally commuting fragment.

    The fragment's terms are walked in order and each term independent of
    those before it (by GF(2) elimination on its symplectic bits) becomes
    a generator g_i; every term is then eta_j prod_{i in S_j} g_i with
    eta_j = +-1.  A joint outcome s (bit i set when g_i reads -1) has
    probability <psi| prod_i (1 + (-1)^s_i g_i) / 2 |psi> and fragment
    value sum_j c_j eta_j (-1)^|s & S_j|.  ``values`` and ``probs`` hold
    the outcomes of probability above 1e-15 in increasing s, ``mean`` and
    ``variance`` the fragment's <F> and <(F - <F>)^2> read from that
    distribution.  A draw
    samples the counts of the distinct values (the sampler's row of
    ``draw_table``), so repeated sampling of the same (state, fragment)
    pair is cheap.

    The probabilities are the closed form of the measurement after a
    diagonalizing Clifford, a Hadamard layer over the span of the X words.
    A second elimination, on the X words alone, rewrites the group on r
    generators h_a with independent X words and k - r diagonal ones
    (``_coset_basis``).  The register splits into cosets j0 + span(x_h).
    On each, the amplitudes <j0|h^b|psi> of the 2**r products h^b go
    through one Walsh-Hadamard transform, whose entry t squared over 2**r
    is the weight of the h_a reading (-1)^t_a there; every diagonal h reads
    one value on the whole coset.  Each (coset, t) is mapped back to its s,
    and the weights are summed per s over the cosets that meet the state's
    support: O(orbit * r) work per state, with no dense matrix, no
    eigensolve and no branch vectors.

    ``stack`` builds the samplers of one fragment on many states with one
    elimination and one product table, and per chunk of states
    (``stack_chunks``: at most BLOCK_AMPLITUDES // 2**n states, at least
    one) one transform over the cosets of the union of their supports.  A
    state's entries off its own cosets are exact zeros, so each state gets
    the bits it would get alone; its values, mean and variance are then
    taken from its own entries only, as on one state, because a matrix
    product's rounding depends on the operand shape.
    """

    def __init__(self, state: StateVector, fragment: PauliArrays):
        [sampler] = self.stack([state], fragment)
        self.probs, self.values = sampler.probs, sampler.values
        self.mean, self.variance = sampler.mean, sampler.variance

    @classmethod
    def stack(cls, states, fragment: PauliArrays) -> list:
        """One sampler of `fragment` per state, in order, from stacked passes."""
        if any(state.n_qubits != fragment.n_qubits for state in states):
            raise SimulatorError("fragment qubit count mismatch")
        check_hermitian(fragment, SimulatorError)
        gens, masks, coeffs = _generators(fragment)
        basis = _coset_basis(gens)
        samplers = []
        for chunk in stack_chunks(states, 2**fragment.n_qubits):
            for entries in _coset_stack(chunk, basis, masks, coeffs):
                sampler = cls.__new__(cls)
                sampler.probs, sampler.values, sampler.mean, sampler.variance = entries
                samplers.append(sampler)
        return samplers

    def sample(self, shots: int, rng: np.random.Generator) -> float:
        """Sample mean of `shots` independent joint outcomes.

        One multinomial call draws the counts of the fragment's distinct
        values, the row that ``draw_table`` lays out for this sampler.
        """
        if shots < 1:
            raise SimulatorError("shots must be >= 1")
        [probs], [values] = draw_table([self])
        counts = rng.multinomial(shots, probs)
        return float(counts @ values) / shots


def _distinct_entries(samplers):
    """(widths, probs, values): how many distinct values each sampler has,
    and those values with their probabilities, in table order: by sampler,
    then most likely first, then increasing value.

    One stable lexsort by (row, value) keeps each (row, value) group's
    outcomes in outcome order, one ``np.bincount`` sums them in that order,
    and one lexsort by (row, -probability, value) orders the groups.
    """
    lengths = [len(s.values) for s in samplers]
    # int32 rows, one gather at a time: this scratch sets shot-study's peak
    rows = np.repeat(np.arange(len(samplers), dtype=np.int32), lengths)
    values = np.concatenate([s.values for s in samplers])
    order = np.lexsort((values, rows))
    rows = rows[order]
    values = values[order]
    probs = np.concatenate([s.probs for s in samplers])[order]
    del order
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (values[1:] != values[:-1])
    # group g + 1 for the g-th (row, value) pair; bin 0 stays empty
    probs = np.bincount(np.cumsum(first), probs)[1:]
    rows, values = rows[first], values[first]
    entries = np.lexsort((values, -probs, rows))
    return np.bincount(rows, minlength=len(samplers)), probs[entries], values[entries]


def draw_table(samplers):
    """(probs, values): one row per sampler, in order, holding its distinct
    values, the most likely first, and zeros beyond them.

    Each value's probability is its outcomes' probabilities summed in
    outcome order; equal probabilities keep increasing value.  Merging the
    categories of a multinomial gives the multinomial of the merged
    probabilities, so a sample mean drawn from a row has the distribution
    of one drawn from the outcomes, up to the rounding of the sums, and
    NumPy's draw, one binomial per entry until the shots run out, ends
    sooner.  The rows are grouped in one pass (``_distinct_entries``) and
    laid out row by row.  NumPy refuses a probability outside [0, 1], so a
    sum that rounds above 1 is clamped to 1; a sum of probabilities is
    never below 0.
    """
    if not samplers:
        return np.zeros((0, 1)), np.zeros((0, 1))
    widths, probs, values = _distinct_entries(samplers)
    filled = np.arange(widths.max()) < widths[:, None]
    table_probs, table_values = np.zeros(filled.shape), np.zeros(filled.shape)
    # a boolean mask fills in row-major order, the order of the entries
    table_probs[filled], table_values[filled] = probs, values
    np.minimum(table_probs, 1.0, out=table_probs)
    return table_probs, table_values
