"""Measurement layer: swap-test operators, grouping, deviations, allocation.

Off-diagonal matrix elements are estimated through a single-ancilla swap
construction.  For real-amplitude register states, a term's bra-ket element
is real when its Y count is even and imaginary when odd, so each term needs
only one ancilla dressing (x or y) and the whole swap operator stays
Hermitian with real coefficients.  The identity maps to x (x) 1, whose
coefficient is free to shift because the swap state gives it zero mean;
shifting it by minus the average of the two diagonal elements minimizes the
estimator variance.  A fragment's deviation, in exact and sampled mode
alike, is that of one outcome of its ``FragmentSampler``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from senqse.pauli import DROP_TOL, PauliArrays
from senqse.simulator import (
    FragmentSampler,
    StateVector,
    apply_pauli_sum,
    check_hermitian,
    stack_chunks,
)

MIXED_COEFF_TOL = 1e-10


class MeasureError(ValueError):
    """Violated measurement-layer contract."""


@dataclass(frozen=True)
class SwapTestOperator:
    """Hermitian (n_orb+1)-qubit operator whose swap-state mean is the element.

    The ancilla is the top qubit (index n_orb).  ``c_x`` tracks the
    coefficient of x (x) identity, the only term free to shift.
    """

    op: PauliArrays
    c_x: float

    @property
    def ancilla(self) -> int:
        return self.op.n_qubits - 1


def _kept(n_qubits: int, keys, coeffs) -> PauliArrays:
    """The terms whose |coefficient| (``np.hypot``, Python's ``abs``) reaches
    DROP_TOL, in order."""
    kept = np.hypot(coeffs.real, coeffs.imag) >= DROP_TOL
    return PauliArrays(n_qubits, keys[kept], coeffs[kept])


def build_swap_operator(op: PauliArrays) -> SwapTestOperator:
    """Dress each term of the effective operator ``op`` with its ancilla Pauli.

    Even-Y terms keep their real coefficient on x (x) P; odd-Y terms carry
    minus their imaginary coefficient on y (x) P, the sign that makes the
    swap-state expectation reproduce the bra-ket element.  A coefficient
    whose imaginary part is at most MIXED_COEFF_TOL max(1, |c|) counts as
    real, else one whose real part is that small as imaginary.
    """
    c = op.coeffs
    mags = np.hypot(c.real, c.imag)
    tol = MIXED_COEFF_TOL * np.where(mags > 1.0, mags, 1.0)
    real = np.abs(c.imag) <= tol
    mixed = ~real & (np.abs(c.real) > tol)
    if mixed.any():
        raise MeasureError(
            f"coefficient {c[mixed][0]} is neither real nor imaginary; "
            "operator does not have swap-test structure"
        )
    anc = np.uint64(1 << op.n_qubits)
    keys = op.keys.copy()
    keys[:, 0] |= anc
    keys[~real, 1] |= anc
    c_x = c.real[real & ~op.keys.any(axis=1)].tolist() or [0.0]
    coeffs = np.where(real, c.real, -c.imag).astype(complex)
    return SwapTestOperator(op=_kept(op.n_qubits + 1, keys, coeffs), c_x=c_x[0])


def shift_constant(s: SwapTestOperator, h_mm: float, h_nn: float) -> SwapTestOperator:
    """Move c_x to its variance-minimizing value c_x - (h_mm + h_nn)/2.

    Valid only when the bra and ket share a seniority configuration (their
    tapered states are then orthogonal and x (x) 1 has zero mean), which the
    caller enforces.  The x (x) 1 term, appended when absent, takes the
    change, and terms below DROP_TOL are dropped.
    """
    new_cx = s.c_x - 0.5 * (h_mm + h_nn)
    # x (x) 1 appended with +0, so the change adds to its first row
    x_one = np.array([[1 << s.ancilla, 0]], dtype=np.uint64)
    keys = np.concatenate([s.op.keys, x_one])
    coeffs = np.append(s.op.coeffs, 0.0)
    coeffs[(keys == x_one).all(axis=1).argmax()] += new_cx - s.c_x
    return SwapTestOperator(op=_kept(s.op.n_qubits, keys, coeffs), c_x=new_cx)


def sorted_insertion(op: PauliArrays) -> tuple:
    """Greedy fully-commuting grouping in decreasing coefficient magnitude.

    Each term joins the first existing fragment it commutes with term-wise;
    otherwise it opens a new fragment.  Ties in magnitude break on the
    symplectic key so the grouping is deterministic everywhere (Python's
    sort: NumPy's of uint64 would fault in code nothing else runs).  The
    anticommutation matrix is the popcount parity of the symplectic form
    <x_i, z_j> + <z_i, x_j> over the one 64-bit word of each string, and
    each fragment keeps a conflict mask, bit t set when term t
    anticommutes with one of its members, so a term joins the first
    fragment whose mask has its bit clear.  Returns the fragments as a
    tuple of ``PauliArrays``; each term of ``op`` lies in exactly one of
    them, in sorted order.
    """
    mags, keys = np.hypot(op.coeffs.real, op.coeffs.imag).tolist(), op.keys.tolist()
    order = sorted(range(len(keys)), key=lambda t: (-mags[t], keys[t]))
    x, z = op.keys[order].T
    parity = np.bitwise_count(x[:, None] & z) ^ np.bitwise_count(z[:, None] & x)
    rows = np.packbits((parity & 1).astype(bool), axis=1, bitorder="little")
    fragments: list[list] = []
    conflicts: list[int] = []
    for t, term in enumerate(order):
        row = int.from_bytes(rows[t].tobytes(), "little")
        for f, mask in enumerate(conflicts):
            if not mask >> t & 1:
                fragments[f].append(term)
                conflicts[f] = mask | row
                break
        else:
            fragments.append([term])
            conflicts.append(row)
    return tuple(PauliArrays(op.n_qubits, op.keys[f], op.coeffs[f]) for f in fragments)


def fragment_variance(state: StateVector, fragment: PauliArrays) -> float:
    """Exact variance ||(F - <F>) psi||^2 of the fragment on one state.

    Both moments are divided by <psi|psi>, which a stored state meets only
    to rounding: <F> is then the m that minimises ||(F - m) psi||, so that
    rounding leaves no residual on an eigenstate.
    """
    check_hermitian(fragment, MeasureError)
    amps = state.amplitudes
    f_psi = apply_pauli_sum(amps, fragment)
    norm = np.vdot(amps, amps).real
    mean = np.vdot(amps, f_psi) / norm
    if abs(mean.imag) > 1e-9:
        raise MeasureError(f"non-real fragment mean {mean}")
    deviation = f_psi - mean.real * amps
    return float(np.vdot(deviation, deviation).real / norm)


def measure_by_fragment(elements) -> dict:
    """Fragment samplers and deviations, grouped by distinct fragment.

    ``elements`` yields (element, prepare, fragments), ``prepare()`` giving
    the element's state.  Each distinct fragment (its terms in order) gets
    one ``FragmentSampler.stack`` pass per chunk of the states that measure
    it, each state getting the bits of its own sampler, and each deviation
    is the square root of that sampler's outcome variance.  The states are
    prepared per chunk of ``stack_chunks`` and dropped after it, so the
    pass holds one chunk of states at a time, never the states of every
    element.  Returns {element: (samplers, sigmas)}, in the order of
    ``elements`` and of their fragments.
    """
    plan, groups = {}, {}
    for element, prepare, frags in elements:
        plan[element] = ([None] * len(frags), [None] * len(frags))
        for f, frag in enumerate(frags):
            terms = (frag.n_qubits, tuple(frag.items()))
            groups.setdefault(terms, (frag, []))[1].append((element, f, prepare))
    for terms in list(groups):
        # each group is dropped when done, so the plan grows as they drain
        frag, slots = groups.pop(terms)
        for chunk in stack_chunks(slots, 2**frag.n_qubits):
            states = [prepare() for _, _, prepare in chunk]
            built = FragmentSampler.stack(states, frag)
            for (element, f, _), sampler in zip(chunk, built):
                samplers, sigmas = plan[element]
                samplers[f], sigmas[f] = sampler, np.sqrt(sampler.variance)
    return plan


@dataclass(frozen=True)
class CostReport:
    """Optimal-allocation sampling cost for one subspace problem.

    ``metric`` is the shot-count-independent product of target mean-square
    energy error and total shots; ``element_proportions`` maps (mu, nu) with
    mu <= nu to its optimal share of the budget, and ``fragment_proportions``
    splits each element's share across its commuting fragments.
    """

    sigma: np.ndarray
    metric: float
    element_proportions: dict
    fragment_proportions: dict

    def to_text(self, system: str, bond: float, method: str) -> str:
        lines = [
            f"system: {system}",
            f"bond: {bond!r}",
            f"method: {method}",
            f"basis_size: {len(self.sigma)}",
            f"metric: {self.metric!r}",
            "elements:",
        ]
        for (mu, nu), prop in sorted(self.element_proportions.items()):
            fr = self.fragment_proportions.get((mu, nu), ())
            fr_txt = ",".join(f"{p:.6f}" for p in fr)
            lines.append(
                f"  ({mu},{nu}) sigma={self.sigma[mu, nu]!r} share={prop:.8f}"
                + (f" fragments=[{fr_txt}]" if len(fr) else "")
            )
        return "\n".join(lines) + "\n"


def allocate_and_score(sigma: np.ndarray, c0: np.ndarray, fragment_sigmas: dict) -> CostReport:
    """Optimal shot allocation and the squared-error x shots metric.

    Minimizing the first-order mean-square energy error at a fixed total
    budget puts shots proportional to c_mu^2 sigma_mumu on diagonal elements
    and 2|c_mu c_nu| sigma_munu off the diagonal; the achieved metric is the
    square of the weighted sigma sum.  Elements with zero sigma (classically
    evaluated) receive no allocation.
    """
    sigma = np.asarray(sigma, dtype=float)
    c0 = np.asarray(c0, dtype=float)
    n = len(c0)
    if sigma.shape != (n, n):
        raise MeasureError("sigma shape does not match the eigenvector")
    if np.max(np.abs(sigma - sigma.T), initial=0.0) > 1e-10:
        raise MeasureError("sigma must be symmetric")
    if np.any(sigma < -1e-12):
        raise MeasureError("sigma entries must be nonnegative")
    if abs(np.linalg.norm(c0) - 1.0) > 1e-8:
        raise MeasureError("eigenvector must be normalized")

    weights = {}
    for mu in range(n):
        for nu in range(mu, n):
            if sigma[mu, nu] <= 0.0:
                continue
            if mu == nu:
                weights[(mu, nu)] = c0[mu] ** 2 * sigma[mu, mu]
            else:
                weights[(mu, nu)] = 2.0 * abs(c0[mu] * c0[nu]) * sigma[mu, nu]
    total = sum(weights.values())
    metric = total**2
    props = {key: (w / total if total > 0 else 0.0) for key, w in weights.items()}

    frag_props = {}
    for key, sigs in fragment_sigmas.items():
        s = sum(sigs)
        if s > 0:
            frag_props[key] = tuple(v / s for v in sigs)
    return CostReport(
        sigma=sigma,
        metric=float(metric),
        element_proportions=props,
        fragment_proportions=frag_props,
    )


def predicted_mse(sigma: np.ndarray, c0: np.ndarray, shots: dict) -> float:
    """First-order mean-square energy error at an explicit shot table.

    ``shots`` maps (mu, nu) with mu <= nu to the shots spent on that
    element; elements absent from the table are treated as exact.
    """
    sigma = np.asarray(sigma, dtype=float)
    c0 = np.asarray(c0, dtype=float)
    mse = 0.0
    for (mu, nu), m in shots.items():
        if m <= 0:
            raise MeasureError(f"nonpositive shots for element {(mu, nu)}")
        if mu == nu:
            mse += c0[mu] ** 4 * sigma[mu, mu] ** 2 / m
        else:
            mse += 4.0 * c0[mu] ** 2 * c0[nu] ** 2 * sigma[mu, nu] ** 2 / m
    return mse
