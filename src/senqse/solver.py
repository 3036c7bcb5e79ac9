"""Subspace assembly, eigensolving, amplitude optimization and orbital relaxation.

The subspace matrix is Hermitian with an identity overlap (the basis is
orthonormal by construction), so the classical step is a plain symmetric
eigensolve.  Matrix elements are evaluated on the tapered register through
per-config-pair effective operators, either exactly or by simulated
fragment sampling with optimal shot allocation; elements between
rotation-free states are always evaluated classically and carry no
sampling cost.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from senqse.csfbasis import (
    BasisState,
    element_kernel,
    full_state,
    pair_rotation_terms,
    rotate_chain,
    rotate_pair_inplace,
    rotation_group_key,
)
from senqse.fci import fci_oracle  # noqa: F401 - perfbench reaches solver.fci_oracle
from senqse.fermion import (
    FermionIntegrals,
    jordan_wigner,
    occ_virt_rotation,
    rotate_orbitals,
)
from senqse.measure import (
    CostReport,
    allocate_and_score,
    build_swap_operator,
    measure_by_fragment,
    shift_constant,
    sorted_insertion,
)
from senqse.pauli import PauliArrays
from senqse.simulator import (
    SimulatorError,
    StateVector,
    apply_pauli_sum,
    draw_table,
    prepare_swap_state,
    rng_for,
)
from senqse.taper import SupportOperator, index_groups, real_support

log = logging.getLogger(__name__)

HERMITICITY_TOL = 1e-10

# largest register (orbitals) on which SubspaceEngine.apply_xop applies
# memoised dense effective operators; above it only Pauli sums fit
_DENSE_XOP_ORBITALS = 8


class SolverError(RuntimeError):
    """Subspace construction or eigensolve contract violation."""


@dataclass(frozen=True)
class SubspaceProblem:
    """Subspace matrix with its ground eigenpair and what measuring it costs.

    ``sampler`` is the ``MatrixSampler`` a sampled build drew ``hmat`` from,
    and ``cost`` the ``measure.CostReport`` of a tapered build that prices
    its elements (see ``build_subspace``); each is None otherwise.
    """

    hmat: np.ndarray
    e_min: float
    c0: np.ndarray
    sampler: MatrixSampler | None = None
    cost: CostReport | None = None


def ground_state(hmat: np.ndarray):
    """Lowest eigenpair; the largest eigenvector entry is made real positive."""
    hmat = np.asarray(hmat)
    if not np.max(np.abs(hmat - hmat.conj().T), initial=0.0) <= HERMITICITY_TOL:
        raise SolverError("subspace matrix is not Hermitian (or not finite)")
    vals, vecs = np.linalg.eigh(hmat)
    c0 = vecs[:, 0]
    k = int(np.argmax(np.abs(c0)))
    phase = c0[k] / abs(c0[k])
    c0 = c0 * np.conj(phase)
    return float(vals[0]), np.real_if_close(c0, tol=1e6)


def _real_part(a: np.ndarray) -> np.ndarray:
    if np.max(np.abs(a.imag), initial=0.0) > HERMITICITY_TOL:
        raise SolverError("effective operator is not real")
    return np.ascontiguousarray(a.real)


class SubspaceEngine:
    """Shared machinery for exact and sampled subspace matrix construction.

    On the tapered register the engine works through ``kernel``, the
    geometry's element kernel (``csfbasis.CsfElementEngine`` of ``hq``,
    built here when none is given): its sector table gives the effective
    operator of each seniority-config pair, its CSF states start every
    basis state, and its ``matrix`` rule gives every exact element.
    ``exact_matrix`` hands it every basis state once, as (config bits,
    amplitudes), for one pass of H' over their joint support, and
    ``element_exact`` is the 1x1 call.  Each state's config, a bit mask,
    is read from the kernel once: replacing a state's rotation amplitudes
    never changes it, and only invalidates that state's vector.
    ``apply_xop``, the amplitude optimiser's product of a config pair's
    operator with real rows, uses a memoised float64 matrix when the
    register has at most ``_DENSE_XOP_ORBITALS`` orbitals and the Pauli
    sum above; it refuses an operator that is not real.  The untapered
    ablation is ``_full_register_matrix``, outside the engine.
    """

    def __init__(
        self,
        basis,
        hq: PauliArrays,
        n_elec: int,
        constant_shift: bool = True,
        kernel=None,
    ):
        if not basis:
            raise SolverError("basis must be nonempty")
        self.basis = list(basis)
        keys = {b.dedup_key() for b in basis}
        if len(keys) != len(basis):
            raise SolverError("basis contains duplicate states")
        self.hq = hq
        self.n_elec = n_elec
        self.constant_shift = constant_shift
        self.kernel = element_kernel(kernel, hq, n_elec)
        self.n_orb = self.kernel.n_orb
        self._configs = [self.kernel.bits(b.csf) for b in self.basis]
        self._states = [None] * len(basis)
        self._xmats = {}
        self._check_orthonormality()

    def _check_orthonormality(self):
        """Same-config states must be orthogonal for the identity overlap."""
        for members in index_groups(self._configs).values():
            for idx, mu in enumerate(members):
                for nu in members[:idx]:
                    ov = abs(self.state(mu).overlap(self.state(nu)))
                    if ov > 1e-8:
                        raise SolverError(
                            f"basis states {self.basis[nu].label!r} and "
                            f"{self.basis[mu].label!r} overlap ({ov:.2e})"
                        )

    @property
    def size(self):
        return len(self.basis)

    def config(self, mu: int) -> int:
        """Seniority config of basis state mu as a bit mask."""
        return self._configs[mu]

    def csf_state(self, mu: int) -> StateVector:
        """Tapered CSF of basis state mu, before its rotations."""
        return self.kernel.state(self.basis[mu].csf)

    def state(self, mu: int) -> StateVector:
        if self._states[mu] is None:
            self._states[mu] = rotate_chain(self.csf_state(mu), self.basis[mu].rotations)
        return self._states[mu]

    def replace_basis_state(self, mu: int, b: BasisState) -> None:
        """State mu's rotation amplitudes moved: ``b`` keeps its CSF."""
        self.basis[mu] = b
        self._states[mu] = None

    def xop(self, mu: int, nu: int) -> PauliArrays:
        return self.kernel.xop(self._configs[mu], self._configs[nu])

    def is_classical(self, mu: int, nu: int) -> bool:
        """The element never costs quantum shots.

        Either bra and ket are rotation-free, or no term links their
        configs, so the element is exactly zero.
        """
        rotation_free = not self.basis[mu].rotations and not self.basis[nu].rotations
        return rotation_free or not self.xop(mu, nu)

    def apply_xop(self, bra_bits: int, ket_bits: int, vecs: np.ndarray) -> np.ndarray:
        """The config pair's effective operator applied to each real row of vecs.

        The operator is real: the dense matrix is the operator's
        ``SupportOperator`` pass over all 2^n_orb indices, which refuses
        imaginary terms, and an imaginary part above ``HERMITICITY_TOL``
        in the Pauli-sum product is refused too, each as a SolverError.
        """
        op = self.kernel.xop(bra_bits, ket_bits)
        if not op:
            return np.zeros_like(vecs)
        if self.n_orb <= _DENSE_XOP_ORBITALS:
            if (bra_bits, ket_bits) not in self._xmats:
                every = np.arange(1 << self.n_orb, dtype=np.uint64)
                try:
                    self._xmats[bra_bits, ket_bits] = SupportOperator(op).dense(every)
                except SimulatorError as err:
                    raise SolverError("effective operator is not real") from err
            return vecs @ self._xmats[bra_bits, ket_bits].T
        return _real_part(apply_pauli_sum(vecs, op))

    def _tapered(self, mu: int) -> tuple:
        """State mu as ``kernel.matrix`` takes it: (config bits, amplitudes)."""
        return self._configs[mu], self.state(mu).amplitudes

    def element_exact(self, mu: int, nu: int) -> float:
        return float(self.kernel.matrix([self._tapered(mu)], [self._tapered(nu)])[0, 0])

    def exact_matrix(self) -> np.ndarray:
        return self.kernel.matrix([self._tapered(mu) for mu in range(self.size)])

    # -- sampling ----------------------------------------------------------

    def _measurables(self, elements, exact):
        """(element, prepare, fragments) of each element, which measures
        its fragments on the state ``prepare()``: a diagonal element's
        effective operator on the basis state, an off-diagonal one's
        swap-test operator on the two-state superposition, its constant
        shifted by the diagonal of ``exact`` (``exact_matrix``) when both
        states share a seniority config.

        The swap-test operator is built once per config pair and each
        distinct operator is sorted once (a diagonal element's operator is
        fixed by its config, a swap-test one by its config pair and
        constant), so the elements that share an operator share its
        fragments.  A swap-test state is prepared on each call, so that
        the elements' states are not all held at once.
        """
        swaps, fragment_sets = {}, {}
        for mu, nu in elements:
            bra, ket = self._configs[mu], self._configs[nu]
            prepare, op, key = partial(self.state, mu), self.xop(mu, nu), bra
            if mu != nu:
                if (bra, ket) not in swaps:
                    swaps[bra, ket] = build_swap_operator(op)
                swap = swaps[bra, ket]
                if self.constant_shift and bra == ket:
                    swap = shift_constant(swap, exact[mu, mu], exact[nu, nu])
                prepare = partial(prepare_swap_state, self.state(mu), self.state(nu))
                op, key = swap.op, (bra, ket, swap.c_x)
            if key not in fragment_sets:
                fragment_sets[key] = sorted_insertion(op)
            yield (mu, nu), prepare, fragment_sets[key]

    def sampling_plan(self, exact: np.ndarray):
        """{element: (samplers, deviations)} of every non-classical element,
        from ``measure.measure_by_fragment``; ``exact`` is the engine's
        ``exact_matrix``, whose diagonal the constant shift reads."""
        pairs = itertools.combinations_with_replacement(range(self.size), 2)
        elements = [key for key in pairs if not self.is_classical(*key)]
        return measure_by_fragment(self._measurables(elements, exact))

    def sigma_matrix(self, plan):
        """Per-element optimal-allocation deviations and fragment splits,
        read from ``plan`` (``sampling_plan``)."""
        sigma = np.zeros((self.size, self.size))
        for (mu, nu), (_, sigs) in plan.items():
            sigma[mu, nu] = sigma[nu, mu] = sum(sigs)
        return sigma, {key: list(sigs) for key, (_, sigs) in plan.items()}


# A sampled element keeps its standard error sigma_e / sqrt(m_e) within this
# fraction of the subspace gap E_1 - E_0.
FLOOR_KAPPA = 0.1
# The second-order bias of the sampled ground energy is held within this
# fraction of its first-order standard error, so the first-order model
# predicts the table's mean-square error to within BIAS_KAPPA**2.
BIAS_KAPPA = 0.25
# Levels within this distance of E_0 (Ha) count as ground levels.
DEGENERACY_TOL = 1e-8
_BISECTION_STEPS = 200


def _error_coefficients(spectrum, keys):
    """Sensitivities of the ground energy to noise on each sampled element.

    With g_kl,e the derivative of <c_k|H|c_l> by element e (c_k,mu c_l,mu
    on the diagonal; c_k,mu c_l,nu + c_k,nu c_l,mu off it, where both
    triangle entries move together), independent noise of variance v_e
    moves E_0 by weight_e v_e in mean square at first order, weight_e =
    g_00,e^2, and by -beta_e v_e in mean at second order, beta_e = sum_k
    g_k0,e^2 / (E_k - E_0).  Levels within DEGENERACY_TOL of E_0 form one
    ground level D: weight_e then sums g_ij,e^2 over i, j in D (the mean
    square of the noise projected on D, which bounds the first-order error
    of E_0) and beta_e averages over i in D and sums over k outside it, so
    neither depends on which ground vectors the eigensolver returns.
    ``spectrum`` is the (values, vectors) pair of ``np.linalg.eigh`` of the
    exact matrix.  Returns (gap, weight, beta), gap being the distance from
    E_0 to the first level outside D, or None when there is none.
    """
    vals, vecs = spectrum
    ground = vals - vals[0] <= DEGENERACY_TOL
    excitation = vals[~ground] - vals[0]
    gap = float(excitation[0]) if len(excitation) else None
    weight, beta = {}, {}
    for mu, nu in keys:
        g = np.outer(vecs[mu], vecs[nu])
        if mu != nu:
            g = g + g.T
        weight[(mu, nu)] = float(np.sum(g[np.ix_(ground, ground)] ** 2))
        beta[(mu, nu)] = float(
            np.sum(g[np.ix_(~ground, ground)] ** 2 / excitation[:, None]) / ground.sum()
        )
    return gap, weight, beta


def _error_floor(sig, gap: float) -> np.ndarray:
    """Shots that hold sigma_e / sqrt(m_e) to FLOOR_KAPPA * gap."""
    return np.ceil((np.asarray(sig) / (FLOOR_KAPPA * gap)) ** 2)


@dataclass
class MatrixSampler:
    """Reusable finite-shot estimator of the whole subspace matrix.

    Holds the exact classical elements, the per-element fragment samplers,
    and an integer shot table.  On construction it lays the samplers out
    as one padded table (``simulator.draw_table``), a row per fragment
    (plan order, then fragment index) holding that fragment's distinct
    values and their probabilities, the most likely first, zero beyond
    them.  ``draw(seed)`` takes one stream, ``rng_for(seed)``, draws every
    row's value counts from it in one multinomial call, and sums each
    row's sample mean into its element; a draw is a function of the seed
    and the table alone.  On construction it also records the error its
    own table predicts for the ground energy, from the per-element
    variances sum_alpha sigma_alpha^2 / m_alpha: ``first_order_mse`` (the
    linear part, the quantity ``predicted_mse`` gives at the optimal
    fragment split) and ``second_order_bias`` (the mean shift, never
    positive); and ``elements_at_floor``, the number of sampled elements
    whose shots sit at or below the error floor of ``make_matrix_sampler``
    (the elements whose shots the floor, not the error split, decides).
    Where its floors fit the budget, ``make_matrix_sampler``'s table holds
    the bias within BIAS_KAPPA sqrt(first_order_mse) before integer
    rounding.  ``coefficients`` is
    ``_error_coefficients`` of the exact matrix over every planned element,
    and ``exact_c0`` the exact matrix's ground vector from the same
    eigendecomposition (its sign as ``np.linalg.eigh`` returns it);
    ``floor_shots`` is the sum of the floors ``make_matrix_sampler`` set,
    which may exceed the budget (None on a sampler built from a given
    table).
    """

    exact: np.ndarray
    plan: dict
    shots: dict
    coefficients: tuple = field(repr=False, compare=False)
    exact_c0: np.ndarray = field(repr=False, compare=False)
    floor_shots: int | None = None
    first_order_mse: float = field(init=False)
    second_order_bias: float = field(init=False)
    elements_at_floor: int = field(init=False)

    def __post_init__(self):
        gap, weight, beta = self.coefficients
        mse = bias = 0.0
        at_floor = 0
        for key, (_, sigs) in self.plan.items():
            var = sum(s * s / m for s, m in zip(sigs, self.shots[key]))
            mse += weight[key] * var
            bias -= beta[key] * var
            if gap is not None and sum(sigs) > 0:
                at_floor += sum(self.shots[key]) <= _error_floor(sum(sigs), gap)
        self.first_order_mse = mse
        self.second_order_bias = bias
        self.elements_at_floor = int(at_floor)
        rows = [
            (e, sampler, m)
            for e, (key, (samplers, _)) in enumerate(self.plan.items())
            for sampler, m in zip(samplers, self.shots[key])
        ]
        self._probs, self._values = draw_table([s for _, s, _ in rows])
        self._row_shots = np.array([m for _, _, m in rows], dtype=np.int64)
        self._row_element = np.array([e for e, _, _ in rows], dtype=np.int64)
        keys = np.array(list(self.plan), dtype=np.int64).reshape(-1, 2)
        self._mu, self._nu = keys[:, 0], keys[:, 1]

    def draw(self, seed: int) -> np.ndarray:
        h = self.exact.copy()
        try:
            counts = rng_for(seed).multinomial(self._row_shots, self._probs)
        except ValueError as exc:
            raise SolverError(f"the draw table cannot be drawn: {exc}") from None
        means = np.einsum("rk,rk->r", counts, self._values) / self._row_shots
        vals = np.bincount(self._row_element, weights=means, minlength=len(self._mu))
        h[self._mu, self._nu] = vals
        h[self._nu, self._mu] = vals
        return h


def _integer_split(total: int, weights) -> list:
    """Largest-remainder split of `total` into len(weights) parts, each >= 1.

    The weights must have a positive sum, and `total` must be at least
    len(weights): every element's shots cover one per fragment.
    """
    n = len(weights)
    wsum = sum(weights)
    raw = [1 + (total - n) * w / wsum for w in weights]
    out = [int(v) for v in raw]
    rema = sorted(range(n), key=lambda k: raw[k] - out[k], reverse=True)
    for k in rema[: total - sum(out)]:
        out[k] += 1
    return out


def _water_fill(floor: np.ndarray, w: np.ndarray, budget: float) -> np.ndarray:
    """m = max(floor, s w) with s set so that m sums to budget >= sum(floor).

    This is the minimum of sum_e w_e^2 / m_e at that budget over m >= floor.
    Elements with w_e = 0 stay at their floor; budget that no element can
    use is left unspent.
    """
    free = w > 0
    while free.any():
        s = (budget - floor[~free].sum()) / w[free].sum()
        pinned = free & (s * w < floor)
        if not pinned.any():
            return np.where(free, s * w, floor)
        free &= ~pinned
    return floor


def _bias_weighted_table(floor, a, b, budget: float) -> np.ndarray:
    """Minimum of F over m >= floor, subject to B^2 <= BIAS_KAPPA^2 F.

    F = sum_e a_e / m_e and |B| = sum_e b_e / m_e.  The water-fill m(t),
    shots in proportion to sqrt(a_e + t b_e) above the floors, minimises
    F + t |B| at the budget, so F rises and |B| falls as t grows, and the
    optimum is m(t) at the smallest t that meets the bound: m(0), the
    first-order optimum, or the root of B^2 = BIAS_KAPPA^2 F, bracketed
    from a positive t and bisected.  With no first-order weight no table
    meets the bound and t stops at the cap, m proportional to sqrt(b_e).
    """

    def table(t):
        return _water_fill(floor, np.sqrt(a + t * b), budget)

    def too_biased(m):
        return np.sum(b / m) ** 2 > BIAS_KAPPA**2 * np.sum(a / m)

    m = table(0.0)
    if not too_biased(m):
        return m
    lo, hi = 0.0, 2.0 * np.sum(b / m)
    for _ in range(_BISECTION_STEPS):
        if not too_biased(table(hi)):
            break
        lo, hi = hi, 2.0 * hi
    for _ in range(_BISECTION_STEPS):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if too_biased(table(mid)):
            lo = mid
        else:
            hi = mid
    return table(hi)


def make_matrix_sampler(engine: SubspaceEngine, total_shots: int) -> MatrixSampler:
    """Allocate a shot budget and wrap it with the exact skeleton.

    The table comes from the exact eigendecomposition of the subspace
    matrix and the exact fragment deviations (the emulator knows both).
    Over the elements with sigma_e > 0 (sigma_e is the sum of the element's
    fragment deviations, m_e its shots) it is built in two steps:

    1. Floor.  Each element gets at least the shots that hold sigma_e /
       sqrt(m_e) to FLOOR_KAPPA * (E_1 - E_0).  The first-order optimum
       alone leaves elements with little ground-state weight a shot or
       two, and one draw of such an element can push an excited
       combination below E_0, an error the first-order model omits.
    2. Split the rest.  The table minimises the first-order MSE F = sum_e
       a_e / m_e, the error the sampler reports, over the tables that meet
       the floors and hold the second-order bias B = -sum_e b_e / m_e
       within BIAS_KAPPA sqrt(F), with a_e = weight_e sigma_e^2 and b_e =
       beta_e sigma_e^2 from ``_error_coefficients``
       (``_bias_weighted_table``).  The bound keeps the first-order model,
       which ``predicted_mse`` and the cost report use, within
       BIAS_KAPPA^2 of the MSE F + B^2; without it the table on H2O 1.0 A
       at 200 000 shots has B^2 = 0.76 F.  It holds before integer
       rounding: there |B| / sqrt(F) reads 0.25020 at 400 000 shots and
       0.25058 at 50 000.

    The table spends the budget unless no element's error can use it.
    Fragments inside an element share its shots in proportion to their
    deviations, one shot minimum; elements with sigma_e = 0 are exact on
    every draw and get one shot per fragment, outside the budget.  Edge
    cases: levels within DEGENERACY_TOL of E_0 count as one ground level
    and the gap is taken to the next level; a subspace with no level above
    the ground level (one state, say) has no floor and no bias term, so
    the split is the first-order optimum.  A budget below the sum of the
    floors scales each floor's part above one shot per fragment to fit,
    with a warning that gives the |B| / sqrt(F) of the scaled table, as the
    bias bound is not enforced there.  The table's predicted error is
    recorded on the returned sampler.
    """
    exact = engine.exact_matrix()
    plan = engine.sampling_plan(exact)
    # sigma_e = 0: every draw is exact, one shot per fragment
    shots = {key: [1] * len(sigs) for key, (_, sigs) in plan.items()}
    keys = [key for key, (_, sigs) in plan.items() if sum(sigs) > 0]
    spectrum = np.linalg.eigh(exact)
    coefficients = _error_coefficients(spectrum, plan)
    gap, weight, beta = coefficients
    sig = np.array([sum(plan[k][1]) for k in keys])
    n_frag = np.array([len(plan[k][1]) for k in keys], dtype=float)
    a = np.array([weight[k] for k in keys]) * sig**2
    b = np.array([beta[k] for k in keys]) * sig**2
    floor = n_frag
    if gap is not None:
        floor = np.maximum(floor, _error_floor(sig, gap))
    scaled = floor.sum() > total_shots
    if scaled:
        excess = floor - n_frag
        spare = max(total_shots - n_frag.sum(), 0.0)
        m = n_frag + (excess * spare / excess.sum() if spare > 0 else 0.0)
    else:
        m = _bias_weighted_table(floor, a, b, total_shots)
    elem = np.floor(m + 1e-9).astype(int)  # m sits on integer floors up to rounding
    short = int(round(m.sum())) - int(elem.sum())
    for i in np.argsort(elem - m, kind="stable")[: max(short, 0)]:
        elem[i] += 1
    shots.update({k: _integer_split(int(e), plan[k][1]) for k, e in zip(keys, elem)})
    sampler = MatrixSampler(
        exact=exact,
        plan=plan,
        shots=shots,
        coefficients=coefficients,
        exact_c0=spectrum[1][:, 0].copy(),  # not a view pinning every vector
        floor_shots=int(floor.sum()),
    )
    if scaled:
        log.warning(
            "shot budget %d is below the %d shots the error floors need; "
            "floors scaled to fit, so the bias bound is not enforced: "
            "|B|/sqrt(F) = %.3f against BIAS_KAPPA = %g",
            total_shots,
            sampler.floor_shots,
            abs(sampler.second_order_bias) / np.sqrt(sampler.first_order_mse),
            BIAS_KAPPA,
        )
    return sampler


def _full_register_matrix(engine: SubspaceEngine) -> np.ndarray:
    """The engine's subspace matrix built on the full 2*n_orb-qubit register.

    The reference for the tapered build (the ``--no-taper`` ablation): the
    rule of ``CsfElementEngine.matrix`` with ``hq`` itself in place of the
    tapered H', on each basis state's dense Jordan-Wigner image.
    """
    states = [full_state(b, engine.n_orb, engine.n_elec).amplitudes for b in engine.basis]
    return SupportOperator(engine.hq).matrix([real_support(amps) for amps in states])


def build_subspace(
    basis,
    hq: PauliArrays,
    n_elec: int,
    mode: str = "exact",
    shots: int | None = None,
    seed: int | None = None,
    taper: bool = True,
    constant_shift: bool = True,
    compute_sigma: bool = False,
    kernel=None,
) -> SubspaceProblem:
    """Assemble the subspace matrix and solve for its ground eigenpair.

    ``mode="sampled"`` draws finite-shot estimates for the elements that
    involve rotations, with the total budget `shots` split optimally; any
    other mode (``RunConfig`` admits only ``"exact"``) evaluates every
    element exactly.
    ``kernel`` is the geometry's element kernel (see ``SubspaceEngine``).
    A sampled build, and an exact one with ``compute_sigma``, price their
    elements in ``cost``: ``allocate_and_score`` of the sampling plan's
    deviations (the sampler's own plan in sampled mode) weighted by the
    exact matrix's ground vector.  ``taper=False`` is the ablation: the
    exact matrix is built on the full register by ``_full_register_matrix``,
    with no sampling and no cost.
    """
    engine = SubspaceEngine(
        basis, hq, n_elec, constant_shift=constant_shift, kernel=kernel
    )
    if not taper:
        if mode == "sampled":
            raise SolverError("sampling requires the tapered representation")
        if compute_sigma:
            raise SolverError("sigma accounting requires the tapered path")
    sampler = cost = None
    if mode == "sampled":
        if shots is None or seed is None:
            raise SolverError("sampled mode requires shots and seed")
        sampler = make_matrix_sampler(engine, shots)
        hmat, plan = sampler.draw(seed), sampler.plan
    else:
        hmat = engine.exact_matrix() if taper else _full_register_matrix(engine)
        plan = engine.sampling_plan(hmat) if compute_sigma else None
    e_min, c0 = ground_state(hmat)
    if plan is not None:
        sigma, fragment_sigmas = engine.sigma_matrix(plan)
        exact_c0 = c0 if sampler is None else sampler.exact_c0
        cost = allocate_and_score(sigma, exact_c0, fragment_sigmas)
    return SubspaceProblem(hmat, e_min, np.asarray(c0), sampler, cost)


# ---------------------------------------------------------------------------
# Variational optimization of pair-rotation amplitudes
# ---------------------------------------------------------------------------


# vo_optimize: stage-2b energy tolerance (Ha) and sweep cap, the stage-2a
# sweep cap, and the nudge given to an all-zero start; relax_orbitals:
# Powell's iteration cap
_TOL = 1e-7
_MAX_SWEEPS = 60
_BRANCH_SWEEPS = 20
_INITIAL_PERTURBATION = 1e-2
_RELAX_ITERATIONS = 40
# _periodic_line_search: the step (rad) that ends a search, the cap on its
# Newton/bisection steps, the relative energy change that counts as rounding
# (below it the objective is flat, and a grid point that improves on the
# current one by less is a tie), and its grids as (spacing, steps from the
# current best point): one period at pi/8, then the +-pi/8 bracket of the
# best point at pi/32
_XTOL = 1e-10
_MAX_STEPS = 64
_FLAT = 1e-15
_GRIDS = (
    (np.pi / 8.0, np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0])),
    (np.pi / 32.0, np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])),
)

# A member is linear in f(theta) = (1, cos 2 theta, sin 2 theta), so an
# element is a product f_a f_b of two of them; _PRODUCTS[a, b] writes that
# product in the Fourier basis b(theta) = (1, cos 2 theta, sin 2 theta,
# cos 4 theta, sin 4 theta).
_PRODUCTS = np.zeros((3, 3, 5))
_PRODUCTS[0, 0, 0] = 1.0
_PRODUCTS[0, 1, 1] = _PRODUCTS[1, 0, 1] = 1.0
_PRODUCTS[0, 2, 2] = _PRODUCTS[2, 0, 2] = 1.0
_PRODUCTS[1, 1, [0, 3]] = 0.5, 0.5  # cos^2 2t = (1 + cos 4t) / 2
_PRODUCTS[2, 2, [0, 3]] = 0.5, -0.5  # sin^2 2t = (1 - cos 4t) / 2
_PRODUCTS[1, 2, 4] = _PRODUCTS[2, 1, 4] = 0.5  # cos 2t sin 2t = sin 4t / 2


def _fourier_basis(th, order: int = 0) -> np.ndarray:
    """b(th) and its derivatives up to order: shape (order + 1, *np.shape(th), 5)."""
    th = np.asarray(th, dtype=float)
    out = np.zeros((order + 1,) + th.shape + (5,))
    out[0, ..., 0] = 1.0
    for col, w in ((1, 2.0), (3, 4.0)):
        c, s = np.cos(w * th), np.sin(w * th)
        for d in range(order + 1):
            out[d, ..., col], out[d, ..., col + 1] = c, s
            c, s = -w * s, w * c
    return out


class _TrigFamily:
    """theta -> sum_q b_q(theta) X[q], for coefficients X of shape (5, ...).

    Called with one angle it returns x(theta), with an array of angles the
    stack of them; ``derivatives(th)`` stacks x, x' and x'' at one angle.  A
    scalar family is itself a line-search objective.
    """

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs
        self._flat = coeffs.reshape(5, -1)

    def _combine(self, b: np.ndarray) -> np.ndarray:
        # the reshapes and product of np.tensordot(b, coeffs, axes=1)
        out = b.reshape(-1, 5) @ self._flat
        return out.reshape(b.shape[:-1] + self.coeffs.shape[1:])

    def __call__(self, th):
        # [()] makes a scalar family's value at one angle a NumPy scalar
        return self._combine(_fourier_basis(th)[0])[()]

    def derivatives(self, th) -> np.ndarray:
        return self._combine(_fourier_basis(th, 2))


class _BranchSum:
    """theta -> sum of the k lowest eigenvalues of a symmetric matrix family.

    ``derivatives(th)`` returns (E, E', E'') from one ``eigh``: the slope is
    sum_{i<k} c_i^T H' c_i (Hellmann-Feynman) and the curvature sum_{i<k}
    c_i^T H'' c_i + 2 sum_{i<k<=j} (c_j^T H' c_i)^2 / (lam_i - lam_j).
    Pairs inside the tracked branches cancel; a degenerate pair across the
    cut makes the curvature -inf or nan, which the line search treats as
    unsupported.
    """

    def __init__(self, family: _TrigFamily, k: int):
        self.family, self.k = family, k

    def __call__(self, th):
        return np.linalg.eigvalsh(self.family(th))[..., : self.k].sum(axis=-1)

    def derivatives(self, th):
        h, dh, d2h = self.family.derivatives(th)
        lam, vecs = np.linalg.eigh(h)
        k = self.k
        p = vecs.T @ dh @ vecs[:, :k]
        curv = np.sum(vecs[:, :k] * (d2h @ vecs[:, :k]))
        with np.errstate(divide="ignore", invalid="ignore"):
            curv += 2.0 * np.sum(p[k:] ** 2 / (lam[:k] - lam[k:, None]))
        return lam[:k].sum(), np.trace(p[:k]), curv


def _periodic_line_search(f, th0: float, e0: float):
    """Minimize a pi-periodic smooth objective around th0.

    f(th) is the objective, at one angle or at an array of them, and
    f.derivatives(th) its (value, slope, curvature) at one angle.  A grid
    of 8 points over one period (th0 itself valued e0) picks the best
    point, and a grid at a quarter of that spacing across its bracket picks
    again; a grid point replaces the current one only when it is lower by
    more than rounding (``_FLAT``), so a minimum that recurs a quarter
    period away does not pull the angle there.  Safeguarded Newton steps
    then run inside the +-pi/32 bracket of the pick, which each step's slope
    sign narrows; a step that leaves the bracket, or whose curvature is not
    positive, is a bisection.  The search ends at a step below ``_XTOL``
    (or after ``_MAX_STEPS``), or where slope and curvature leave no
    point of the bracket more than the energy's rounding (``_FLAT``) away,
    as along an angle the tracked levels do not feel.  It returns the best
    point seen, so the result is never worse than e0.
    """
    th, e_th = th0, e0
    for spacing, steps in _GRIDS:
        grid = th + spacing * steps
        values = f(grid)
        j = int(np.argmin(values))
        if values[j] < e_th - _FLAT * max(1.0, abs(e_th)):
            th, e_th = grid[j], values[j]
    lo, hi = th - spacing, th + spacing
    best = (th, e_th)
    for _ in range(_MAX_STEPS):
        e, slope, curv = f.derivatives(th)
        if e < best[1]:
            best = (th, e)
        if slope > 0.0:
            hi = th
        else:
            lo = th
        if curv > 0.0 and abs(slope) < curv * _XTOL:
            break  # the Newton step, too, is below _XTOL
        width = hi - lo
        if abs(slope) * width + abs(curv) * width * width < _FLAT * max(1.0, abs(e)):
            break  # no point of the bracket can be told apart from this one
        newton = curv > 0.0 and lo < th - slope / curv < hi
        nxt = th - slope / curv if newton else 0.5 * (lo + hi)
        if abs(nxt - th) < _XTOL:
            break
        th = nxt
    return float(best[0]), float(best[1])


class _SlotModel:
    """A rotation group's rows of the subspace matrix along one of its angles.

    Each member is linear in f(theta) = (1, cos 2 theta, sin 2 theta) of the
    group's angle k: psi_i(theta) = sum_a f_a U[i, a].  ``prefix`` holds the
    members after rotations[:k]; rotation k's block splits it into the three
    vectors, which then go through rotations[k+1:] as one stack.  Within the
    group element (i, j) is f^T G[i, :, j, :] f, with G[i, a, j, b] =
    <U[i, a]| X_cc |U[j, b]>, so no state is rebuilt along the line.
    ``_PRODUCTS`` turns G into Fourier coefficients in b(theta), which give
    the sum of the members' diagonal elements (``diagonal_sum``, a scalar
    ``_TrigFamily``) and the group's rows (``matrix_fn``) with their
    derivatives in closed form.  CSFs and pair rotations are real, so all
    of it is real arithmetic.  ``products`` maps each other config to
    its states' products in ``matrix_fn``; it outlives the model, and its
    owner drops a config's entry when a state of that config moves.
    """

    def __init__(
        self,
        engine: SubspaceEngine,
        members,
        k: int,
        prefix: np.ndarray,
        products: dict,
    ):
        self.engine = engine
        self.members = list(members)
        self.products = products
        rotations = engine.basis[self.members[0]].rotations
        u = pair_rotation_terms(prefix, *rotations[k][:2])
        for r, s, th in rotations[k + 1 :]:
            rotate_pair_inplace(u, r, s, th)
        self._u = u.reshape(-1, u.shape[-1])
        self._bits = engine.config(self.members[0])
        m = len(self.members)
        g = self._u @ engine.apply_xop(self._bits, self._bits, self._u).T
        self._block = np.einsum("abq,iajb->qij", _PRODUCTS, g.reshape(m, 3, m, 3))
        self.diagonal_sum = _TrigFamily(np.einsum("qii->q", self._block))

    def matrix_fn(self, h: np.ndarray) -> _TrigFamily:
        """The family theta -> h with the members' rows and columns at theta.

        Against a state nu outside the group element (i, nu) is f . R[i, :,
        nu], with R[i, a, nu] = <U[i, a]| X_c,c_nu |psi_nu>: one product per
        other config, kept in ``products``.  The rest of h does not move with
        the angle.
        """
        engine, members = self.engine, self.members
        inside = set(members)
        others = [nu for nu in range(engine.size) if nu not in inside]
        r = np.zeros((len(self._u), len(others)))
        for bits, cols in index_groups([engine.config(nu) for nu in others]).items():
            if bits not in self.products:
                psi = np.array([engine.state(others[c]).amplitudes.real for c in cols])
                self.products[bits] = engine.apply_xop(self._bits, bits, psi)
            r[:, cols] = self._u @ self.products[bits].T
        r = r.reshape(len(members), 3, len(others))
        coeffs = np.zeros((5,) + h.shape)
        coeffs[0] = h
        coeffs[np.ix_(range(5), members, members)] = 0.5 * (
            self._block + self._block.transpose(0, 2, 1)
        )
        coeffs[np.ix_(range(3), members, others)] = r.transpose(1, 0, 2)
        coeffs[np.ix_(range(3), others, members)] = r.transpose(1, 2, 0)
        return _TrigFamily(coeffs)


def vo_optimize(basis, hq: PauliArrays, n_elec: int, kernel=None):
    """Minimize the subspace ground energy over all rotation amplitudes.

    Amplitudes are shared across states with the same seniority config
    (selection builds them that way); keeping them synchronized preserves
    the basis orthogonality that the identity-overlap eigenproblem relies
    on.  Coordinate descent, one amplitude at a time: every basis state is
    linear in (1, cos 2 theta, sin 2 theta) of each of its rotation angles,
    so along one angle the subspace matrix is exactly A + B cos 2 theta +
    C sin 2 theta + D cos 4 theta + E sin 4 theta.  Each step builds the
    moved group's three vectors per member once and from them the closed
    form of its rows (``_SlotModel``).  A periodic line search minimises the
    objective of that closed form: grids locate the best bracket, then
    Newton steps on the closed-form derivatives converge in it, with a
    bisection wherever the curvature is not positive or the step leaves the
    bracket (``_periodic_line_search``).  An accepted step keeps the model's
    rows at the new angle (the sequential-minimal / Rotosolve
    scheme: Nakanishi, Fujii and Todo, PRR 2, 043158 (2020); Ostaszewski,
    Grant and Benedetti, Quantum 5, 391 (2021)).  A flat all-zero start is
    first nudged by a fixed perturbation so symmetric stationary points
    cannot pin the search.  Returns (optimized basis, SubspaceProblem,
    energy history); the history is non-increasing, and the returned
    problem is the ground state of the matrix the sweeps keep, which
    agrees with an exact rebuild of the final basis to rounding (a few
    1e-14 Ha on H2O).  A rotation-free basis has no slot to move, so each
    stage ends after its first sweep.  A stage that reaches its sweep cap
    away from tolerance logs a warning and keeps the angles it has.
    ``kernel`` is the geometry's element kernel (see ``SubspaceEngine``).
    """
    engine = SubspaceEngine(basis, hq, n_elec, kernel=kernel)
    groups = index_groups([rotation_group_key(b.csf, engine.n_orb) for b in engine.basis])
    for members in groups.values():
        pair_lists = {
            tuple((r, s) for r, s, _ in engine.basis[mu].rotations) for mu in members
        }
        if len(pair_lists) != 1:
            raise SolverError(
                "states sharing a seniority config must share one rotation list"
            )
    slots = [
        (bits, k)
        for bits, members in groups.items()
        for k in range(len(engine.basis[members[0]].rotations))
    ]

    # per group, X(c, c') applied to the stack of config c''s other states
    # (see _SlotModel.matrix_fn); they stay valid until a state of c' moves
    products = {key: {} for key in groups}

    def set_theta(bits, k, th):
        for mu in groups[bits]:
            b = engine.basis[mu]
            thetas = [rot[2] for rot in b.rotations]
            thetas[k] = th
            engine.replace_basis_state(mu, b.with_thetas(thetas))
        cfg = engine.config(groups[bits][0])
        for kept in products.values():
            kept.pop(cfg, None)

    def get_theta(bits, k):
        return engine.basis[groups[bits][0]].rotations[k][2]

    if all(th == 0.0 for b in engine.basis for _, _, th in b.rotations):
        for bits, k in slots:
            set_theta(bits, k, _INITIAL_PERTURBATION)

    # each group's members after its rotations[:k]: slots advance k by one,
    # so a step extends the previous step's prefix by one rotation
    prefixes: dict = {}

    def slot_model(bits, k):
        members = groups[bits]
        want = engine.basis[members[0]].rotations[:k]
        done, amps = prefixes.get(bits, ((), None))
        if amps is None or want[: len(done)] != done:
            done = ()
            amps = np.array([engine.csf_state(mu).amplitudes.real for mu in members])
        for r, s, th in want[len(done) :]:
            rotate_pair_inplace(amps, r, s, th)
        prefixes[bits] = (want, amps)
        return _SlotModel(engine, members, k, amps, products[bits])

    # Stage 1: settle each rotation group on its own diagonal energy.  The
    # joint objective (lowest eigenvalue) is blind to amplitudes of states
    # that are not yet part of the lowest branch, so every state is first
    # made the best state of its own sector.
    for bits, members in groups.items():
        n_rot = len(engine.basis[members[0]].rotations)
        if n_rot == 0:
            continue
        for _ in range(3):
            moved = 0.0
            for k in range(n_rot):
                th0 = get_theta(bits, k)
                diagonal_sum = slot_model(bits, k).diagonal_sum
                e0 = diagonal_sum(th0)
                th_best, e_best = _periodic_line_search(diagonal_sum, th0, e0)
                if e_best <= e0:
                    set_theta(bits, k, th_best)
                    moved = max(moved, abs(th_best - th0))
            if moved < 1e-6:
                break

    h = engine.exact_matrix()

    def descend(n_track, tol_stage, cap):
        """Coordinate-descent sweeps on the sum of h's n_track lowest
        eigenvalues; returns (values, hit_tol)."""
        e_cur = float(np.sum(np.linalg.eigvalsh(h)[:n_track]))
        values = [e_cur]
        for _ in range(cap):
            e_start = e_cur
            for bits, k in slots:
                th0 = get_theta(bits, k)
                h_of = slot_model(bits, k).matrix_fn(h)
                th_best, e_best = _periodic_line_search(
                    _BranchSum(h_of, n_track), th0, e_cur
                )
                if e_best <= e_cur:
                    set_theta(bits, k, th_best)
                    h[:] = h_of(th_best)
                    e_cur = e_best
            values.append(e_cur)
            if abs(e_start - e_cur) < tol_stage:
                return values, True
        return values, False

    # Stage 2a: with near-degenerate branches in the starting spectrum, the
    # lowest eigenvalue is blind to the other branches' amplitudes; descend
    # on the sum of the tracked branches first so each one settles.
    vals = np.linalg.eigvalsh(h)
    k_track = int(np.sum(vals - vals[0] <= 0.15))
    k_track = min(max(k_track, 1), 4, len(vals))
    if k_track > 1:
        branch_values, settled = descend(k_track, 10 * _TOL, _BRANCH_SWEEPS)
        if not settled:
            log.warning(
                "branch-sum descent hit its %d-sweep cap at dE=%.3e",
                _BRANCH_SWEEPS,
                branch_values[-2] - branch_values[-1],
            )

    # Stage 2b: the reported objective, the subspace ground energy.
    history, converged = descend(1, _TOL, _MAX_SWEEPS)
    if not converged:
        log.warning(
            "amplitude optimization hit the sweep cap at dE=%.3e",
            history[-2] - history[-1],
        )

    e_min, c0 = ground_state(h)
    return tuple(engine.basis), SubspaceProblem(h, e_min, c0), history


def relax_orbitals(basis, ints: FermionIntegrals):
    """Minimize the subspace energy over a common orbital rotation.

    The outer loop transforms the integrals by exp(t), rebuilds the qubit
    Hamiltonian, and re-solves the subspace problem; amplitudes inside the
    basis are held fixed.  Occupied-virtual rotations only.  Returns (t*,
    e_min, history of accepted energies).
    """
    n_amplitudes = ints.n_occ * (ints.n_orb - ints.n_occ)
    best = {"e": np.inf, "x": np.zeros(n_amplitudes)}
    history = []

    def objective(x):
        hq = jordan_wigner(rotate_orbitals(ints, occ_virt_rotation(ints, x)))
        problem = build_subspace(basis, hq, ints.n_elec, mode="exact")
        if problem.e_min < best["e"] - 1e-14:
            best["e"] = problem.e_min
            best["x"] = np.array(x, dtype=float)
            history.append(problem.e_min)
        return problem.e_min

    import scipy.optimize

    x0 = np.zeros(n_amplitudes)
    objective(x0)  # the start is the first best point; the best only falls
    res = scipy.optimize.minimize(
        objective, x0, method="Powell", options={"maxiter": _RELAX_ITERATIONS, "xtol": 1e-6}
    )
    if not res.success:
        log.warning("orbital relaxation stopped early: %s", res.message)
    return occ_virt_rotation(ints, best["x"]), float(best["e"]), history
