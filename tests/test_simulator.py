import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import oracles
from algebra import (
    PauliProduct,
    PauliSum,
    StateVector,
    SubspaceEngine,
    expectation,
    matrix_element_exact,
    tapering_clifford,
)
from oracles import as_arrays, as_sum
from senqse import simulator, solver, taper
from senqse.csfbasis import (
    CsfElementEngine,
    create_csfs,
    default_selection_params,
    full_state,
    parse_basis,
    select_basis_pt,
    select_basis_vo,
)
from senqse.fermion import jordan_wigner, load_fcidump
from senqse.measure import (
    allocate_and_score,
    build_swap_operator,
    fragment_variance,
    sorted_insertion,
)
from senqse.pauli import PauliArrays
from senqse.simulator import (
    BLOCK_AMPLITUDES,
    FragmentSampler,
    SimulatorError,
    apply_pauli_sum,
    prepare_swap_state,
    rng_for,
)
from senqse.solver import build_subspace, vo_optimize
from senqse.taper import SectorHamiltonian, SupportOperator, real_support

FIXTURES = Path(__file__).parent / "fixtures"


def random_state(rng, n, real=False):
    amps = rng.normal(size=2**n)
    if not real:
        amps = amps + 1j * rng.normal(size=2**n)
    return StateVector.from_amplitudes(amps, n, normalize=True)


def outcome_variance(sampler):
    """Variance of one draw from the sampler's outcome distribution."""
    return float(sampler.probs @ sampler.values**2 - sampler.mean**2)


def random_sum(rng, n, terms, real=True):
    s = PauliSum(n)
    for label, c in oracles.random_pauli_sum_pairs(rng, n, terms, real=real):
        s.add_product(PauliProduct.from_label(label, n), c)
    return as_arrays(s)


def real_matrix_sum(rng, n, terms):
    """``random_sum`` with real coefficients, kept on its products with an
    even count of Y factors, so its matrix is real and symmetric."""
    op = random_sum(rng, n, terms)
    even = np.bitwise_count(op.keys[:, 0] & op.keys[:, 1]) % 2 == 0
    return PauliArrays(n, op.keys[even], op.coeffs[even])


class TestStateVector:
    def test_nan_amplitude_refused(self):
        # a nan norm compares False with the tolerance, so it must fail
        with pytest.raises(SimulatorError, match="norm"):
            simulator.StateVector(np.array([np.nan, 0.0]), 1)


class TestExpectation:
    def test_zero_state_z(self):
        st = StateVector.computational(0, 1)
        assert expectation(st, as_arrays(PauliSum.from_label("Z0", 1.0, 1))) == pytest.approx(1.0)

    def test_plus_state_x(self):
        st = StateVector.from_amplitudes([1, 1], 1, normalize=True)
        assert expectation(st, as_arrays(PauliSum.from_label("X0", 1.0, 1))) == pytest.approx(1.0)

    def test_random_against_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            st = random_state(rng, 3)
            op = random_sum(rng, 3, 5, real=False)
            ref = np.vdot(st.amplitudes, oracles.sum_matrix(op) @ st.amplitudes)
            assert expectation(st, op) == pytest.approx(ref, abs=1e-12)

    def test_hermitian_gives_real(self):
        rng = np.random.default_rng(19)
        st = random_state(rng, 3)
        op = random_sum(rng, 3, 6, real=True)
        assert abs(expectation(st, op).imag) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(SimulatorError):
            expectation(StateVector.computational(0, 2), as_arrays(PauliSum(3)))


class TestMatrixElement:
    def test_identity_diagonal(self):
        st = StateVector.computational(3, 2)
        one = as_arrays(PauliSum(2, {(0, 0): 1.0}))
        assert matrix_element_exact(st, one, st) == pytest.approx(1.0)

    def test_orthogonal_diagonal_op(self):
        a = StateVector.computational(0, 2)
        b = StateVector.computational(1, 2)
        op = as_arrays(PauliSum.from_label("Z0 Z1", 0.7, 2))
        assert matrix_element_exact(a, op, b) == pytest.approx(0.0)

    def test_support_operator_refuses_imaginary_amplitudes_and_terms(self):
        # 0.5 Z0 + 2e-9 i X0 X1 (factor 2e-9 i) + 0.25 X1 on two qubits: the
        # imaginary term is refused only where it links two support indices
        op = as_arrays(PauliSum(2, {(0, 1): 0.5, (3, 0): 2e-9j, (2, 0): 0.25}))
        states = [real_support(np.array([1.0, 0, 0, 0])), real_support(np.array([0, 0, 1.0, 0]))]
        assert SupportOperator(op).matrix(states).tolist() == [[0.5, 0.25], [0.25, 0.5]]
        with pytest.raises(SimulatorError, match="imaginary part"):
            SupportOperator(op).matrix([real_support(np.array([0, 1.0, 1.0, 0]) / np.sqrt(2))])
        # the refusal reads each X string's summed |imaginary part| against
        # 1e-10: 0.6e-10 i on each of X0 X1 and Y0 Y1 is refused, and
        # 0.4e-10 i on each is not
        ket = [real_support(np.array([1.0, 0, 0, 0])), real_support(np.array([0, 0, 0, 1.0]))]
        for imag, refused in ((0.6e-10, True), (0.4e-10, False)):
            op = as_arrays(PauliSum(2, {(3, 0): 0.5 + imag * 1j, (3, 3): 0.25 - imag * 1j}))
            if refused:
                with pytest.raises(SimulatorError, match="imaginary part"):
                    SupportOperator(op).matrix(ket)
            else:
                SupportOperator(op).matrix(ket)
        with pytest.raises(SimulatorError, match="imaginary amplitude"):
            real_support(np.array([0.6, 0.8j, 0, 0]))

    def test_support_operator_skips_a_chunk_that_links_nothing(self, monkeypatch):
        # one support index: only x = 0 links it, so every later chunk of
        # X strings is empty, at the default chunk size (2100 X strings on
        # 12 qubits, one index) and at one X string per chunk
        keys = np.stack([np.arange(2100, dtype=np.uint64), np.zeros(2100, np.uint64)], axis=1)
        op = PauliArrays(12, keys, np.linspace(1.0, 2.0, 2100) + 0j)
        hf = np.zeros(1 << 12)
        hf[0] = 1.0
        assert SupportOperator(op).matrix([real_support(hf)]).tolist() == [[1.0]]
        monkeypatch.setattr(taper, "_PAIRS", 1)
        z0_x0 = as_arrays(PauliSum(2, {(0, 1): 0.5, (1, 0): 0.25}))
        state = [real_support(np.array([1.0, 0, 0, 0]))]
        assert SupportOperator(z0_x0).matrix(state).tolist() == [[0.5]]

    def test_swap_state_reproduces_element(self):
        # <a|op|b> = <Phi|(x + i y)/1 (x) op|Phi> with the ancilla on top
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = 3
            a, b = random_state(rng, n), random_state(rng, n)
            op = random_sum(rng, n, 4, real=False)
            phi = prepare_swap_state(a, b)
            ext = PauliSum(n + 1)
            for (x, z), c in op.items():
                ext.add_term(x | (1 << n), z, c)  # x (x) P
                p = PauliProduct(n + 1, x | (1 << n), z | (1 << n))
                ext.add_term(p.x_bits, p.z_bits, 1j * c * p.phase)  # i y (x) P
            got = expectation(phi, as_arrays(ext))
            ref = matrix_element_exact(a, op, b)
            assert got == pytest.approx(ref, abs=1e-12)


class TestSwapState:
    def test_equal_inputs_product_state(self):
        rng = np.random.default_rng(29)
        a = random_state(rng, 2)
        phi = prepare_swap_state(a, a)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        ref = np.kron(plus, a.amplitudes)  # ancilla is the top qubit
        assert np.allclose(phi.amplitudes, ref)

    def test_orthogonal_inputs(self):
        a = StateVector.computational(0, 2)
        b = StateVector.computational(2, 2)
        phi = prepare_swap_state(a, b)
        x_anc = as_arrays(PauliSum.from_label("X2", 1.0, 3))
        assert expectation(phi, x_anc) == pytest.approx(0.0, abs=1e-14)

    def test_ancilla_x_gives_real_overlap(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a, b = random_state(rng, 2), random_state(rng, 2)
            phi = prepare_swap_state(a, b)
            x_anc = as_arrays(PauliSum.from_label("X2", 1.0, 3))
            assert expectation(phi, x_anc).real == pytest.approx(
                a.overlap(b).real, abs=1e-12
            )

    def test_normalized_regardless_of_overlap(self):
        rng = np.random.default_rng(37)
        a, b = random_state(rng, 2), random_state(rng, 2)
        phi = prepare_swap_state(a, b)
        assert np.linalg.norm(phi.amplitudes) == pytest.approx(1.0)


class TestSampling:
    def test_identity_fragment_exact(self):
        st = StateVector.computational(0, 2)
        frag = as_arrays(PauliSum(2, {(0, 0): 0.375}))
        est = FragmentSampler(st, frag).sample(7, rng_for(1, 0))
        assert est == pytest.approx(0.375)

    def test_eigenstate_deterministic(self):
        st = StateVector.computational(0, 1)
        frag = as_arrays(PauliSum.from_label("Z0", 1.0, 1))
        sampler = FragmentSampler(st, frag)
        assert sampler.sample(50, rng_for(3, 0)) == pytest.approx(1.0)
        assert outcome_variance(sampler) == pytest.approx(0.0, abs=1e-14)
        assert sampler.variance == 0.0

    def test_binomial_bound(self):
        st = StateVector.from_amplitudes([1, 1], 1, normalize=True)
        frag = as_arrays(PauliSum.from_label("Z0", 1.0, 1))
        est = FragmentSampler(st, frag).sample(10**4, rng_for(5, 0))
        assert abs(est) < 4.0 / np.sqrt(10**4)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(41)
        st = random_state(rng, 3, real=True)
        frag = as_arrays(
            PauliSum.from_label("Z0 Z2", 0.4, 3) + PauliSum.from_label("Z1", -0.3, 3)
        )
        sampler = FragmentSampler(st, frag)
        r1 = sampler.sample(100, rng_for(11, 2, 5, 0))
        r2 = sampler.sample(100, rng_for(11, 2, 5, 0))
        r3 = sampler.sample(100, rng_for(11, 2, 6, 0))
        assert r1 == r2
        assert r1 != r3

    def test_sample_draws_the_distinct_values(self):
        # 0.5 Z0 + 0.5 Z1 reads 0 on two of its four joint outcomes
        rng = np.random.default_rng(53)
        st = random_state(rng, 2, real=True)
        frag = as_arrays(PauliSum.from_label("Z0", 0.5, 2) + PauliSum.from_label("Z1", 0.5, 2))
        sampler = FragmentSampler(st, frag)
        probs, values = oracles.distinct_values(sampler.probs, sampler.values)
        assert len(sampler.values) == 4 and sorted(values) == [-1.0, 0.0, 1.0]
        assert np.all(np.diff(probs) <= 0.0)
        counts = rng_for(9, 0).multinomial(40, probs)
        assert sampler.sample(40, rng_for(9, 0)) == float(counts @ values) / 40

    def test_noncommuting_fragment_rejected(self):
        st = StateVector.computational(0, 1)
        frag = as_arrays(PauliSum.from_label("Z0", 1.0, 1) + PauliSum.from_label("X0", 1.0, 1))
        with pytest.raises(SimulatorError, match="commute"):
            FragmentSampler(st, frag).sample(10, rng_for(1, 0))

    def test_unbiasedness_many_seeds(self):
        rng = np.random.default_rng(43)
        st = random_state(rng, 2, real=True)
        frag = as_arrays(
            PauliSum.from_label("Z0 Z1", 0.8, 2) + PauliSum.from_label("X0 X1", 0.5, 2)
        )
        sampler = FragmentSampler(st, frag)
        shots = 64
        estimates = [
            sampler.sample(shots, rng_for(7, k)) for k in range(250)
        ]
        mean = np.mean(estimates)
        sem = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
        assert abs(mean - sampler.mean) < 4 * sem

    def test_single_shot_variance_matches(self):
        rng = np.random.default_rng(47)
        st = random_state(rng, 2, real=True)
        frag = as_arrays(PauliSum.from_label("Z0", 0.6, 2) + PauliSum.from_label("Z0 Z1", 0.3, 2))
        sampler = FragmentSampler(st, frag)
        outcomes = [sampler.sample(1, rng_for(13, k)) for k in range(4000)]
        emp_var = np.var(outcomes, ddof=1)
        # standard error of a variance estimator ~ var * sqrt(2/(n-1))
        var = outcome_variance(sampler)
        se = var * np.sqrt(2.0 / (len(outcomes) - 1)) + 1e-12
        assert abs(emp_var - var) < 3 * se + 0.05 * var

    def test_dense_matrix_matches_oracle(self):
        # the pass on every index and on a random sorted half of them, on
        # registers of 1 to 9 qubits: an index's high part has
        # n_qubits - n_qubits // 2 bits, one more than its low part when
        # the register is odd
        rng = np.random.default_rng(53)
        for n_qubits in range(1, 10):
            op = real_matrix_sum(rng, n_qubits, min(12, 4**n_qubits))
            want = oracles.sum_matrix(op)
            assert not want.imag.any()
            every = np.arange(2**n_qubits, dtype=np.uint64)
            some = np.sort(rng.choice(every, max(1, len(every) // 2), replace=False))
            for support in (every, some):
                got = SupportOperator(op).dense(support)
                assert np.allclose(got, want.real[np.ix_(support, support)], atol=1e-12)


def bits(amps):
    """The IEEE bit patterns of complex amplitudes, which tell -0.0 from 0.0."""
    return np.ascontiguousarray(amps).view(np.uint64)


def assert_applies_like_oracle(amps, n_qubits, op):
    """apply_pauli_sum equals bit for bit, signed zeros included, the dense
    gather pass it replaced on the whole of ``amps`` (one state or a stack)
    and the term-by-term loop on each state."""
    got = apply_pauli_sum(amps, op)
    assert got.shape == amps.shape
    assert np.array_equal(bits(got), bits(oracles.dense_gather_apply(amps, n_qubits, op)))
    dim = 2**n_qubits
    for row, state in zip(got.reshape(-1, dim), amps.reshape(-1, dim)):
        assert np.array_equal(bits(row), bits(oracles.term_by_term_apply(state, n_qubits, op)))


class TestApplyPauliSum:
    @pytest.mark.parametrize("stem", ["h2_0.7414", "h2_1.0000", "h2_1.5000"])
    def test_h2_effective_operators(self, stem):
        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        hq = jordan_wigner(ints)
        rng = np.random.default_rng(83)
        table = SectorHamiltonian(hq)
        for v in range(4):
            for w in range(4):
                amps = random_state(rng, 2).amplitudes
                assert_applies_like_oracle(amps, 2, table.op(v, w))
        params = default_selection_params(ints)
        for basis in (select_basis_vo(ints, hq, params), select_basis_pt(ints, hq, params)):
            engine = SubspaceEngine(basis, hq, ints.n_elec)
            for mu in range(engine.size):
                for nu in range(engine.size):
                    ket = engine.state(nu).amplitudes
                    assert_applies_like_oracle(ket, 2, engine.xop(mu, nu))

    def test_h2o_sampled_config_pairs(self):
        hq = jordan_wigner(load_fcidump(FIXTURES / "h2o_1.0000.fcidump"))
        n_orb = hq.n_qubits // 2
        table = SectorHamiltonian(hq)
        rng = np.random.default_rng(89)
        for v, w in rng.integers(0, 2**n_orb, size=(200, 2)):
            amps = random_state(rng, n_orb).amplitudes
            assert_applies_like_oracle(amps, n_orb, table.op(int(v), int(w)))

    def test_h2o_swap_operators(self, h2o_fragments):
        swaps = [(s, f) for s, f in h2o_fragments if s.n_qubits == 8]
        assert swaps
        whole = {}
        for state, frag in swaps:
            assert_applies_like_oracle(state.amplitudes, 8, frag)
            key = id(state)
            whole[key] = (state, whole[key][1] + as_sum(frag) if key in whole else as_sum(frag))
        for state, op in whole.values():
            assert_applies_like_oracle(state.amplitudes, 8, as_arrays(op))

    def test_full_register_crosses_blocks(self):
        hq = jordan_wigner(load_fcidump(FIXTURES / "h2o_1.0000.fcidump"))
        n = hq.n_qubits
        step = BLOCK_AMPLITUDES // 2**n
        assert 1 <= step < hq.n_terms and hq.n_terms % step != 0
        amps = random_state(np.random.default_rng(97), n).amplitudes
        assert_applies_like_oracle(amps, n, hq)

    def test_empty_and_identity_only(self):
        amps = random_state(np.random.default_rng(101), 3).amplitudes
        assert_applies_like_oracle(amps, 3, as_arrays(PauliSum(3)))
        assert not apply_pauli_sum(amps, as_arrays(PauliSum(3))).any()
        ident = as_arrays(PauliSum(3, {(0, 0): -0.625 + 0.25j}))
        assert_applies_like_oracle(amps, 3, ident)
        assert np.array_equal(apply_pauli_sum(amps, ident), (-0.625 + 0.25j) * amps)

    def test_length_mismatch(self):
        # the register is the operator's: on a 2-qubit state a 3-qubit Z2
        # would read as the identity, and X2 would index past the state
        for label in ("", "Z2", "X2"):
            op = PauliSum.from_label(label, 1.0, 3) if label else PauliSum(3)
            with pytest.raises(SimulatorError):
                apply_pauli_sum(np.ones(4, dtype=complex), as_arrays(op))

    def test_dense_matrix_columns_are_applied_basis_states(self):
        # column j of the pass's dense matrix is op|j>: both sum each
        # entry's terms from +0 in term order
        rng = np.random.default_rng(103)
        op = real_matrix_sum(rng, 4, 40)
        mat = SupportOperator(op).dense(np.arange(16, dtype=np.uint64))
        for j in range(16):
            ket = np.zeros(16, dtype=complex)
            ket[j] = 1.0
            applied = apply_pauli_sum(ket, op)
            assert not applied.imag.any()
            assert np.array_equal(mat[:, j], applied.real)


@pytest.fixture(scope="module")
def h2o_pt_kernel():
    """The element kernel of the H2O 1.0 A PT selection at the acceptance
    settings, its PT basis, and every (bra config, CSF ket) pair of the
    created CSFs that some term links, with the pair's operator built."""
    ints = load_fcidump(FIXTURES / "h2o_1.0000.fcidump")
    hq = jordan_wigner(ints)
    kernel = CsfElementEngine(hq, ints.n_elec)
    params = default_selection_params(ints, eps1=1e-5, eps2=1e-6, n_active_occ=5)
    basis = select_basis_pt(ints, hq, params, kernel=kernel)
    specs = create_csfs(params, ints.n_orb, ints.n_elec)
    configs = {kernel.bits(s) for s in specs}
    linked = [(c, s) for c in configs for s in specs if kernel.xop(c, kernel.bits(s))]
    return kernel, basis, linked


class TestSupportPass:
    """apply_pauli_sum from the nonzero amplitudes only, bit for bit."""

    def test_every_pt_kernel_product(self, h2o_pt_kernel):
        # each linked (bra config, created CSF) pair's operator on the CSF
        kernel, _, linked = h2o_pt_kernel
        assert len(linked) > 200
        for bra_bits, spec in linked:
            amps = kernel.state(spec).amplitudes
            assert np.count_nonzero(amps) < len(amps)
            assert_applies_like_oracle(amps, kernel.n_orb, kernel.xop(bra_bits, kernel.bits(spec)))

    def test_kernel_operators_match_dict_table(self, h2o_pt_kernel, h2o_engine):
        # every effective operator the PT kernel and the VO basis memoise
        for mu in range(h2o_engine.size):
            for nu in range(h2o_engine.size):
                h2o_engine.xop(mu, nu)
        for kernel in (h2o_pt_kernel[0], h2o_engine.kernel):
            ref = oracles.DictSectorTable(kernel.hq, tapering_clifford(kernel.n_orb))
            assert len(kernel.sectors._ops) > 20
            for (v, w), op in kernel.sectors._ops.items():
                want = ref.op(v, w)
                assert op.keys.tolist() == [list(key) for key, _ in want.items()]
                want_coeffs = np.array([c for _, c in want.items()], dtype=complex)
                assert np.array_equal(bits(op.coeffs), bits(want_coeffs))

    def test_rotated_vo_kets(self, h2o_engine):
        rotated = [nu for nu in range(h2o_engine.size) if h2o_engine.basis[nu].rotations]
        assert rotated
        for nu in rotated:
            ket = h2o_engine.state(nu).amplitudes
            for mu in range(h2o_engine.size):
                op = h2o_engine.xop(mu, nu)
                if op:
                    assert_applies_like_oracle(ket, h2o_engine.n_orb, op)

    def test_stack_of_disjoint_supports(self, h2o_pt_kernel):
        kernel, basis, _ = h2o_pt_kernel
        taken = np.zeros(2**kernel.n_orb, dtype=bool)
        specs = []
        for b in basis:
            support = kernel.state(b.csf).amplitudes != 0
            if not np.any(taken & support):
                taken |= support
                specs.append(b.csf)
        assert len(specs) > 2
        stack = np.array([kernel.state(spec).amplitudes for spec in specs])
        configs = {kernel.bits(b.csf) for b in basis}
        for spec in specs:
            for bra_bits in configs:
                op = kernel.xop(bra_bits, kernel.bits(spec))
                if op:
                    assert_applies_like_oracle(stack, kernel.n_orb, op)

    def test_signed_zero_and_all_zero_states(self):
        rng = np.random.default_rng(107)
        op = random_sum(rng, 5, 30, real=False)
        amps = np.zeros(32, dtype=complex)
        assert_applies_like_oracle(amps, 5, op)
        assert not np.any(bits(apply_pauli_sum(amps, op)))  # every entry +0
        amps[[1, 6, 9, 20]] = [complex(-0.0, 0.0), complex(0.0, -0.0), -0.0, 0.5]
        amps[[3, 11]] = [complex(-0.0, 0.75), complex(-0.25, -0.0)]
        assert_applies_like_oracle(amps, 5, op)
        assert_applies_like_oracle(np.array([amps, np.zeros(32, dtype=complex)]), 5, op)

    @pytest.mark.parametrize("n", [1, 3, 6, 8])
    def test_dense_random_states(self, n):
        rng = np.random.default_rng(109 + n)
        for real in (True, False):
            op = random_sum(rng, n, 4 * n, real=real)
            assert_applies_like_oracle(random_state(rng, n).amplitudes, n, op)
            stack = np.array([random_state(rng, n).amplitudes for _ in range(3)])
            assert_applies_like_oracle(stack, n, op)

    def test_full_register_images_cross_term_blocks(self, h2o_engine):
        # a stack of sparse full-register images and one dense state: each
        # state is applied on its own, so only the dense one's terms are
        # split into blocks, and every row is the oracle's
        n = 2 * h2o_engine.n_orb
        images = [
            full_state(b, h2o_engine.n_orb, h2o_engine.n_elec).amplitudes
            for b in h2o_engine.basis[:3]
        ]
        stack = np.array(images + [random_state(np.random.default_rng(103), n).amplitudes])
        steps = BLOCK_AMPLITUDES // np.count_nonzero(stack, axis=1)
        hq = h2o_engine.hq
        assert min(steps[:-1]) >= hq.n_terms > steps[-1] >= 1
        assert hq.n_terms % steps[-1] != 0
        assert_applies_like_oracle(images[0], n, hq)
        assert_applies_like_oracle(stack, n, hq)

    def test_scatter_blocks_hold_at_most_block_amplitudes(self, h2o_engine, monkeypatch):
        sizes = []

        class CountingNumpy:
            """numpy with add.at recording how many entries it scatters."""

            @staticmethod
            def _add_at(out, index, values):
                sizes.append(len(index))
                np.add.at(out, index, values)

            add = types.SimpleNamespace(at=_add_at)

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(simulator, "np", CountingNumpy())
        images = np.array(
            [
                full_state(b, h2o_engine.n_orb, h2o_engine.n_elec).amplitudes
                for b in h2o_engine.basis
            ]
        )
        apply_pauli_sum(images, h2o_engine.hq)
        assert len(sizes) > 1 and max(sizes) <= BLOCK_AMPLITUDES
        # a block holds one term at least, whatever the bound
        sizes.clear()
        monkeypatch.setattr(simulator, "BLOCK_AMPLITUDES", 1)
        apply_pauli_sum(images[0], h2o_engine.hq)
        assert sizes == [np.count_nonzero(images[0])] * h2o_engine.hq.n_terms


def element_fragments(engine):
    """(state, fragment) for every fragment of every sampled element."""
    out = []
    for mu in range(engine.size):
        for nu in range(mu, engine.size):
            if not engine.is_classical(mu, nu):
                state, frags = engine.element_measurables(mu, nu)
                out.extend((state, f) for f in frags)
    return out


@pytest.fixture(scope="module")
def h2_vo_engines():
    out = []
    for stem in ("h2_0.7414", "h2_1.0000", "h2_1.5000"):
        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        hq = jordan_wigner(ints)
        # a strict trim keeps one state with a rotation, so its element is sampled
        basis = select_basis_vo(ints, hq, default_selection_params(ints, eps1=0.5))
        basis, _, _ = vo_optimize(basis, hq, ints.n_elec)
        out.append(SubspaceEngine(basis, hq, ints.n_elec))
    return out


@pytest.fixture(scope="module")
def h2_vo_fragments(h2_vo_engines):
    return [pair for engine in h2_vo_engines for pair in element_fragments(engine)]


@pytest.fixture(scope="module")
def h2o_engine():
    """The engine of the optimized H2O 1.0 A VO basis."""
    ints = load_fcidump(FIXTURES / "h2o_1.0000.fcidump")
    basis = parse_basis((FIXTURES / "h2o_1.0000.vo.basis.txt").read_text())
    return SubspaceEngine(basis, jordan_wigner(ints), ints.n_elec)


@pytest.fixture(scope="module")
def h2o_fragments(h2o_engine):
    """Every fragment of the optimized H2O 1.0 A VO basis."""
    return element_fragments(h2o_engine)


def merged_difference(ours, theirs, tol=1e-8):
    """Per-value probability differences, outcomes of values within tol merged.

    An outcome absent from one side counts as probability zero there.
    """
    values = np.concatenate([ours[0], theirs[0]])
    probs = np.concatenate([ours[1], -theirs[1]])
    order = np.argsort(values, kind="stable")
    groups = np.concatenate([[0], np.cumsum(np.diff(values[order]) > tol)])
    return np.bincount(groups, weights=probs[order])


def assert_matches_eigh(state, fragment):
    sampler = FragmentSampler(state, fragment)
    ref = oracles.eigh_fragment_distribution(state.amplitudes, fragment)
    diff = merged_difference((sampler.values, sampler.probs), ref)
    assert np.max(np.abs(diff)) < 1e-10
    assert sampler.probs.sum() == pytest.approx(1.0, abs=1e-14)
    return sampler


def assert_moments_exact(state, fragment, sampler):
    amps = state.amplitudes
    mean = np.vdot(amps, apply_pauli_sum(amps, fragment)).real
    assert sampler.mean == pytest.approx(mean, abs=1e-10)
    var = oracles.per_state_variance(state, fragment)
    assert sampler.variance == pytest.approx(var, abs=1e-10)
    assert fragment_variance(state, fragment) == pytest.approx(var, abs=1e-10)


class TestFragmentDistribution:
    def test_h2_vo_fragments_match_eigh(self, h2_vo_fragments):
        assert len(h2_vo_fragments) >= 3
        for state, frag in h2_vo_fragments:
            sampler = assert_matches_eigh(state, frag)
            assert_moments_exact(state, frag, sampler)

    def test_h2o_fragment_subset_matches_eigh(self, h2o_fragments):
        assert len(h2o_fragments) == 1030
        rng = np.random.default_rng(59)
        for k in rng.choice(len(h2o_fragments), size=100, replace=False):
            state, frag = h2o_fragments[k]
            sampler = assert_matches_eigh(state, frag)
            assert_moments_exact(state, frag, sampler)

    def test_h2o_moments_match_fragment_variance(self, h2o_fragments):
        for state, frag in h2o_fragments:
            assert_moments_exact(state, frag, FragmentSampler(state, frag))

    def test_identity_only_fragment(self):
        state = random_state(np.random.default_rng(61), 2)
        sampler = assert_matches_eigh(state, as_arrays(PauliSum(2, {(0, 0): -0.625})))
        assert sampler.values.tolist() == [-0.625]
        assert sampler.probs.tolist() == [1.0]

    def test_dependent_terms(self):
        # Z0 Z1 is the product of the first two terms: two generators
        rng = np.random.default_rng(67)
        state = random_state(rng, 2)
        frag = as_arrays(
            PauliSum.from_label("Z0", 0.3, 2)
            + PauliSum.from_label("Z1", -0.2, 2)
            + PauliSum.from_label("Z0 Z1", 0.7, 2)
        )
        sampler = assert_matches_eigh(state, frag)
        assert len(sampler.values) == 4
        assert_moments_exact(state, frag, sampler)

    def test_negative_product_sign(self):
        # Y0 Y1 = -(X0 X1)(Z0 Z1); the Bell state reads +1, +1, -1 on them
        frag = as_arrays(
            PauliSum.from_label("X0 X1", 0.5, 2)
            + PauliSum.from_label("Z0 Z1", 0.25, 2)
            + PauliSum.from_label("Y0 Y1", 0.125, 2)
        )
        bell = StateVector.from_amplitudes([1, 0, 0, 1], 2, normalize=True)
        sampler = assert_matches_eigh(bell, frag)
        assert sampler.values == pytest.approx([0.5 + 0.25 - 0.125], abs=1e-15)
        rng = np.random.default_rng(71)
        state = random_state(rng, 2)
        assert_moments_exact(state, frag, assert_matches_eigh(state, frag))

    def test_eigenstate_drops_zero_probability_outcomes(self):
        # |1> (x) |+>: Z0 reads -1 and X1 reads +1 with certainty
        frag = as_arrays(PauliSum.from_label("Z0", 0.75, 2) + PauliSum.from_label("X1", 0.5, 2))
        state = StateVector.from_amplitudes([0, 1, 0, 1], 2, normalize=True)
        sampler = assert_matches_eigh(state, frag)
        assert sampler.values == pytest.approx([-0.75 + 0.5], abs=1e-15)
        assert sampler.probs.tolist() == [1.0]
        assert outcome_variance(sampler) == pytest.approx(0.0, abs=1e-15)
        assert sampler.variance == 0.0

    def test_noncommuting_later_term_rejected(self):
        # X0 X1 commutes with Z0 Z1 but not with Z0
        frag = as_arrays(
            PauliSum.from_label("Z0 Z1", 1.0, 2)
            + PauliSum.from_label("Z0", 0.5, 2)
            + PauliSum.from_label("X0 X1", 0.25, 2)
        )
        with pytest.raises(SimulatorError, match="Z0 and X0 X1 do not commute"):
            FragmentSampler(StateVector.computational(0, 2), frag)


def random_stabilizer_words(rng, n, m):
    """m independent commuting Pauli words (x, z) on n qubits: Z_0 .. Z_m-1
    carried through 8n random H, S and CNOT gates acting on their bits."""
    x, z = [0] * m, [1 << q for q in range(m)]
    for _ in range(8 * n):
        gate = rng.integers(3)
        c, t = (int(q) for q in rng.choice(n, size=2, replace=False))
        for i in range(m):
            if gate == 0:  # H on c swaps its X and Z bits
                flip = ((x[i] ^ z[i]) >> c & 1) << c
                x[i], z[i] = x[i] ^ flip, z[i] ^ flip
            elif gate == 1:  # S on c: X -> Y
                z[i] ^= x[i] & 1 << c
            else:  # CNOT c -> t: X_c -> X_c X_t, Z_t -> Z_c Z_t
                x[i] ^= (x[i] >> c & 1) << t
                z[i] ^= (z[i] >> t & 1) << c
    return list(zip(x, z))


def group_fragment(rng, n, words, n_terms):
    """Random real coefficients on the words and on n_terms random products
    of them (the identity among them), one commuting fragment."""
    frag = PauliSum(n)
    for x, z in words:
        frag.add_term(x, z, rng.normal())
    for _ in range(n_terms):
        mask = int(rng.integers(2 ** len(words)))
        x = z = 0
        for i, (wx, wz) in enumerate(words):
            if mask >> i & 1:
                x, z = x ^ wx, z ^ wz
        frag.add_term(x, z, rng.normal())
    return as_arrays(frag)


def sparse_state(rng, n, size):
    """A random state on `size` random indices of the register."""
    amps = np.zeros(2**n, dtype=complex)
    support = rng.choice(2**n, size=size, replace=False)
    amps[support] = rng.normal(size=size) + 1j * rng.normal(size=size)
    return StateVector.from_amplitudes(amps, n, normalize=True)


def split_ranks(fragment):
    """(k, r): the fragment's generators, and those with independent X words."""
    gens, _, _ = simulator._generators(fragment)
    xs, _, _, _, _ = simulator._coset_basis(gens)
    return len(gens), len(xs)


class TestCosetTransform:
    """The coset transform against dense eigh, across its split ranks."""

    def test_pure_z_generators(self):
        rng = np.random.default_rng(211)
        for n in range(2, 6):
            words = [(0, int(rng.integers(1, 2**n))) for _ in range(n)]
            frag = group_fragment(rng, n, words, 3)
            assert split_ranks(frag)[1] == 0
            for state in (random_state(rng, n), sparse_state(rng, n, 3)):
                assert_moments_exact(state, frag, assert_matches_eigh(state, frag))

    def test_full_rank_generators(self):
        # graph-state stabilizers X_q Z^N(q): every X word independent
        rng = np.random.default_rng(223)
        for n in range(2, 6):
            upper = np.triu(rng.integers(0, 2, size=(n, n)), 1)
            adjacency = upper + upper.T
            words = [
                (1 << q, int(sum(int(b) << p for p, b in enumerate(adjacency[q]))))
                for q in range(n)
            ]
            frag = group_fragment(rng, n, words, 4)
            assert split_ranks(frag) == (n, n)
            for state in (random_state(rng, n), sparse_state(rng, n, 2)):
                assert_moments_exact(state, frag, assert_matches_eigh(state, frag))

    def test_identity_only_fragment(self):
        rng = np.random.default_rng(227)
        for n in range(1, 5):
            frag = as_arrays(PauliSum(n, {(0, 0): 0.25 * n}))
            assert split_ranks(frag) == (0, 0)
            for state in (random_state(rng, n), sparse_state(rng, n, 1)):
                sampler = assert_matches_eigh(state, frag)
                assert sampler.values.tolist() == [0.25 * n]
                assert sampler.probs.tolist() == [1.0]

    def test_random_stabilizer_fragments(self):
        rng = np.random.default_rng(229)
        ranks = set()
        for n in range(2, 6):
            for _ in range(12):
                words = random_stabilizer_words(rng, n, int(rng.integers(1, n + 1)))
                frag = group_fragment(rng, n, words, int(rng.integers(0, 6)))
                ranks.add(split_ranks(frag))
                states = [random_state(rng, n), sparse_state(rng, n, 1 + n // 2)]
                for state in states:
                    assert_moments_exact(state, frag, assert_matches_eigh(state, frag))
                for state, got in zip(states, FragmentSampler.stack(states, frag)):
                    assert_same_sampler(got, FragmentSampler(state, frag))
        # mixed splits: some X words independent, some products diagonal
        assert any(0 < r < k for k, r in ranks)

    def test_swap_test_fragments_on_eight_qubits(self):
        rng = np.random.default_rng(233)
        op = PauliSum(7)
        for label, c in oracles.random_pauli_sum_pairs(rng, 7, 24):
            # swap-test structure: each coefficient real or imaginary
            c = c * (1j) ** rng.integers(2)
            op.add_product(PauliProduct.from_label(label, 7), c)
        frags = sorted_insertion(build_swap_operator(as_arrays(op)).op)
        assert len(frags) > 1
        state = prepare_swap_state(random_state(rng, 7), sparse_state(rng, 7, 9))
        for frag in frags:
            assert_moments_exact(state, frag, assert_matches_eigh(state, frag))


# how far the coset transform's probabilities and means may read from the
# branching references, which sum the same terms in another order
BRANCH_TOL = 1e-14


def assert_same_sampler(got, want):
    """The same outcome table, mean and variance, bit for bit."""
    assert np.array_equal(got.probs, want.probs)
    assert np.array_equal(got.values, want.values)
    assert got.mean == want.mean
    assert got.variance == want.variance


def assert_matches_branches(sampler, ref):
    """The outcomes and values of a branching reference, bit for bit, and
    its probabilities, mean and variance to BRANCH_TOL."""
    assert np.array_equal(sampler.values, ref.values)
    assert np.max(np.abs(sampler.probs - ref.probs)) < BRANCH_TOL
    assert abs(sampler.mean - ref.mean) < BRANCH_TOL
    assert abs(sampler.variance - ref.variance) < BRANCH_TOL


def assert_same_as_dense_branches(state, fragment, bit_for_bit=True):
    """The coset-transform sampler matches the full-register branch loop:
    bit for bit, or to BRANCH_TOL when `bit_for_bit` is False."""
    sampler = FragmentSampler(state, fragment)
    ref = oracles.dense_branch_sampler(state, fragment)
    if bit_for_bit:
        assert_same_sampler(sampler, ref)
    else:
        assert_matches_branches(sampler, ref)


def element_operators(pairs):
    """(state, fragments) per element: consecutive pairs sharing a state."""
    out = []
    for state, frag in pairs:
        if out and out[-1][0] is state:
            out[-1][1].append(frag)
        else:
            out.append((state, [frag]))
    return out


class TestSupportOrbit:
    def test_h2o_fragments_match_dense_branches(self, h2o_fragments):
        assert len(h2o_fragments) == 1030
        for state, frag in h2o_fragments:
            assert_same_as_dense_branches(state, frag, bit_for_bit=False)

    def test_h2_vo_fragments_match_dense_branches(self, h2_vo_fragments):
        for state, frag in h2_vo_fragments:
            assert_same_as_dense_branches(state, frag)

    def test_dense_states_match_dense_branches(self, h2o_fragments):
        # a state with no zero amplitude: the orbit is the whole register
        rng = np.random.default_rng(107)
        for state, frag in h2o_fragments:
            assert_same_as_dense_branches(
                random_state(rng, state.n_qubits), frag, bit_for_bit=False
            )

    def test_element_groupings_match_reference(self, h2o_fragments, h2_vo_fragments):
        elements = element_operators(h2o_fragments) + element_operators(h2_vo_fragments)
        assert len(element_operators(h2o_fragments)) == 143
        for _, frags in elements:
            op = as_sum(frags[0])
            for frag in frags[1:]:
                op = op + as_sum(frag)
            got = [list(f.items()) for f in sorted_insertion(as_arrays(op))]
            assert got == [list(f.items()) for f in frags]
            assert got == oracles.reference_sorted_insertion(op)


def assert_same_plan(plan, reference, same_sampler=assert_same_sampler):
    """Same elements, fragments and sigmas, bit for bit, and samplers equal
    by `same_sampler` (by default outcome tables, means and variances bit
    for bit)."""
    assert list(plan) == list(reference)
    for key, (samplers, sigmas) in plan.items():
        ref_samplers, ref_sigmas = reference[key]
        assert len(samplers) == len(ref_samplers)
        for got, want in zip(samplers, ref_samplers):
            same_sampler(got, want)
        assert np.array_equal(sigmas, ref_sigmas)


def shifted_elements(engine):
    """Sampled off-diagonal elements whose states share a seniority config."""
    return [
        (mu, nu)
        for mu in range(engine.size)
        for nu in range(mu + 1, engine.size)
        if engine.config(mu) == engine.config(nu) and not engine.is_classical(mu, nu)
    ]


def distinct_fragments(pairs):
    """{fragment terms: (fragment, [states])} in first-use order."""
    groups = {}
    for state, frag in pairs:
        key = (frag.n_qubits, tuple(frag.items()))
        groups.setdefault(key, (frag, []))[1].append(state)
    return groups


@pytest.fixture(scope="module")
def h2o_reference(h2o_engine):
    return oracles.per_element_plan(h2o_engine)


class TestGroupedPlan:
    """The plan grouped by distinct fragment equals the per-element path."""

    def test_h2o_plan_matches_per_element_reference(self, h2o_engine, h2o_reference):
        # constant-shifted same-config elements included
        assert len(shifted_elements(h2o_engine)) > 0
        assert len(h2o_reference) == 143
        plan = h2o_engine.sampling_plan(h2o_engine.exact_matrix())
        assert_same_plan(plan, h2o_reference, assert_matches_branches)

    def test_h2_plans_match_per_element_reference(self, h2_vo_engines):
        for engine in h2_vo_engines:
            reference = oracles.per_element_plan(engine)
            assert_same_plan(engine.sampling_plan(engine.exact_matrix()), reference)

    def test_exact_mode_sigmas_match_reference(
        self, h2o_engine, h2o_reference, h2_vo_engines
    ):
        cases = [(h2o_engine, h2o_reference)]
        cases += [(e, oracles.per_element_plan(e)) for e in h2_vo_engines]
        for engine, reference in cases:
            problem = build_subspace(
                engine.basis,
                engine.hq,
                engine.n_elec,
                compute_sigma=True,
                kernel=engine.kernel,
            )
            want_sigma, want_fragments = engine.sigma_matrix(reference)
            want = allocate_and_score(want_sigma, problem.c0, want_fragments)
            assert np.array_equal(problem.cost.sigma, want_sigma)
            assert problem.cost.fragment_proportions == want.fragment_proportions
            assert problem.cost.metric == want.metric

    def test_shift_reads_the_exact_diagonal(self, h2o_engine, h2o_reference, monkeypatch):
        # the constant shift reads the given matrix's diagonal, which equals
        # element_exact's (the reference's) bit for bit, and evaluates no
        # element of its own
        exact = h2o_engine.exact_matrix()
        calls = []
        element_exact = SubspaceEngine.element_exact

        def counted(self, mu, nu):
            calls.append((mu, nu))
            return element_exact(self, mu, nu)

        monkeypatch.setattr(SubspaceEngine, "element_exact", counted)
        plan = h2o_engine.sampling_plan(exact)
        assert len(shifted_elements(h2o_engine)) > 0
        assert calls == []
        assert_same_plan(plan, h2o_reference, assert_matches_branches)

    def test_fragments_shared_across_elements(self, h2o_fragments):
        groups = distinct_fragments(h2o_fragments)
        assert len(h2o_fragments) == 1030 and len(groups) < len(h2o_fragments)
        assert max(len(states) for _, states in groups.values()) > 1

    def test_one_state_chunks(self, h2o_engine, monkeypatch):
        # every stack cut to one state per chunk, every apply to one term
        exact = h2o_engine.exact_matrix()
        plan = h2o_engine.sampling_plan(exact)
        monkeypatch.setattr(simulator, "BLOCK_AMPLITUDES", 1)
        assert_same_plan(h2o_engine.sampling_plan(exact), plan)

    def test_swap_states_held_one_chunk_at_a_time(self, h2o_engine, monkeypatch):
        # each chunk's swap states are prepared when it runs and dropped
        # after it, so the pass never holds the states of all elements
        chunk = 4
        monkeypatch.setattr(
            simulator, "BLOCK_AMPLITUDES", chunk * 2 ** (h2o_engine.n_orb + 1)
        )
        prepared, alive = [], []
        prepare, stack = solver.prepare_swap_state, FragmentSampler.stack

        def tracked_prepare(a, b):
            state = prepare(a, b)
            prepared.append(weakref.ref(state))
            return state

        def tracked_stack(states, frag):
            alive.append(sum(ref() is not None for ref in prepared))
            return stack(states, frag)

        monkeypatch.setattr(solver, "prepare_swap_state", tracked_prepare)
        monkeypatch.setattr(FragmentSampler, "stack", staticmethod(tracked_stack))
        h2o_engine.sampling_plan(h2o_engine.exact_matrix())
        assert len(prepared) > chunk
        assert max(alive) == chunk


class TestFragmentStack:
    def test_stack_matches_single_states(self, h2o_fragments):
        for frag, states in distinct_fragments(h2o_fragments).values():
            for state, got in zip(states, FragmentSampler.stack(states, frag)):
                assert_same_sampler(got, FragmentSampler(state, frag))
                assert_matches_branches(got, oracles.per_state_sampler(state, frag))

    def test_disjoint_supports_keep_their_own_bits(self):
        # orbits {0001, 0010}, {1100, 1111} and {0100, 0111}: each index of
        # the union orbit holds amplitude of one state only
        frag = as_arrays(
            PauliSum.from_label("Z0 Z1", 0.5, 4)
            + PauliSum.from_label("X0 X1", -0.25, 4)
            + PauliSum.from_label("Z2", 0.75, 4)
        )
        amps = np.zeros(16)
        amps[[0b0100, 0b0111]] = 0.6, 0.8
        states = [
            StateVector.computational(0b0001, 4),
            StateVector.computational(0b1100, 4),
            StateVector(amps, 4),
        ]
        stacked = FragmentSampler.stack(states, frag)
        for state, got in zip(states, stacked):
            want = oracles.per_state_sampler(state, frag)
            assert np.array_equal(got.probs, want.probs)
            assert np.array_equal(got.values, want.values)
            assert got.mean == want.mean
        # outcome bits (Z0 Z1, X0 X1, Z2) set where each reads -1
        assert stacked[0].values.tolist() == [-0.5 - 0.25 + 0.75, -0.5 + 0.25 + 0.75]
        assert stacked[1].values.tolist() == [0.5 - 0.25 - 0.75, 0.5 + 0.25 - 0.75]
        assert stacked[2].probs == pytest.approx([0.98, 0.02], abs=1e-14)

    def test_identity_only_fragment_on_a_stack(self):
        rng = np.random.default_rng(113)
        states = [random_state(rng, 3) for _ in range(4)]
        frag = as_arrays(PauliSum(3, {(0, 0): 0.375}))
        for sampler in FragmentSampler.stack(states, frag):
            assert sampler.probs.tolist() == [1.0]
            assert sampler.values.tolist() == [0.375]
            assert sampler.mean == 0.375

    def test_values_taken_per_state(self, h2o_fragments):
        # one matrix product over every state's rows rounds differently
        # from the product of each state's rows alone (BLAS blocking
        # depends on the shape, so whether any fragment shows it depends on
        # the BLAS build); the stack must keep the per-state bits
        trapped = 0
        for frag, states in distinct_fragments(h2o_fragments).values():
            refs = [oracles.per_state_sampler(s, frag) for s in states]
            outcomes = np.concatenate([ref.outcomes for ref in refs])
            signs = np.bitwise_count(outcomes[:, None] & refs[0].masks) & 1
            joint = (1.0 - 2.0 * signs) @ refs[0].coeffs
            alone = np.concatenate([ref.values for ref in refs])
            if np.array_equal(joint, alone):
                continue
            trapped += 1
            for got, want in zip(FragmentSampler.stack(states, frag), refs):
                assert np.array_equal(got.values, want.values)
        if not trapped:
            pytest.skip("this BLAS rounds the joint product as the per-state ones")
