import itertools
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
)
from oracles import as_arrays, as_sum
from senqse.csfbasis import CsfKind, CsfSpec, make_csf_tapered, parse_basis
from senqse.fermion import jordan_wigner, load_fcidump
from senqse.measure import (
    MeasureError,
    allocate_and_score,
    build_swap_operator,
    fragment_variance,
    predicted_mse,
    shift_constant,
    sorted_insertion,
)
from senqse.simulator import (
    FragmentSampler,
    prepare_swap_state,
    rng_for,
)
from senqse.taper import effective_hamiltonian

FIXTURES = Path(__file__).parent / "fixtures"


def effective(n_qubits, pairs):
    s = PauliSum(n_qubits)
    for label, c in pairs:
        s.add_product(PauliProduct.from_label(label, n_qubits), c)
    return s


def random_swap_structured(rng, n, n_terms):
    """Random operator with the real/imaginary coefficient structure."""
    s = PauliSum(n)
    for label, c in oracles.random_pauli_sum_pairs(rng, n, n_terms):
        p = PauliProduct.from_label(label, n)
        if p.y_count() % 2:
            s.add_product(p, 1j * c)
        else:
            s.add_product(p, c)
    return s


def real_state(rng, n):
    return StateVector.from_amplitudes(rng.normal(size=2**n), n, normalize=True)


class TestBuildSwapOperator:
    def test_identity_maps_to_x(self):
        x = effective(2, [("I", 1.0)])
        s = build_swap_operator(as_arrays(x))
        assert s.c_x == pytest.approx(1.0)
        assert s.op.n_terms == 1
        assert as_sum(s.op).coefficient(PauliProduct.from_label("X2", 3)) == pytest.approx(1.0)

    def test_imaginary_coefficient_takes_y_branch(self):
        x = effective(1, [("Z0", 1j)])
        s = build_swap_operator(as_arrays(x))
        assert s.op.n_terms == 1
        ((xb, zb), c), = list(s.op.items())
        assert (xb, zb) == (0b10, 0b11)  # Y on the ancilla, Z on qubit 0
        assert c == pytest.approx(-1.0)

    def test_mixed_coefficient_rejected(self):
        x = effective(1, [("Z0", 1.0 + 1.0j)])
        with pytest.raises(MeasureError, match="swap-test structure"):
            build_swap_operator(as_arrays(x))

    def test_reproduces_matrix_element(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            n = 3
            xop = random_swap_structured(rng, n, 5)
            a, b = real_state(rng, n), real_state(rng, n)
            swap = build_swap_operator(as_arrays(xop))
            got = expectation(prepare_swap_state(a, b), swap.op)
            ref = np.vdot(a.amplitudes, oracles.sum_matrix(xop) @ b.amplitudes)
            assert abs(ref.imag) < 1e-12
            assert got.real == pytest.approx(ref.real, abs=1e-12)
            assert abs(got.imag) < 1e-12

    def test_single_extra_term_versus_source(self):
        rng = np.random.default_rng(97)
        xop = random_swap_structured(rng, 3, 8)
        xop.add_product(PauliProduct.identity(3), 0.7)
        s = build_swap_operator(as_arrays(xop))
        assert s.op.n_terms <= xop.n_terms + 1


@pytest.fixture(scope="module")
def h2_setup():
    ints = load_fcidump(FIXTURES / "h2_0.7414.fcidump")
    hq = jordan_wigner(ints)
    x = effective_hamiltonian(hq, 0b00, 0b00)
    a = make_csf_tapered(CsfSpec(CsfKind.HF), 2, 2)
    b = make_csf_tapered(CsfSpec(CsfKind.HF).moved(0, 1), 2, 2)
    return x, a, b


class TestShiftConstant:
    def test_zero_diagonals_leave_operator_alone(self, h2_setup):
        x, _, _ = h2_setup
        s = build_swap_operator(x)
        shifted = shift_constant(s, 0.0, 0.0)
        assert shifted.c_x == pytest.approx(s.c_x)
        diff = as_sum(shifted.op) - as_sum(s.op)
        assert all(abs(c) < 1e-14 for _, c in diff.items())

    def test_value_unchanged_for_orthogonal_factors(self, h2_setup):
        x, a, b = h2_setup
        h_mm = matrix_element_exact(a, x, a).real
        h_nn = matrix_element_exact(b, x, b).real
        phi = prepare_swap_state(a, b)
        s = build_swap_operator(x)
        shifted = shift_constant(s, h_mm, h_nn)
        v0 = expectation(phi, s.op).real
        v1 = expectation(phi, shifted.op).real
        assert v1 == pytest.approx(v0, abs=1e-12)
        ref = matrix_element_exact(a, x, b).real
        assert v0 == pytest.approx(ref, abs=1e-12)

    def test_variance_minimum_under_scan(self, h2_setup):
        x, a, b = h2_setup
        h_mm = matrix_element_exact(a, x, a).real
        h_nn = matrix_element_exact(b, x, b).real
        phi = prepare_swap_state(a, b)
        s = build_swap_operator(x)
        shifted = shift_constant(s, h_mm, h_nn)
        var_min = fragment_variance(phi, shifted.op)
        anc = 1 << shifted.ancilla
        for delta in (0.1, -0.1, 0.01, -0.01):
            perturbed = as_sum(shifted.op)
            perturbed.add_term(anc, 0, delta)
            assert fragment_variance(phi, as_arrays(perturbed)) > var_min


class TestSortedInsertion:
    def s(self, pairs, n):
        out = PauliSum(n)
        for label, c in pairs:
            out.add_product(PauliProduct.from_label(label, n), c)
        return out

    def group(self, op):
        """``sorted_insertion`` of a PauliSum, its fragments as PauliSums."""
        return tuple(map(as_sum, sorted_insertion(as_arrays(op))))

    def test_commuting_pair_single_fragment(self):
        fs = self.group(self.s([("Z0", 1.0), ("Z1", 0.5)], 2))
        assert len(fs) == 1

    def test_anticommuting_pair_two_fragments(self):
        fs = self.group(self.s([("X0", 1.0), ("Z0", 0.5)], 1))
        assert len(fs) == 2

    def test_hand_traced_grouping(self):
        fs = self.group(
            self.s([("Z0 Z1", 0.9), ("X0 X1", 0.5), ("Z0", 0.3)], 2)
        )
        assert len(fs) == 2
        labels = [sorted(p.label() for p, _ in frag) for frag in fs]
        assert labels[0] == ["X0 X1", "Z0 Z1"]
        assert labels[1] == ["Z0"]

    def test_constant_joins_first_fragment(self):
        fs = self.group(
            self.s([("X0", 1.0), ("Z0", 0.9), ("I", 0.2)], 1)
        )
        assert len(fs) == 2
        assert any(p.is_identity() for p, _ in fs[0])

    def test_reconstruction_and_commutation(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            op = self.s(oracles.random_pauli_sum_pairs(rng, 4, 20), 4)
            fs = self.group(op)
            diff = oracles.reconstruct(fs) - op
            assert all(c == 0 for _, c in diff.items())
            for frag in fs:
                prods = [p for p, _ in frag]
                mats = [oracles.product_matrix(p) for p in prods]
                for i in range(len(mats)):
                    for j in range(i):
                        assert np.allclose(
                            mats[i] @ mats[j], mats[j] @ mats[i], atol=1e-12
                        )

    def test_matches_independent_greedy(self):
        # re-derive the grouping with a separately coded greedy pass
        rng = np.random.default_rng(103)
        op = self.s(oracles.random_pauli_sum_pairs(rng, 4, 25), 4)
        fs = self.group(op)
        ordered = sorted(op.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
        groups = []
        for (xb, zb), _ in ordered:
            placed = False
            for g in groups:
                ok = True
                for (x2, z2) in g:
                    sym = ((xb & z2).bit_count() + (zb & x2).bit_count()) % 2
                    if sym:
                        ok = False
                        break
                if ok:
                    g.append((xb, zb))
                    placed = True
                    break
            if not placed:
                groups.append([(xb, zb)])
        got = [sorted(key for key, _ in frag.items()) for frag in fs]
        ref = [sorted(g) for g in groups]
        assert got == ref

    @pytest.mark.parametrize("n_qubits", [4, 63, 64])
    def test_matches_reference_across_word_widths(self, n_qubits):
        # three-qubit strings, so fragments grow past one member
        rng = np.random.default_rng(109 + n_qubits)
        for _ in range(5):
            op = PauliSum(n_qubits)
            for _ in range(30):
                qubits = rng.choice(n_qubits, size=3, replace=False)
                label = " ".join(f"{rng.choice(list('XYZ'))}{q}" for q in qubits)
                op.add_product(PauliProduct.from_label(label, n_qubits), rng.normal())
            got = [list(f.items()) for f in sorted_insertion(as_arrays(op))]
            assert got == oracles.reference_sorted_insertion(op)
            assert max(len(f) for f in got) > 1

    def test_h2o_hamiltonian_matches_reference(self):
        hq = jordan_wigner(load_fcidump(FIXTURES / "h2o_1.0000.fcidump"))
        got = [list(f.items()) for f in sorted_insertion(hq)]
        assert got == oracles.reference_sorted_insertion(hq)
        assert sorted_insertion(as_arrays(PauliSum(3))) == ()

        # every config pair of the H2O VO basis: its operator, swap-test
        # operator and shifted swap-test operator (the pair's first states'
        # exact diagonals), and each one's fragments, against the dict
        # walks of ``oracles``: keys, term order and coefficient bits
        def same_terms(got, ref_items):
            ref = as_arrays(PauliSum(got.n_qubits, dict(ref_items)))
            assert got.keys.tobytes() == ref.keys.tobytes()
            assert got.coeffs.tobytes() == ref.coeffs.tobytes()

        basis = parse_basis((FIXTURES / "h2o_1.0000.vo.basis.txt").read_text())
        engine = SubspaceEngine(basis, hq, 10)
        first = {}
        for mu in range(engine.size):
            first.setdefault(engine.config(mu), mu)
        for mu, nu in itertools.product(first.values(), repeat=2):
            op = engine.xop(mu, nu)
            swap = build_swap_operator(op)
            ref = oracles.reference_build_swap_operator(op)
            diagonals = engine.element_exact(mu, mu), engine.element_exact(nu, nu)
            shifted = shift_constant(swap, *diagonals)
            ref_shifted = oracles.reference_shift_constant(ref, *diagonals)
            assert (swap.c_x, shifted.c_x) == (ref.c_x, ref_shifted.c_x)
            for got, ref_op in ((op, op), (swap.op, ref.op), (shifted.op, ref_shifted.op)):
                same_terms(got, ref_op.items())
                frags = sorted_insertion(got)
                ref_frags = oracles.reference_sorted_insertion(ref_op)
                assert len(frags) == len(ref_frags)
                for frag, ref_frag in zip(frags, ref_frags):
                    same_terms(frag, ref_frag)


class TestFragmentVariance:
    def test_eigenstate_zero(self):
        cases = [(StateVector.computational(0, 1), as_arrays(PauliSum.from_label("Z0", 1.0, 1)))]
        # fragment 0 of element (1, 1) on the H2O 1.0 A VO selection with
        # every angle at 0: one outcome at -73.96 Ha, where <F^2> - <F>^2
        # reads -1.8e-12
        ints = load_fcidump(FIXTURES / "h2o_1.0000.fcidump")
        basis = parse_basis((FIXTURES / "h2o_1.0000.vo-selected.basis.txt").read_text())
        engine = SubspaceEngine(basis, jordan_wigner(ints), ints.n_elec)
        state, frags = engine.element_measurables(1, 1)
        cases.append((state, frags[0]))
        for st, frag in cases:
            assert fragment_variance(st, frag) == 0.0

    def test_plus_state_unit(self):
        st = StateVector.from_amplitudes([1, 1], 1, normalize=True)
        assert fragment_variance(st, as_arrays(PauliSum.from_label("Z0", 1.0, 1))) == pytest.approx(1.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            st = real_state(rng, 3)
            frag = PauliSum(3)
            for label, c in oracles.random_pauli_sum_pairs(rng, 3, 4):
                frag.add_product(PauliProduct.from_label(label, 3), c)
            m = oracles.sum_matrix(frag)
            mean = np.vdot(st.amplitudes, m @ st.amplitudes).real
            second = np.vdot(st.amplitudes, m @ m @ st.amplitudes).real
            assert fragment_variance(st, as_arrays(frag)) == pytest.approx(
                second - mean**2, abs=1e-10
            )

    def test_matches_sampling_variance(self):
        rng = np.random.default_rng(109)
        st = real_state(rng, 2)
        frag = as_arrays(
            PauliSum.from_label("Z0 Z1", 0.7, 2) + PauliSum.from_label("X0 X1", 0.4, 2)
        )
        sampler = FragmentSampler(st, frag)
        outcomes = [sampler.sample(1, rng_for(3, k)) for k in range(4000)]
        emp = np.var(outcomes, ddof=1)
        var = fragment_variance(st, frag)
        se = var * np.sqrt(2.0 / (len(outcomes) - 1)) + 1e-12
        assert abs(emp - var) < 3 * se + 0.05 * var


class TestAllocateAndScore:
    def test_single_state_limit(self):
        report = allocate_and_score(np.array([[2.0]]), np.array([1.0]), {})
        assert report.metric == pytest.approx(4.0)
        assert report.element_proportions == {(0, 0): 1.0}

    def test_all_zero_sigma(self):
        report = allocate_and_score(np.zeros((3, 3)), np.array([1.0, 0.0, 0.0]), {})
        assert report.metric == 0.0
        assert report.element_proportions == {}

    def test_metric_identity(self):
        rng = np.random.default_rng(113)
        n = 4
        sigma = np.abs(rng.normal(size=(n, n)))
        sigma = 0.5 * (sigma + sigma.T)
        c0 = rng.normal(size=n)
        c0 /= np.linalg.norm(c0)
        report = allocate_and_score(sigma, c0, {})
        expected = sum(c0[m] ** 2 * sigma[m, m] for m in range(n))
        expected += sum(
            2 * abs(c0[m] * c0[nu]) * sigma[m, nu]
            for m in range(n)
            for nu in range(m + 1, n)
        )
        assert report.metric == pytest.approx(expected**2, rel=1e-12)
        assert sum(report.element_proportions.values()) == pytest.approx(1.0)

    def test_zero_sigma_elements_get_no_shots(self):
        sigma = np.array([[1.0, 0.0], [0.0, 2.0]])
        c0 = np.array([1.0, 0.0]) / 1.0
        report = allocate_and_score(sigma, c0, {})
        assert (0, 1) not in report.element_proportions
        # sigma_11 > 0 but c0_1 = 0: element carries no first-order weight
        assert report.element_proportions.get((1, 1), 0.0) == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(MeasureError, match="normalized"):
            allocate_and_score(np.eye(2), np.array([1.0, 1.0]), {})

    def test_allocation_optimality_under_perturbation(self):
        rng = np.random.default_rng(127)
        n = 3
        sigma = np.abs(rng.normal(size=(n, n))) + 0.2
        sigma = 0.5 * (sigma + sigma.T)
        c0 = rng.normal(size=n)
        c0 /= np.linalg.norm(c0)
        report = allocate_and_score(sigma, c0, {})
        m_total = 1e6
        shots = {k: p * m_total for k, p in report.element_proportions.items()}
        best = predicted_mse(sigma, c0, shots)
        assert best * m_total == pytest.approx(report.metric, rel=1e-10)
        for key in shots:
            for factor in (1.1, 0.9):
                pert = {k: (v * factor if k == key else v) for k, v in shots.items()}
                scale = m_total / sum(pert.values())
                pert = {k: v * scale for k, v in pert.items()}
                assert predicted_mse(sigma, c0, pert) >= best - 1e-18

    def test_first_order_mse_prediction_monte_carlo(self):
        rng = np.random.default_rng(131)
        h = np.array([[0.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 2.0]])
        vals, vecs = np.linalg.eigh(h)
        c0 = vecs[:, 0]
        sigma = np.full((3, 3), 0.5)
        m_per_element = 4e4
        shots = {(m, nu): m_per_element for m in range(3) for nu in range(m, 3)}
        pred = predicted_mse(sigma, c0, shots)
        reps = 20000
        errs = np.empty(reps)
        e0 = vals[0]
        for k in range(reps):
            e = np.zeros((3, 3))
            for (m, nu), mm in shots.items():
                draw = rng.normal(scale=sigma[m, nu] / np.sqrt(mm))
                e[m, nu] = e[nu, m] = draw
            errs[k] = np.linalg.eigvalsh(h + e)[0] - e0
        emp = np.mean(errs**2)
        assert emp == pytest.approx(pred, rel=0.10)

    def test_report_text(self):
        report = allocate_and_score(
            np.array([[1.0, 0.5], [0.5, 2.0]]),
            np.array([0.8, 0.6]),
            fragment_sigmas={(0, 1): [0.3, 0.2]},
        )
        text = report.to_text("test", 1.0, "vo")
        assert "system: test" in text and "basis_size: 2" in text
        assert "(0,1)" in text and "fragments=" in text
