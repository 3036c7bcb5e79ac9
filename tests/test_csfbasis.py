import json
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import oracles
from algebra import StateVector, expectation, taper_check, tapered_state
from oracles import as_arrays
from senqse.csfbasis import (
    BasisError,
    BasisState,
    CsfKind,
    CsfSpec,
    SelectionError,
    SelectionParams,
    apply_pair_rotation,
    create_csfs,
    pair_rotation_terms,
    rotate_pair_inplace,
    rotation_group_key,
    csf_determinants,
    default_selection_params,
    empty_orbitals,
    extension_pairs,
    full_state,
    make_csf_tapered,
    merge_config_pairs,
    paired_occupied,
    parse_basis,
    select_basis_pt,
    select_basis_vo,
    config_bits,
    serialize_basis,
    trim_csfs,
    CsfElementEngine,
)
from senqse.fermion import (
    jordan_wigner,
    load_fcidump,
)
from senqse.simulator import apply_pauli_sum
from senqse.solver import SubspaceEngine, _full_register_matrix

FIXTURES = Path(__file__).parent / "fixtures"
TUNED = dict(eps1=1e-5, eps2=1e-6, n_active_occ=5)


def h2o_vo_basis_at_random_angles(seed):
    """The frozen H2O 1.0 A VO selection, each group's angles drawn at random."""
    basis = parse_basis((FIXTURES / "h2o_1.0000.vo-selected.basis.txt").read_text())
    rng = np.random.default_rng(seed)
    angles = {}
    out = []
    for b in basis:
        key = rotation_group_key(b.csf, 7)
        if key not in angles:
            angles[key] = rng.uniform(-np.pi, np.pi, len(b.rotations))
        out.append(b.with_thetas(angles[key]))
    return out


@pytest.fixture(scope="module")
def h2():
    return load_fcidump(FIXTURES / "h2_0.7414.fcidump")


@pytest.fixture(scope="module")
def h2o():
    return load_fcidump(FIXTURES / "h2o_1.0000.fcidump")


@pytest.fixture(scope="module")
def h2o_hq(h2o):
    return jordan_wigner(h2o)


def dense_excitation(i, a, component, n_modes):
    """Spherical tensor excitation matrix built from oracle ladder operators."""
    ad = lambda m: oracles.creation_matrix(m, n_modes)  # noqa: E731
    an = lambda m: oracles.annihilation_matrix(m, n_modes)  # noqa: E731
    if component == "00":
        return (ad(2 * a + 1) @ an(2 * i + 1) + ad(2 * a) @ an(2 * i)) / np.sqrt(2)
    if component == "10":
        return (ad(2 * a + 1) @ an(2 * i + 1) - ad(2 * a) @ an(2 * i)) / np.sqrt(2)
    if component == "1+":
        return ad(2 * a) @ an(2 * i + 1)
    if component == "1-":
        return ad(2 * a + 1) @ an(2 * i)
    raise ValueError(component)


class TestCsfConstruction:
    def test_hf_tapered_two_orbitals(self):
        st = make_csf_tapered(CsfSpec(CsfKind.HF), 2, 2)
        assert np.argmax(np.abs(st.amplitudes)) == 0b01
        assert st.amplitudes[0b01] == pytest.approx(1.0)

    def test_single_singlet_symmetries(self):
        b = BasisState(CsfSpec(CsfKind.SINGLE_SINGLET, (0, 1)), (), "t")
        st = full_state(b, 2, 2)
        s2 = expectation(st, as_arrays(oracles.spin_squared_operator(2))).real
        assert s2 == pytest.approx(0.0, abs=1e-10)
        assert expectation(st, as_arrays(oracles.number_operator(2))).real == pytest.approx(2.0)
        seniority = expectation(st, as_arrays(oracles.total_seniority_operator(2))).real
        assert seniority == pytest.approx(2.0)

    def test_triplet_pair_dense_oracle(self):
        # independent dense construction of the 4-open-shell singlet on 8 modes
        n_orb = n_elec = 4
        nm = 2 * n_orb
        hf = np.zeros(2**nm, dtype=complex)
        hf[0b1111] = 1.0
        e = lambda i, a, c: dense_excitation(i, a, c, nm)  # noqa: E731
        # Condon-Shortley singlet coupling (the m=0 term carries a minus)
        ref = (
            -e(1, 3, "1+") @ e(0, 2, "1-")
            - e(1, 3, "10") @ e(0, 2, "10")
            - e(1, 3, "1-") @ e(0, 2, "1+")
        ) @ hf / np.sqrt(3)
        got = full_state(
            BasisState(CsfSpec(CsfKind.TRIPLET_PAIR_SINGLET, (0, 1, 2, 3)), (), "t"),
            n_orb,
            n_elec,
        )
        assert np.allclose(got.amplitudes, ref, atol=1e-12)
        s2 = oracles.sum_matrix(oracles.spin_squared_operator(n_orb))
        assert np.vdot(ref, s2 @ ref).real == pytest.approx(0.0, abs=1e-10)

    def test_triplet_orthogonal_to_double(self):
        n_orb = n_elec = 4
        tp = full_state(
            BasisState(CsfSpec(CsfKind.TRIPLET_PAIR_SINGLET, (0, 1, 2, 3)), (), "a"),
            n_orb,
            n_elec,
        )
        ds = full_state(
            BasisState(CsfSpec(CsfKind.DOUBLE_SINGLET, (0, 1, 2, 3)), (), "b"),
            n_orb,
            n_elec,
        )
        assert abs(tp.overlap(ds)) < 1e-12

    def test_all_creation_csfs_are_singlets(self, h2o):
        params = default_selection_params(h2o)
        specs = create_csfs(params, h2o.n_orb, h2o.n_elec)
        # HF + 6 singles + 3*1*2 four-open-shell + 3 same-source +
        # 6 same-target + 6 pair-moved references
        assert len(specs) == 28
        s2 = as_arrays(oracles.spin_squared_operator(h2o.n_orb))
        nop = as_arrays(oracles.number_operator(h2o.n_orb))
        for spec in specs:
            st = full_state(BasisState(spec, (), "x"), h2o.n_orb, h2o.n_elec)
            assert abs(expectation(st, s2)) < 1e-10
            assert expectation(st, nop).real == pytest.approx(h2o.n_elec)

    def test_index_collision_rejected(self):
        with pytest.raises(BasisError):
            CsfSpec(CsfKind.DOUBLE_SINGLET, (0, 2, 2, 3))  # occ/virt collision
        with pytest.raises(BasisError):
            CsfSpec(CsfKind.DOUBLE_SINGLET, (0, 0, 2, 2))  # plain pair move
        with pytest.raises(BasisError):
            CsfSpec(CsfKind.TRIPLET_PAIR_SINGLET, (0, 1, 2, 2))

    def test_degenerate_doubles_are_singlets(self):
        n_orb, n_elec = 4, 4
        s2 = as_arrays(oracles.spin_squared_operator(n_orb))
        nop = as_arrays(oracles.number_operator(n_orb))
        for idx, open_shell in [((0, 0, 2, 3), (2, 3)), ((0, 1, 2, 2), (0, 1))]:
            spec = CsfSpec(CsfKind.DOUBLE_SINGLET, idx)
            assert spec.omega == 2
            assert spec.singly_occupied == open_shell
            st = full_state(BasisState(spec, (), "x"), n_orb, n_elec)
            assert abs(expectation(st, s2)) < 1e-10
            assert expectation(st, nop).real == pytest.approx(n_elec)
            assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "idx, paired, empty",
        [((0, 0, 2, 3), {1}, {0, 4}), ((0, 1, 2, 2), {2}, {3, 4})],
    )
    def test_degenerate_double_pairs_and_holes(self, idx, paired, empty):
        # (i, i, a, b) empties occupied orbital i; (i, j, a, a) fills virtual a
        n_orb, n_elec = 5, 4
        spec = CsfSpec(CsfKind.DOUBLE_SINGLET, idx)
        assert paired_occupied(spec, n_orb, n_elec) == paired
        assert empty_orbitals(spec, n_orb, n_elec) == empty
        # every determinant of the CSF agrees: mode 2p + s is orbital p, spin s
        for occ in csf_determinants(spec, n_orb, n_elec):
            for p in range(n_orb):
                n_p = (occ >> 2 * p & 1) + (occ >> 2 * p + 1 & 1)
                assert n_p == (2 if p in paired else 0 if p in empty else 1)

    def test_occ_virt_split_enforced(self):
        with pytest.raises(BasisError, match="split"):
            csf_determinants(CsfSpec(CsfKind.SINGLE_SINGLET, (1, 0)), 2, 2)

    def test_folded_pair_move(self):
        spec = CsfSpec(CsfKind.HF).moved(0, 1)
        st = make_csf_tapered(spec, 2, 2)
        assert st.amplitudes[0b10] == pytest.approx(1.0)

    @pytest.mark.parametrize("stem, kwargs", [("h2_0.7414", {}), ("h2o_1.0000", TUNED)])
    def test_tapered_csfs_match_bitwise_taper(self, stem, kwargs):
        # every created CSF and every pair-moved candidate extension_pairs
        # can reach from it, against the bitwise reference
        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        n_orb, n_elec = ints.n_orb, ints.n_elec
        specs = create_csfs(default_selection_params(ints, **kwargs), n_orb, n_elec)
        moved = [
            spec.moved(i, a)
            for spec in specs
            for i in paired_occupied(spec, n_orb, n_elec)
            for a in empty_orbitals(spec, n_orb, n_elec)
        ]
        assert moved
        for spec in specs + moved:
            dets = csf_determinants(spec, n_orb, n_elec)
            configs, want = oracles.bitwise_taper(dets, n_orb)
            assert configs == {config_bits(spec, n_orb)}
            got = make_csf_tapered(spec, n_orb, n_elec).amplitudes
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPairRotation:
    def test_zero_theta_identity(self):
        st = make_csf_tapered(CsfSpec(CsfKind.HF), 2, 2)
        out = apply_pair_rotation(st, 1, 0, 0.0)
        assert np.allclose(out.amplitudes, st.amplitudes)

    def test_quarter_pi_full_transfer(self):
        st = make_csf_tapered(CsfSpec(CsfKind.HF), 2, 2)  # pair on orbital 0
        out = apply_pair_rotation(st, 1, 0, np.pi / 4)
        assert abs(out.amplitudes[0b10]) == pytest.approx(1.0)
        assert abs(out.amplitudes[0b01]) < 1e-12

    @pytest.mark.parametrize("r,s", [(0, 1), (1, 0)])
    def test_matches_dense_exponential(self, r, s):
        rng = np.random.default_rng(83)
        gen = oracles.pauli_sum_matrix([(f"X{r} Y{s}", 1.0), (f"Y{r} X{s}", -1.0)], 2)
        for _ in range(10):
            theta = rng.normal()
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            st = StateVector.from_amplitudes(amps, 2, normalize=True)
            got = apply_pair_rotation(st, r, s, theta)
            ref = scipy.linalg.expm(1j * theta * gen) @ st.amplitudes
            assert np.allclose(got.amplitudes, ref, atol=1e-12)

    def test_amplitudes_rotate_by_two_theta(self):
        st = make_csf_tapered(CsfSpec(CsfKind.HF), 2, 2)
        theta = 0.3
        out = apply_pair_rotation(st, 1, 0, theta)
        assert out.amplitudes[0b01] == pytest.approx(np.cos(2 * theta))
        assert out.amplitudes[0b10] == pytest.approx(np.sin(2 * theta))

    def test_config_preserved(self):
        n_orb, n_elec = 4, 4
        b = BasisState(
            CsfSpec(CsfKind.SINGLE_SINGLET, (0, 2)), ((3, 1, 0.37),), "x"
        )
        bits, _ = taper_check(full_state(b, n_orb, n_elec))
        assert bits == config_bits(b.csf, n_orb)

    def test_full_and_tapered_agree(self):
        # the dictionary-level rotation must match the tapered-register one
        n_orb, n_elec = 4, 4
        b = BasisState(
            CsfSpec(CsfKind.SINGLE_SINGLET, (0, 2)), ((3, 1, 0.41),), "x"
        )
        _, inner = taper_check(full_state(b, n_orb, n_elec))
        direct = tapered_state(b, n_orb, n_elec)
        assert np.allclose(inner.amplitudes, direct.amplitudes, atol=1e-12)

    def test_rotation_order_sensitivity(self):
        n_orb, n_elec = 3, 2
        r1, r2 = (1, 0, 0.4), (2, 1, 0.3)
        a = tapered_state(BasisState(CsfSpec(CsfKind.HF), (r1, r2), "a"), n_orb, n_elec)
        b = tapered_state(BasisState(CsfSpec(CsfKind.HF), (r2, r1), "b"), n_orb, n_elec)
        assert not np.allclose(a.amplitudes, b.amplitudes, atol=1e-8)

    def test_inplace_kernel_matches_chained_rotations(self, h2o, h2o_hq):
        # every state of the frozen H2O selection, at random angles: one
        # state at a time, one rotation group as a stack, and the engine's
        # states all give the chained apply_pair_rotation bits exactly
        basis = h2o_vo_basis_at_random_angles(7)
        engine = SubspaceEngine(basis, h2o_hq, h2o.n_elec)
        groups = {}
        for mu, b in enumerate(basis):
            csf = make_csf_tapered(b.csf, h2o.n_orb, h2o.n_elec)
            chained = csf
            for r, s, theta in b.rotations:
                chained = apply_pair_rotation(chained, r, s, theta)
            ref = oracles.copy_per_rotation(csf.amplitudes, b.rotations)
            assert np.array_equal(chained.amplitudes, ref)
            assert np.array_equal(tapered_state(b, h2o.n_orb, h2o.n_elec).amplitudes, ref)
            assert np.array_equal(engine.state(mu).amplitudes, ref)
            groups.setdefault(rotation_group_key(b.csf, h2o.n_orb), []).append(mu)
        assert any(len(m) > 1 and basis[m[0]].rotations for m in groups.values())
        for members in groups.values():
            stack = np.array([engine.csf_state(mu).amplitudes for mu in members])
            for r, s, theta in basis[members[0]].rotations:
                rotate_pair_inplace(stack, r, s, theta)
            for row, mu in zip(stack, members):
                assert np.array_equal(row, engine.state(mu).amplitudes)

    def test_inplace_kernel_rejects_bad_qubits(self):
        amps = np.zeros(8, dtype=complex)
        for r, s in [(1, 1), (3, 0), (0, -1)]:
            with pytest.raises(BasisError, match="bad rotation qubits"):
                rotate_pair_inplace(amps, r, s, 0.1)

    def test_rotation_terms_rebuild_the_rotation(self):
        # (u, v, w) split of one rotation: u + cos 2t v + sin 2t w is the
        # rotated state, bit for bit, at any angle; complex amplitudes give
        # complex terms and real ones real terms
        rng = np.random.default_rng(11)
        amps = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        for r, s, stack in [(0, 3, amps), (2, 1, amps), (0, 3, amps.real.copy())]:
            terms = pair_rotation_terms(stack, r, s)
            assert terms.shape == (2, 3, 16) and terms.dtype == stack.dtype
            for theta in rng.uniform(-np.pi, np.pi, 5):
                rotated = stack.copy()
                rotate_pair_inplace(rotated, r, s, theta)
                c, sn = math.cos(2.0 * theta), math.sin(2.0 * theta)
                combined = terms[:, 0] + c * terms[:, 1] + sn * terms[:, 2]
                assert np.array_equal(combined, rotated)

    def test_rotation_touching_open_shell_rejected(self):
        with pytest.raises(BasisError, match="singly occupied"):
            BasisState(CsfSpec(CsfKind.SINGLE_SINGLET, (0, 1)), ((1, 2, 0.1),), "x")


class TestOrthonormality:
    def test_mixed_family_orthonormal(self):
        # States sharing a seniority config either belong to one family
        # (identical rotation unitary) or differ in their open-shell factor;
        # across configs any rotations are allowed.
        n_orb, n_elec = 4, 4
        w_hf = ((2, 0, 0.3), (3, 1, -0.2))
        states = [
            BasisState(CsfSpec(CsfKind.HF), w_hf, "a"),
            BasisState(CsfSpec(CsfKind.HF).moved(0, 2), w_hf, "b"),
            BasisState(CsfSpec(CsfKind.SINGLE_SINGLET, (0, 2)), ((3, 1, 0.5),), "c"),
            BasisState(CsfSpec(CsfKind.SINGLE_SINGLET, (0, 3)), (), "d"),
            BasisState(CsfSpec(CsfKind.DOUBLE_SINGLET, (0, 1, 2, 3)), (), "e"),
            BasisState(CsfSpec(CsfKind.TRIPLET_PAIR_SINGLET, (0, 1, 2, 3)), (), "f"),
            BasisState(CsfSpec(CsfKind.SINGLE_SINGLET, (1, 2)), ((3, 0, 0.9),), "g"),
        ]
        vecs = [full_state(b, n_orb, n_elec).amplitudes for b in states]
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        assert np.max(np.abs(gram - np.eye(len(states)))) < 1e-10

    def test_same_config_different_rotations_via_structure_factor(self):
        # DS and TP on the same orbitals stay orthogonal even under
        # different rotation unitaries: rotations never touch the open shell.
        n_orb, n_elec = 6, 6
        ds = BasisState(
            CsfSpec(CsfKind.DOUBLE_SINGLET, (0, 1, 3, 4)), ((5, 2, 0.6),), "ds"
        )
        tp = BasisState(
            CsfSpec(CsfKind.TRIPLET_PAIR_SINGLET, (0, 1, 3, 4)), ((5, 2, -0.3),), "tp"
        )
        a = full_state(ds, n_orb, n_elec)
        b = full_state(tp, n_orb, n_elec)
        assert abs(a.overlap(b)) < 1e-12

    @pytest.mark.parametrize("tuned", [False, True])
    def test_h2o_bases_orthonormal_tapered(self, h2o, h2o_hq, tuned):
        kwargs = dict(eps1=1e-5, eps2=1e-6, n_active_occ=5) if tuned else {}
        params = default_selection_params(h2o, **kwargs)
        n_orb, n_elec = h2o.n_orb, h2o.n_elec
        for basis in (
            select_basis_vo(h2o, h2o_hq, params),
            select_basis_pt(h2o, h2o_hq, params),
        ):
            # exercise nonzero shared amplitudes as the optimizer would
            basis = [
                b.with_thetas([0.05 * (k + 1) for k in range(len(b.rotations))])
                for b in basis
            ]
            by_cfg = {}
            for b in basis:
                cfg = config_bits(b.csf, n_orb)
                by_cfg.setdefault(cfg, []).append(tapered_state(b, n_orb, n_elec))
            for group in by_cfg.values():
                for i in range(len(group)):
                    for j in range(i):
                        assert abs(group[i].overlap(group[j])) < 1e-10


class TestElementEngine:
    def test_empty_sector_operator_is_an_early_zero(self, h2o, h2o_hq, monkeypatch):
        # config pairs that no term links: +0.0 with no operator applied,
        # equal (sign included) to the per-element evaluation
        specs = create_csfs(default_selection_params(h2o), h2o.n_orb, h2o.n_elec)
        reference = CsfElementEngine(h2o_hq, h2o.n_elec)
        bits = [config_bits(sp, h2o.n_orb) for sp in specs]
        pairs = [
            (a, b)
            for a in range(len(specs))
            for b in range(a + 1)
            if not reference.xop(bits[a], bits[b])
        ]
        assert len(pairs) > 100
        old = {
            (a, b): np.vdot(
                reference.state(specs[a]).amplitudes,
                apply_pauli_sum(
                    reference.state(specs[b]).amplitudes, reference.xop(bits[a], bits[b])
                ),
            ).real
            for a, b in pairs[:200]
        }

        def refuse(*args):
            raise AssertionError("an operator was applied")

        monkeypatch.setattr("senqse.simulator.apply_pauli_sum", refuse)
        engine = CsfElementEngine(h2o_hq, h2o.n_elec)
        for (a, b), want in old.items():
            got = engine.element(specs[a], specs[b])
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        assert not engine.sectors._ops

    @pytest.mark.parametrize("stem", ["h2o_1.0000", "h2_0.7414"])
    def test_matrix_equals_direct_evaluation(self, stem):
        # every ordered pair of created CSFs, as one call, and on H2O every
        # ordered pair of the optimized VO basis and its exact matrix: the
        # per-element reference to 1e-12, an exact zero where no term
        # links the configs, and the symmetric form its upper triangle
        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        hq = jordan_wigner(ints)
        specs = create_csfs(default_selection_params(ints), ints.n_orb, ints.n_elec)
        engine = CsfElementEngine(hq, ints.n_elec)
        states = [engine.csf(s) for s in specs]
        want = np.array(
            [[oracles.vdot_element(engine, *bra, *ket) for ket in states] for bra in states]
        )
        got = engine.matrix(states, states)
        assert np.max(np.abs(got - want)) < 1e-12
        unlinked = np.array([[not engine.xop(bra[0], ket[0]) for ket in states] for bra in states])
        assert 0 < np.sum(unlinked) < want.size and not np.any(got[unlinked])
        upper = np.triu(got) + np.triu(got, 1).T
        assert np.array_equal(engine.matrix(states), upper)
        # border: the same rows, and the diagonal's bits from a pass that
        # never forms the bras' own block
        rows, diagonal = engine.border(states, states[:3])
        assert np.array_equal(rows, got[:, :3])
        assert np.array_equal(diagonal, np.diagonal(got))
        if stem != "h2o_1.0000":
            return
        basis = parse_basis((FIXTURES / "h2o_1.0000.vo.basis.txt").read_text())
        sub = SubspaceEngine(basis, hq, ints.n_elec, kernel=engine)
        assert {bool(b.rotations) for b in basis} == {True, False}
        vecs = [(sub.config(mu), sub.state(mu).amplitudes) for mu in range(sub.size)]
        pairs = np.array([[oracles.vdot_element(engine, *bra, *ket) for ket in vecs] for bra in vecs])
        elements = np.array(
            [[sub.element_exact(mu, nu) for nu in range(sub.size)] for mu in range(sub.size)]
        )
        assert np.max(np.abs(elements - pairs)) < 1e-12
        assert np.max(np.abs(sub.exact_matrix() - pairs)) < 1e-12

    @pytest.mark.parametrize("stem", ["h2_0.7414", "h2o_1.0000", "h2o_2.1000", "h2o_3.0000"])
    def test_matrix_matches_the_full_register_reference(self, stem):
        # the created CSFs, the PT basis and, at 1.0 A, both VO fixture
        # bases, tapered and through the --no-taper ablation, against hq
        # assembled term by term on the states' determinants
        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        hq = jordan_wigner(ints)
        params = default_selection_params(ints, eps1=1e-5, eps2=1e-6, n_active_occ=5)
        engine = CsfElementEngine(hq, ints.n_elec)
        specs = create_csfs(params, ints.n_orb, ints.n_elec)
        bases = [[BasisState(s) for s in specs], select_basis_pt(ints, hq, params, kernel=engine)]
        if stem == "h2o_1.0000":
            for name in ("vo", "vo-selected"):
                text = (FIXTURES / f"h2o_1.0000.{name}.basis.txt").read_text()
                bases.append(parse_basis(text))
        for basis in bases:
            images = [full_state(b, ints.n_orb, ints.n_elec).amplitudes.real for b in basis]
            want = oracles.support_matrix(hq, np.array(images))
            sub = SubspaceEngine(basis, hq, ints.n_elec, kernel=engine)
            assert np.max(np.abs(sub.exact_matrix() - want)) < 1e-12
            assert np.max(np.abs(_full_register_matrix(sub) - want)) < 1e-12

    def test_one_matrix_call_stays_small(self, h2o, h2o_hq):
        # the created CSFs of the acceptance window, one symmetric call
        params = default_selection_params(h2o, eps1=1e-5, eps2=1e-6, n_active_occ=5)
        engine = CsfElementEngine(h2o_hq, h2o.n_elec)
        states = [engine.csf(s) for s in create_csfs(params, h2o.n_orb, h2o.n_elec)]
        assert len(states) == 66
        tracemalloc.start()
        try:
            engine.matrix(states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_kernel_of_another_hamiltonian_is_refused(self, h2o, h2o_hq):
        kernel = CsfElementEngine(jordan_wigner(h2o), h2o.n_elec)
        params = default_selection_params(h2o)
        with pytest.raises(BasisError, match="another Hamiltonian"):
            select_basis_pt(h2o, h2o_hq, params, kernel=kernel)
        with pytest.raises(BasisError, match="another Hamiltonian"):
            SubspaceEngine(
                [BasisState(CsfSpec(CsfKind.HF))], h2o_hq, h2o.n_elec, kernel=kernel
            )


class TestSelection:
    def test_extension_shifts_equal_one_eigensolve_per_candidate(self, h2o, h2o_hq, monkeypatch):
        # the stacked eigensolve gives every dE the bits of solving each
        # candidate's bordered matrix on its own
        params = default_selection_params(h2o, eps1=1e-5, eps2=1e-6, n_active_occ=5)
        engine = CsfElementEngine(h2o_hq, h2o.n_elec)
        specs = create_csfs(params, h2o.n_orb, h2o.n_elec)
        survivors, h = trim_csfs(engine, specs, params.eps1, params.root_window)
        stacked = extension_pairs(engine, survivors, h, params.eps2, params.root_window)
        eigvalsh = np.linalg.eigvalsh
        stacks = []

        def one_by_one(a):
            stacks.append(len(a))
            return np.array([eigvalsh(m) for m in a]) if a.ndim == 3 else eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", one_by_one)
        looped = extension_pairs(engine, survivors, h, params.eps2, params.root_window)
        assert max(stacks) > 50
        assert sum(map(len, stacked)) > 20
        assert repr(stacked) == repr(looped)
        rng = np.random.default_rng(11)
        for n in range(2, 50):
            a = rng.normal(size=(7, n, n))
            a += a.transpose(0, 2, 1)
            assert np.array_equal(eigvalsh(a), np.array([eigvalsh(m) for m in a]))

    def test_h2_creation_csfs(self, h2):
        params = default_selection_params(h2)
        specs = create_csfs(params, 2, 2)
        kinds = [(s.kind, s.pair_moves) for s in specs]
        assert kinds == [
            (CsfKind.HF, ()),
            (CsfKind.SINGLE_SINGLET, ()),
            (CsfKind.HF, ((0, 1),)),
        ]

    def test_eps1_one_keeps_dominant_only(self, h2, monkeypatch):
        hq = jordan_wigner(h2)
        engine = CsfElementEngine(hq, 2)
        params = default_selection_params(h2, eps1=1.0)
        specs = create_csfs(params, 2, 2)
        survivors, _ = trim_csfs(engine, specs, params.eps1, 0.0)
        assert len(survivors) == 1
        assert survivors[0].kind is CsfKind.HF

    def test_h2_vo_single_rotation_at_tight_trim(self, h2):
        # a strict trim keeps only the reference; the missing double comes
        # back through a single variational pair rotation
        hq = jordan_wigner(h2)
        basis = select_basis_vo(h2, hq, default_selection_params(h2, eps1=0.5))
        assert len(basis) == 1
        assert basis[0].csf.kind is CsfKind.HF
        assert len(basis[0].rotations) == 1
        assert basis[0].rotations[0][:2] == (1, 0)
        assert basis[0].rotations[0][2] == 0.0

    def test_h2_vo_default_trim_is_linear(self, h2):
        # at the default trim the pair-moved reference survives, the
        # candidate rotation collides with it, and the basis is a pure CI
        hq = jordan_wigner(h2)
        basis = select_basis_vo(h2, hq, default_selection_params(h2))
        assert len(basis) == 2
        assert all(len(b.rotations) == 0 for b in basis)

    def test_h2_pt_reduces_to_ci(self, h2):
        # every orbital active: no external pairs, so PT is a pure CI basis
        hq = jordan_wigner(h2)
        basis = select_basis_pt(h2, hq, default_selection_params(h2))
        assert all(len(b.rotations) == 0 for b in basis)
        assert len(basis) == 2
        assert basis[1].csf.pair_moves == ((0, 1),)

    def test_extension_ordering_and_thresholds(self, h2o, h2o_hq):
        params = default_selection_params(h2o)
        engine = CsfElementEngine(h2o_hq, h2o.n_elec)
        specs = create_csfs(params, h2o.n_orb, h2o.n_elec)
        survivors, h_surv = trim_csfs(engine, specs, params.eps1, 0.0)
        ext = extension_pairs(engine, survivors, h_surv, params.eps2, 0.0)
        assert any(pairs for pairs in ext)
        for pairs in ext:
            mags = [abs(de) for _, de in pairs]
            assert mags == sorted(mags, reverse=True)
            assert all(m > params.eps2 for m in mags)
            assert all(de <= 1e-12 for _, de in pairs)  # enlargement only lowers

    def test_vo_rotation_order_follows_extension(self, h2o, h2o_hq):
        params = default_selection_params(h2o)
        basis = select_basis_vo(h2o, h2o_hq, params)
        engine = CsfElementEngine(h2o_hq, h2o.n_elec)
        specs = create_csfs(params, h2o.n_orb, h2o.n_elec)
        survivors, h_surv = trim_csfs(engine, specs, params.eps1, 0.0)
        ext = extension_pairs(engine, survivors, h_surv, params.eps2, 0.0)
        plans = merge_config_pairs(survivors, ext, h2o.n_orb)
        from senqse.csfbasis import rotation_group_key

        for b in basis:
            key = rotation_group_key(b.csf, h2o.n_orb)
            assert [rot[:2] for rot in b.rotations] == [p for p, _ in plans[key]]

    def test_rotation_groups_share_rotations(self, h2o, h2o_hq):
        from senqse.csfbasis import rotation_group_key

        params = default_selection_params(h2o, eps1=1e-5, eps2=1e-6, n_active_occ=5)
        for basis in (
            select_basis_vo(h2o, h2o_hq, params),
            select_basis_pt(h2o, h2o_hq, params),
        ):
            by_group = {}
            for b in basis:
                key = rotation_group_key(b.csf, h2o.n_orb)
                by_group.setdefault(key, []).append(
                    tuple((r, s) for r, s, _ in b.rotations)
                )
            for pair_lists in by_group.values():
                assert len(set(pair_lists)) == 1

    def test_h2o_vo_magnitudes(self, h2o, h2o_hq):
        # basis size and rotation counts are threshold-dependent; check
        # they stay in a sensible band around the reference magnitudes
        basis = select_basis_vo(h2o, h2o_hq, default_selection_params(h2o))
        assert 2 <= len(basis) <= 40
        assert 1 <= max(len(b.rotations) for b in basis) <= 20
        assert all(th == 0.0 for b in basis for _, _, th in b.rotations)

    def test_h2o_pt_magnitudes(self, h2o, h2o_hq):
        basis = select_basis_pt(h2o, h2o_hq, default_selection_params(h2o))
        assert 5 <= len(basis) <= 80
        assert max(len(b.rotations) for b in basis) <= 8
        labels = [b.label for b in basis]
        assert len(set(labels)) == len(labels)

    def test_selection_params_validation(self):
        with pytest.raises(BasisError):
            SelectionParams(frozenset({0}), frozenset({0}))
        with pytest.raises(BasisError):
            SelectionParams(frozenset({0}), frozenset({1}), eps1=0.0)
        with pytest.raises(BasisError):
            SelectionParams(frozenset({0}), frozenset({1}), eps2=-1.0)

    @pytest.mark.parametrize(
        "occ, virt, cause",
        [
            ((), (5, 6), "occupied"),
            ((5,), (6,), "occupied"),
            ((4,), (), "virtual"),
            ((3,), (2,), "virtual"),
        ],
    )
    def test_window_needs_an_occupied_and_a_virtual_orbital(self, occ, virt, cause):
        # H2O: orbitals 0-4 occupied; a hand-built window is checked where
        # selection starts, as an electron count with no window is
        params = SelectionParams(frozenset(occ), frozenset(virt))
        match = f"no {cause} orbital \\(NELEC=10, NORB=7\\)"
        with pytest.raises(SelectionError, match=match):
            create_csfs(params, 7, 10)


class TestSeniorityConfigOp:
    def test_hf_all_zero(self):
        assert config_bits(CsfSpec(CsfKind.HF), 4) == 0b0000

    def test_single_pattern(self):
        spec = CsfSpec(CsfKind.SINGLE_SINGLET, (1, 3))
        assert config_bits(spec, 4) == 0b1010

    def test_invariant_under_rotations_and_moves(self):
        spec = CsfSpec(CsfKind.SINGLE_SINGLET, (1, 3)).moved(0, 2)
        b = BasisState(spec, ((2, 0, 0.7),), "x")
        assert config_bits(b.csf, 4) == 0b1010


class TestSerialization:
    def test_spec_hash_is_the_fields_hash(self):
        # taken once on construction; a pickled spec is rebuilt, so it gets
        # the hash the loading process gives its fields
        spec = CsfSpec(CsfKind.DOUBLE_SINGLET, (1, 2, 5, 6), ((0, 4),))
        assert hash(spec) == hash((spec.kind, spec.indices, spec.pair_moves))
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec) and back is not spec
        assert repr(back) == repr(spec) and "_hash" not in repr(spec)
        assert spec != CsfSpec(CsfKind.DOUBLE_SINGLET, (1, 2, 5, 6))

    def test_roundtrip(self, h2o, h2o_hq):
        basis = select_basis_pt(h2o, h2o_hq, default_selection_params(h2o))
        text = serialize_basis(basis)
        back = parse_basis(text)
        assert back == basis

    def test_blank_lines_skipped(self, h2o, h2o_hq):
        basis = select_basis_pt(h2o, h2o_hq, default_selection_params(h2o))[:3]
        records = serialize_basis(basis).splitlines()
        assert parse_basis("\n" + "\n  \n \t\n".join(records) + "\n\n") == basis

    def test_roundtrip_preserves_theta_exactly(self):
        b = BasisState(
            CsfSpec(CsfKind.HF).moved(0, 1), ((1, 0, 0.12345678901234567),), "z"
        )
        back = parse_basis(serialize_basis([b]))[0]
        assert back.rotations[0][2] == b.rotations[0][2]

    GOOD = "state s1 kind=SINGLE_SINGLET idx=[2,6] moves=[0->5] rot=(5,4,-0.5)(5,3,0.1)"

    @pytest.mark.parametrize(
        "old, new",
        [
            ("kind=SINGLE_SINGLET", "kind=BOGUS"),
            ("idx=[2,6]", "idx=[a]"),
            ("moves=[0->5]", "moves=[1-2]"),
            ("(5,3,0.1)", "(5,2,x)"),
            ("rot=(5,4,-0.5)(5,3,0.1)", "rot=garbage"),
            ("(5,3,0.1)", "(5,3,0.1)x"),
            ("idx=[2,6]", "idx=[2,2]"),
        ],
    )
    def test_bad_record_is_a_basis_error(self, old, new):
        record = self.GOOD.replace(old, new)
        assert record != self.GOOD
        with pytest.raises(BasisError, match="bad basis record") as info:
            parse_basis(f"{self.GOOD}\n{record}\n")
        assert record in str(info.value)

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf", "1e308"])
    def test_non_finite_double_angle_is_a_basis_error(self, theta):
        # a nan angle used to reach e_min = nan, and inf or 1e308 (2*theta
        # overflows) a bare "math domain error" in the rotation
        record = self.GOOD.replace("(5,3,0.1)", f"(5,3,{theta})")
        assert record != self.GOOD
        with pytest.raises(BasisError, match="not finite") as info:
            parse_basis(f"{self.GOOD}\n{record}\n")
        assert record in str(info.value)

    def test_with_thetas_refuses_bad_angle_lists(self):
        # zip used to cut a short list (one rotation of three kept) and a
        # nan angle passed; a good list keeps the pairs and the label
        b = BasisState(CsfSpec(CsfKind.HF), ((5, 3, 0.1), (6, 4, 0.2), (5, 2, 0.3)), "s0")
        for thetas in ([0.5], [0.5, 0.6, 0.7, 0.8], []):
            with pytest.raises(BasisError, match="angles for 3 rotations"):
                b.with_thetas(thetas)
        for bad in (math.nan, math.inf, 1e308):
            with pytest.raises(BasisError, match="not finite"):
                b.with_thetas([0.5, bad, 0.7])
        moved = b.with_thetas(np.array([0.5, 0.6, 0.7]))
        assert moved == BasisState(b.csf, ((5, 3, 0.5), (6, 4, 0.6), (5, 2, 0.7)), "s0")
        assert all(type(th) is float for _, _, th in moved.rotations)

    @pytest.mark.parametrize(
        "old, new, reason",
        [
            ("moves=[0->5]", "moves=[0->5;0->4]", "revisit an orbital"),
            ("idx=[2,6]", "idx=[2]", "SINGLE_SINGLET needs 2 indices"),
            ("moves=[0->5]", "moves=[0->6]", "touches a singly occupied orbital"),
            ("(5,3,0.1)", "(3,3,0.1)", "needs two distinct orbitals"),
        ],
    )
    def test_invalid_state_is_a_named_basis_error(self, old, new, reason):
        record = self.GOOD.replace(old, new)
        assert record != self.GOOD
        with pytest.raises(BasisError, match=reason) as info:
            parse_basis(f"{self.GOOD}\n{record}\n")
        assert record in str(info.value)

    @pytest.mark.parametrize(
        "path",
        sorted((Path(__file__).parents[1] / "perfbench" / "data").glob("*.basis.txt")),
        ids=lambda p: p.name,
    )
    def test_frozen_bases_round_trip(self, path):
        text = path.read_text()
        basis = parse_basis(text)
        assert basis
        assert serialize_basis(basis) == text
