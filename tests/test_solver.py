import json
import math
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

import oracles
from algebra import PauliSum, total_shots
from oracles import as_arrays, as_sum
from senqse import csfbasis, fci, solver
from senqse.csfbasis import (
    BasisError,
    BasisState,
    CsfKind,
    CsfSpec,
    create_csfs,
    default_selection_params,
    parse_basis,
    rotation_group_key,
    select_basis_pt,
    select_basis_vo,
    config_bits,
)
from senqse.fci import FciError, fci_oracle
from senqse.fermion import (
    jordan_wigner,
    load_fcidump,
)
from senqse.measure import allocate_and_score, predicted_mse
from senqse.pauli import PauliArrays
from senqse.simulator import draw_table
from senqse.solver import (
    BIAS_KAPPA,
    FLOOR_KAPPA,
    MatrixSampler,
    SolverError,
    SubspaceEngine,
    _SlotModel,
    _integer_split,
    build_subspace,
    ground_state,
    make_matrix_sampler,
    relax_orbitals,
    vo_optimize,
)
from senqse.taper import SupportOperator
from test_imports import run_fresh

FIXTURES = Path(__file__).parent / "fixtures"
REFERENCE = json.loads((FIXTURES / "reference.json").read_text())
FIXTURE_STEMS = [
    "h2_0.7414", "h2_1.0000", "h2_1.5000", "h2o_1.0000", "h2o_2.1000", "h2o_3.0000"
]
ONE_BLAS_THREAD = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
# the oracle energy of the dense branch, then of the Lanczos branch
ORACLE_BITS = textwrap.dedent(
    """
    import sys

    from senqse import fci
    from senqse.fermion import jordan_wigner, load_fcidump

    ints = load_fcidump(sys.argv[1])
    hq = jordan_wigner(ints)
    dense = fci.fci_oracle(hq, ints.n_elec, 0.0).energy
    fci._DENSE_CUTOFF = 0
    print(repr(dense), repr(fci.fci_oracle(hq, ints.n_elec, 0.0).energy))
    """
)


@pytest.fixture(scope="module")
def h2():
    return load_fcidump(FIXTURES / "h2_0.7414.fcidump")


@pytest.fixture(scope="module")
def h2_hq(h2):
    return jordan_wigner(h2)


@pytest.fixture(scope="module")
def h2o():
    return load_fcidump(FIXTURES / "h2o_1.0000.fcidump")


@pytest.fixture(scope="module")
def h2o_hq(h2o):
    return jordan_wigner(h2o)


@pytest.fixture(scope="module")
def h2o_vo_selected():
    """The H2O 1.0 A VO selection at the acceptance settings, amplitudes zero."""
    return parse_basis((FIXTURES / "h2o_1.0000.vo-selected.basis.txt").read_text())


def sector_matrix(hq, dets):
    """The oracle's dense sector matrix: its checked entries
    (``fci._sector_entries``) assigned one chunk at a time."""
    mat = np.zeros((len(dets), len(dets)))
    for rows, cols, vals in fci._sector_entries(hq, dets):
        mat[rows, cols] = vals
    return mat


class TestGroundState:
    def test_diagonal(self):
        e, c0 = ground_state(np.diag([1.0, 2.0]))
        assert e == 1.0
        assert np.allclose(c0, [1.0, 0.0])

    def test_two_by_two(self):
        e, c0 = ground_state(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert e == pytest.approx(-1.0)
        assert np.allclose(c0, [1.0, -1.0] / np.sqrt(2.0))

    def test_random_matches_residual(self):
        rng = np.random.default_rng(139)
        m = rng.normal(size=(8, 8))
        m = 0.5 * (m + m.T)
        e, c0 = ground_state(m)
        assert e == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-10)
        assert np.linalg.norm(m @ c0 - e * c0) < 1e-8

    def test_rejects_nonhermitian(self):
        with pytest.raises(SolverError):
            ground_state(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        # a nan compares False with the tolerance, so it must fail the check
        with pytest.raises(SolverError, match="not finite"):
            ground_state(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestFciOracle:
    def test_h2_reference(self, h2_hq, h2):
        res = fci_oracle(h2_hq, h2.n_elec, 0.0)
        assert res.energy == pytest.approx(REFERENCE["h2_0.7414"]["e_fci"], abs=1e-8)
        assert res.energy == pytest.approx(-1.1373, abs=2e-4)

    def test_h2o_against_independent_determinant_fci(self, h2o_hq, h2o):
        res = fci_oracle(h2o_hq, h2o.n_elec, 0.0)
        assert res.energy == pytest.approx(REFERENCE["h2o_1.0000"]["e_fci"], abs=1e-7)

    @pytest.mark.parametrize("stem", ["h2o_1.0000", "h2o_3.0000"])
    def test_lanczos_branch_matches_dense(self, stem, monkeypatch):
        import scipy.sparse.linalg

        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        hq = jordan_wigner(ints)
        dense = fci_oracle(hq, ints.n_elec, 0.0).energy
        eigsh = scipy.sparse.linalg.eigsh
        calls = []

        def counted_eigsh(*args, **kwargs):
            calls.append(args[0].shape)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(fci, "_DENSE_CUTOFF", 0)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted_eigsh)
        res = fci_oracle(hq, ints.n_elec, 0.0)
        assert calls == [(441, 441)]
        assert res.energy == pytest.approx(dense, abs=1e-9)
        assert res.energy == pytest.approx(REFERENCE[stem]["e_fci"], abs=1e-7)

    def test_lanczos_branch_is_deterministic(self, h2o_hq, h2o, monkeypatch):
        # ARPACK starts from a fixed vector, not a random one, so repeated
        # calls return the same bits
        dense = fci_oracle(h2o_hq, h2o.n_elec, 0.0).energy
        monkeypatch.setattr(fci, "_DENSE_CUTOFF", 0)
        first, second = (fci_oracle(h2o_hq, h2o.n_elec, 0.0).energy for _ in range(2))
        assert first == second
        assert first == pytest.approx(dense, abs=1e-9)

    @pytest.mark.parametrize("stem", ["h2_0.7414", "h2o_1.0000"])
    def test_dense_assembly_matches_coo_csr(self, stem):
        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        hq = jordan_wigner(ints)
        n = ints.n_elec // 2
        dets = fci._sector_determinants(ints.n_orb, n, n)
        dense = sector_matrix(hq, dets)
        ref = oracles.coo_csr_sector_matrix(hq, dets).toarray()
        assert dense.shape == ref.shape == (len(dets), len(dets))
        assert np.max(np.abs(dense - ref)) <= 1e-12

    @pytest.mark.parametrize(
        "stem",
        ["h2_0.7414", "h2_1.0000", "h2_1.5000", "h2o_1.0000", "h2o_2.1000", "h2o_3.0000"],
    )
    def test_term_by_term_assembly_matches_one_add_at(self, stem):
        # only terms with x = row ^ col reach an entry, so summing each X
        # string's terms in term order sums each entry in the order one
        # np.add.at over every term's concatenated entries does: the
        # oracle's sector and the pass's dense matrix equal it bit for bit
        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        hq = jordan_wigner(ints)
        n = ints.n_elec // 2
        dets = fci._sector_determinants(ints.n_orb, n, n)
        want = oracles.one_add_at_sector_matrix(hq, dets).tobytes()
        assert sector_matrix(hq, dets).tobytes() == want
        assert SupportOperator(hq).dense(dets).tobytes() == want

    @pytest.mark.parametrize("stem", FIXTURE_STEMS)
    def test_entries_in_the_order_of_the_reference_triples(self, stem):
        # every term with X string x reaches the same entries, so the
        # reference triples sorted stably by (x, column) list each entry's
        # terms in hq order, entries by X string, then column: the pass's
        # order, in which the Lanczos CSR receives them
        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        hq = jordan_wigner(ints)
        n = ints.n_elec // 2
        dets = fci._sector_determinants(ints.n_orb, n, n)
        rows, cols, vals = oracles.sector_triples(hq, dets)
        order = np.lexsort((cols, (dets[rows] ^ dets[cols]).astype(np.int64)))
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.append(True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1]))
        sums = np.bincount(np.cumsum(first) - 1, vals)
        got = [np.concatenate(a) for a in zip(*fci._sector_entries(hq, dets))]
        assert np.array_equal(got[0], rows[first])
        assert np.array_equal(got[1], cols[first])
        assert got[2].tobytes() == sums.tobytes()

    def test_blocks_hold_each_entry_once(self, monkeypatch):
        # the blocks' (row, col) pairs are distinct and are exactly the
        # positions the terms reach, so the Lanczos CSR holds no duplicate
        import scipy.sparse.linalg

        ints = load_fcidump(FIXTURES / "h2o_3.0000.fcidump")
        hq = jordan_wigner(ints)
        dets = fci._sector_determinants(ints.n_orb, 5, 5)
        blocks = list(fci._sector_entries(hq, dets))
        rows = np.concatenate([r for r, _, _ in blocks])
        cols = np.concatenate([c for _, c, _ in blocks])
        pairs = rows * len(dets) + cols
        assert len(np.unique(pairs)) == len(pairs)
        ref_rows, ref_cols, _ = oracles.sector_triples(hq, dets)
        assert np.array_equal(np.unique(pairs), np.unique(ref_rows * len(dets) + ref_cols))

        eigsh = scipy.sparse.linalg.eigsh
        nnz = []

        def counted_eigsh(*args, **kwargs):
            nnz.append(args[0].nnz)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(fci, "_DENSE_CUTOFF", 0)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted_eigsh)
        fci_oracle(hq, ints.n_elec, 0.0)
        assert nnz == [len(pairs)]

    @pytest.mark.parametrize("stem", ["h2o_1.0000", "h2o_2.1000", "h2o_3.0000"])
    def test_dense_assembly_peak_near_one_matrix(self, stem):
        # entries are assigned into the matrix a chunk at a time, with no
        # dim x dim temporary; 3.0 A has the most terms (2974)
        import tracemalloc

        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        hq = jordan_wigner(ints)
        dets = fci._sector_determinants(ints.n_orb, 5, 5)
        sector_matrix(hq, dets)
        tracemalloc.start()
        try:
            sector_matrix(hq, dets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * len(dets) ** 2 * 8

    @pytest.mark.parametrize("stem", ["h2o_1.0000", "h2o_2.1000", "h2o_3.0000"])
    def test_traced_peak_near_the_dense_matrix(self, stem):
        # the sector matrix and its two spin-flip blocks (231 and 210 rows),
        # no dim x dim copy for the flip check and no full-size gather for a
        # block: about 1.59 dim^2 doubles
        import tracemalloc

        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        hq = jordan_wigner(ints)
        dim = len(fci._sector_determinants(ints.n_orb, 5, 5))
        fci_oracle(hq, ints.n_elec, 0.0)
        tracemalloc.start()
        try:
            fci_oracle(hq, ints.n_elec, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.65 * dim**2 * 8

    @pytest.mark.parametrize(
        "stem, dense, lanczos",
        [
            ("h2o_1.0000", -75.01768869060183, -75.01768869060203),
            ("h2o_2.1000", -74.75368662324253, -74.75368662324183),
            ("h2o_3.0000", -74.73773974210849, -74.73773974210584),
        ],
    )
    def test_energy_bits_in_both_branches(self, stem, dense, lanczos):
        # the bits of the per-X-string assembly that the chunked one replaced;
        # a threaded dense eigensolve sums in an order set by the BLAS thread
        # count, so the oracle runs in a fresh interpreter with one thread
        out = run_fresh(ORACLE_BITS, f"{stem}.fcidump", **ONE_BLAS_THREAD)
        assert out.split() == [repr(dense), repr(lanczos)]

    @pytest.mark.parametrize("cutoff", [fci._DENSE_CUTOFF, 0])
    def test_asymmetric_sector_rejected(self, cutoff, monkeypatch):
        # a_0^+ a_2 - a_2^+ a_0 on the up spin: real, antisymmetric in the sector
        hop = oracles.jw_operator([(0, True), (2, False)], 4) - oracles.jw_operator(
            [(2, True), (0, False)], 4
        )
        monkeypatch.setattr(fci, "_DENSE_CUTOFF", cutoff)
        with pytest.raises(FciError, match="asymmetry"):
            fci_oracle(as_arrays(oracles.number_operator(2) + hop.simplify()), 2, 0.0)

    @pytest.mark.parametrize("cutoff", [fci._DENSE_CUTOFF, 0])
    def test_imaginary_sector_rejected(self, cutoff, monkeypatch):
        # X0 Y2 moves the up electron between orbitals 0 and 1 with phase i
        hq = oracles.number_operator(2) + PauliSum.from_label("X0 Y2", 0.5, 4)
        monkeypatch.setattr(fci, "_DENSE_CUTOFF", cutoff)
        with pytest.raises(FciError, match="imaginary"):
            fci_oracle(as_arrays(hq), 2, 0.0)

    def test_one_electron_sector_matches_one_body_block(self):
        rng = np.random.default_rng(149)
        n_orb = 3
        h = rng.normal(size=(n_orb, n_orb))
        h = 0.5 * (h + h.T)
        hq = PauliSum(2 * n_orb)
        for p in range(n_orb):
            for q in range(n_orb):
                for s in (0, 1):
                    hq = hq + oracles.jw_operator(
                        [(2 * p + s, True), (2 * q + s, False)], 2 * n_orb, h[p, q]
                    )
        hq = oracles.chop_imag(hq.simplify())
        res = fci_oracle(as_arrays(hq), 1, 0.5)
        assert res.energy == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-10)

    def test_sector_particle_number(self):
        # n_up electrons on the even (up-spin) bits, n_dn on the odd ones
        for n_orb, n_up, n_dn in [(2, 1, 1), (3, 2, 1), (3, 0, 2), (7, 5, 5)]:
            dets = fci._sector_determinants(n_orb, n_up, n_dn).tolist()
            up = sum(1 << (2 * p) for p in range(n_orb))
            assert len(set(dets)) == math.comb(n_orb, n_up) * math.comb(n_orb, n_dn)
            assert all((d & up).bit_count() == n_up for d in dets)
            assert all((d & (up << 1)).bit_count() == n_dn for d in dets)
            assert all(d.bit_count() == n_up + n_dn for d in dets)

    @pytest.mark.parametrize("stem", FIXTURE_STEMS)
    def test_spin_flip_blocks_split_the_sector(self, stem):
        # P from each determinant's own reordering parity, not the package's
        # doubly-occupied count; the blocks' spectra are the whole matrix's
        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        n = ints.n_elec // 2
        dets = fci._sector_determinants(ints.n_orb, n, n)
        mat = sector_matrix(jordan_wigner(ints), dets)
        flip, sign = oracles.spin_flip(dets)
        php = sign[:, None] * sign * mat[np.ix_(flip, flip)]
        assert np.max(np.abs(php - mat)) <= 1e-12
        blocks = list(fci._spin_flip_blocks(mat, dets, ints.n_orb))
        spectra = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
        assert np.max(np.abs(spectra - np.linalg.eigvalsh(mat))) <= 1e-10
        if stem.startswith("h2o"):
            assert sorted(len(b) for b in blocks) == [210, 231]

    @pytest.mark.parametrize("stem", FIXTURE_STEMS)
    def test_matches_whole_sector_eigh(self, stem):
        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        hq = jordan_wigner(ints)
        ref = oracles.whole_sector_energy(hq, ints.n_elec // 2, ints.n_elec // 2)
        assert fci_oracle(hq, ints.n_elec, 0.0).energy == pytest.approx(ref, abs=1e-10)

    def test_spin_flip_breaking_sector_rejected(self):
        # a_0^+ a_2 + a_2^+ a_0 hops the up spin alone: real and symmetric,
        # so it passes the imaginary and asymmetry checks, but breaks the flip
        hop = oracles.jw_operator([(0, True), (2, False)], 4) + oracles.jw_operator(
            [(2, True), (0, False)], 4
        )
        with pytest.raises(FciError, match="spin-flip symmetry"):
            fci_oracle(as_arrays(oracles.number_operator(2) + hop.simplify()), 2, 0.0)

    def test_empty_sector_rejected(self, h2_hq):
        with pytest.raises(FciError):
            fci_oracle(h2_hq, 2, 3.0)
        with pytest.raises(FciError):
            fci_oracle(h2_hq, 12, 0.0)

    def test_term_less_operator_rejected(self):
        empty = PauliArrays(4, np.zeros((0, 2), dtype=np.uint64), np.zeros(0, dtype=complex))
        with pytest.raises(FciError, match="no terms"):
            fci_oracle(empty, 2, 0.0)


class TestBuildSubspace:
    def test_single_hf_state(self, h2_hq, h2):
        basis = [BasisState(CsfSpec(CsfKind.HF), (), "hf")]
        problem = build_subspace(basis, h2_hq, h2.n_elec)
        assert problem.hmat.shape == (1, 1)
        assert problem.e_min == pytest.approx(oracles.hf_energy(h2), abs=1e-10)

    def test_configs_are_the_kernels(self, h2o, h2o_hq, h2o_vo_selected):
        kernel = csfbasis.CsfElementEngine(h2o_hq, h2o.n_elec)
        engine = SubspaceEngine(h2o_vo_selected, h2o_hq, h2o.n_elec, kernel=kernel)
        for mu, b in enumerate(engine.basis):
            assert engine.config(mu) == kernel.bits(b.csf)
            assert engine.config(mu) == config_bits(b.csf, h2o.n_orb)

    def test_empty_sector_operator_is_an_early_zero(
        self, h2o, h2o_hq, h2o_vo_selected, monkeypatch
    ):
        # config pairs that no term links: +0.0 with no operator applied,
        # equal (sign included) to the full evaluation;
        # the basis is the VO selection plus one rotation-free CSF of each
        # config it lacks
        rng = np.random.default_rng(4)
        seen = {config_bits(b.csf, h2o.n_orb) for b in h2o_vo_selected}
        basis = list(h2o_vo_selected)
        params = default_selection_params(h2o)
        for spec in create_csfs(params, h2o.n_orb, h2o.n_elec):
            bits = config_bits(spec, h2o.n_orb)
            if bits not in seen:
                seen.add(bits)
                basis.append(BasisState(spec, (), f"extra{len(basis)}"))
        reference = SubspaceEngine(basis, h2o_hq, h2o.n_elec)
        engine = SubspaceEngine(basis, h2o_hq, h2o.n_elec)
        for mu, b in enumerate(basis):
            b = b.with_thetas(rng.uniform(-np.pi, np.pi, len(b.rotations)))
            reference.replace_basis_state(mu, b)
            engine.replace_basis_state(mu, b)
        pairs = [
            (mu, nu)
            for mu in range(engine.size)
            for nu in range(engine.size)
            if not reference.xop(mu, nu)
        ]
        assert len(pairs) > 100
        old = {}
        for mu, nu in pairs:
            bra, ket = reference.state(mu).amplitudes, reference.state(nu).amplitudes
            op = reference.xop(mu, nu)
            old[mu, nu] = np.vdot(bra, solver.apply_pauli_sum(ket, op)).real

        def refuse(*args):
            raise AssertionError("an empty operator was applied")

        monkeypatch.setattr(solver, "apply_pauli_sum", refuse)
        monkeypatch.setattr(solver, "SupportOperator", refuse)
        for (mu, nu), want in old.items():
            got = engine.element_exact(mu, nu)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        assert not engine._xmats

    @pytest.mark.parametrize("orbital", [2, -1])
    @pytest.mark.parametrize("build", [build_subspace, vo_optimize])
    def test_open_shell_outside_the_register_is_a_basis_error(
        self, h2, h2_hq, build, orbital
    ):
        # H2 has orbitals 0 and 1: an open shell at n_orb or at -1 names no
        # orbital of the register, and no bit of the config mask
        basis = parse_basis(
            "state hf kind=HF idx=[] moves=[] rot=\n"
            f"state s0 kind=SINGLE_SINGLET idx=[0,{orbital}] moves=[] rot=\n"
        )
        with pytest.raises(BasisError, match=f"open-shell orbital {orbital} out of range"):
            build(basis, h2_hq, h2.n_elec)

    def test_constant_shift_ablation(self, h2o, h2o_hq):
        # the shift by the exact diagonal elements only lowers the swap-test
        # variances of same-config pairs; the matrix itself does not move
        basis = parse_basis((FIXTURES / "h2o_1.0000.vo.basis.txt").read_text())
        on, off = (
            build_subspace(
                basis, h2o_hq, h2o.n_elec, compute_sigma=True, constant_shift=shift
            )
            for shift in (True, False)
        )
        assert np.array_equal(on.hmat, off.hmat) and on.e_min == off.e_min
        configs = [config_bits(b.csf, h2o.n_orb) for b in basis]
        same = np.array([[a == b for b in configs] for a in configs])
        np.fill_diagonal(same, False)
        assert np.count_nonzero(np.triu(same)) == 39
        assert np.array_equal(on.cost.sigma[~same], off.cost.sigma[~same])
        assert np.all(off.cost.sigma[same] >= on.cost.sigma[same])
        assert on.cost.metric == pytest.approx(12.83, rel=1e-3)
        assert off.cost.metric == pytest.approx(23681, rel=1e-4)

    def test_variational_bound_and_nesting(self, h2_hq, h2):
        fci = fci_oracle(h2_hq, 2, 0.0).energy
        small = [BasisState(CsfSpec(CsfKind.HF), (), "hf")]
        big = small + [BasisState(CsfSpec(CsfKind.HF).moved(0, 1), (), "d")]
        e_small = build_subspace(small, h2_hq, 2).e_min
        e_big = build_subspace(big, h2_hq, 2).e_min
        assert fci <= e_big + 1e-10 <= e_small + 1e-10

    def test_h2_vo_reaches_fci(self, h2, h2_hq):
        basis = select_basis_vo(h2, h2_hq, default_selection_params(h2))
        opt_basis, problem, history = vo_optimize(basis, h2_hq, h2.n_elec)
        fci = fci_oracle(h2_hq, 2, 0.0).energy
        assert problem.e_min == pytest.approx(fci, abs=1e-8)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_no_taper_matches_tapered(self, h2, h2_hq):
        basis = select_basis_pt(h2, h2_hq, default_selection_params(h2))
        tapered = build_subspace(basis, h2_hq, 2, taper=True)
        ablated = build_subspace(basis, h2_hq, 2, taper=False)
        assert np.allclose(tapered.hmat, ablated.hmat, atol=1e-10)
        assert tapered.e_min == pytest.approx(ablated.e_min, abs=1e-10)

    def test_no_taper_h2o(self, h2o, h2o_hq):
        basis = select_basis_pt(h2o, h2o_hq, default_selection_params(h2o))[:6]
        tapered = build_subspace(basis, h2o_hq, 10, taper=True)
        ablated = build_subspace(basis, h2o_hq, 10, taper=False)
        assert np.allclose(tapered.hmat, ablated.hmat, atol=1e-9)

    def test_no_taper_whole_tuned_h2o_pt_basis(self, h2o, h2o_hq):
        # the acceptance settings' PT basis in full, on the 14-qubit register
        params = default_selection_params(h2o, eps1=1e-5, eps2=1e-6, n_active_occ=5)
        basis = select_basis_pt(h2o, h2o_hq, params)
        assert len(basis) == 30
        tapered = build_subspace(basis, h2o_hq, 10, taper=True)
        ablated = build_subspace(basis, h2o_hq, 10, taper=False)
        assert np.allclose(tapered.hmat, ablated.hmat, atol=1e-9, rtol=0.0)
        assert tapered.e_min == pytest.approx(ablated.e_min, abs=1e-10)

    def test_no_taper_rotated_states(self, h2_hq):
        basis = rotated_h2_basis(0.3, open_shell=True)
        tapered = build_subspace(basis, h2_hq, 2, taper=True)
        ablated = build_subspace(basis, h2_hq, 2, taper=False)
        assert np.allclose(tapered.hmat, ablated.hmat, atol=1e-10)
        assert abs(ablated.hmat[0, 1]) > 1e-3  # the rotation couples the pair

    def test_no_taper_refuses_sampling_and_sigma(self, h2, h2_hq):
        basis = select_basis_pt(h2, h2_hq, default_selection_params(h2))
        with pytest.raises(SolverError, match="^sampling requires the tapered"):
            build_subspace(basis, h2_hq, 2, "sampled", 100, 0, taper=False)
        with pytest.raises(SolverError, match="^sigma accounting requires the tapered"):
            build_subspace(basis, h2_hq, 2, taper=False, compute_sigma=True)

    def test_duplicate_basis_rejected(self, h2_hq):
        b = BasisState(CsfSpec(CsfKind.HF), (), "hf")
        with pytest.raises(SolverError, match="duplicate"):
            build_subspace([b, b], h2_hq, 2)

    def test_classical_elements_noise_free(self, h2, h2_hq):
        # rotation-free PT basis: sampled mode must reproduce exact values
        basis = select_basis_pt(h2, h2_hq, default_selection_params(h2))
        assert all(not b.rotations for b in basis)
        exact = build_subspace(basis, h2_hq, 2, mode="exact")
        sampled = build_subspace(basis, h2_hq, 2, mode="sampled", shots=10, seed=7)
        assert np.array_equal(exact.hmat, sampled.hmat)

    def test_sampled_mode_converges(self, h2, h2_hq):
        basis = select_basis_vo(h2, h2_hq, default_selection_params(h2, eps1=0.5))
        basis, exact_problem, _ = vo_optimize(basis, h2_hq, 2)
        sampled = build_subspace(
            basis, h2_hq, 2, mode="sampled", shots=200_000, seed=3
        )
        assert sampled.sampler is not None
        assert sampled.e_min == pytest.approx(exact_problem.e_min, abs=5e-3)
        assert sampled.cost is not None and sampled.cost.sigma.max() > 0

    def test_sampled_requires_args(self, h2_hq):
        basis = [BasisState(CsfSpec(CsfKind.HF), (), "hf")]
        with pytest.raises(SolverError):
            build_subspace(basis, h2_hq, 2, mode="sampled")

    def test_sampler_deterministic(self, h2, h2_hq):
        basis = select_basis_vo(h2, h2_hq, default_selection_params(h2, eps1=0.5))
        basis = tuple(b.with_thetas([0.1] * len(b.rotations)) for b in basis)
        engine = SubspaceEngine(basis, h2_hq, 2)
        sampler = make_matrix_sampler(engine, 1000)
        h1 = sampler.draw(11)
        h2_ = sampler.draw(11)
        h3 = sampler.draw(12)
        assert np.array_equal(h1, h2_)
        assert not np.array_equal(h1, h3)

    def test_sampled_mse_matches_prediction(self, h2, h2_hq):
        basis = select_basis_vo(h2, h2_hq, default_selection_params(h2, eps1=0.5))
        basis, _, _ = vo_optimize(basis, h2_hq, 2)
        engine = SubspaceEngine(basis, h2_hq, 2)
        sampler = make_matrix_sampler(engine, 2000)
        exact = engine.exact_matrix()
        e0, c0 = ground_state(exact)
        sigma, _ = engine.sigma_matrix(sampler.plan)
        shots = {k: sum(v) for k, v in sampler.shots.items()}
        pred = predicted_mse(sigma, c0, shots)
        errs = [ground_state(sampler.draw(seed))[0] - e0 for seed in range(300)]
        emp = float(np.mean(np.square(errs)))
        se = pred * np.sqrt(2.0 / len(errs))
        assert abs(emp - pred) < 4 * se + 0.15 * pred


@pytest.fixture(scope="module")
def h2_theta(h2, h2_hq):
    """The optimal pair-rotation angle of the one-rotation H2 basis."""
    basis = select_basis_vo(h2, h2_hq, default_selection_params(h2, eps1=0.5))
    basis, _, _ = vo_optimize(basis, h2_hq, 2)
    return basis[0].rotations[0][2]


def rotated_h2_basis(theta, open_shell=False):
    """Both seniority-zero H2 configurations under one pair rotation.

    At the optimal angle the second state is the exact excited state of
    that block, so its diagonal element has no first-order weight.  The
    optional open-shell singlet is rotation-free and decoupled by symmetry.
    """
    hf = CsfSpec(CsfKind.HF)
    rot = ((1, 0, theta),)
    basis = [BasisState(hf, rot, "g"), BasisState(hf.moved(0, 1), rot, "u")]
    if open_shell:
        basis.append(BasisState(CsfSpec(CsfKind.SINGLE_SINGLET, (0, 1)), (), "s"))
    return basis


def first_order_table(engine, plan, total_shots):
    """The shot table of the first-order optimum alone, as integers.

    Elements with a first-order share split the budget by it; the others
    get one shot per fragment.  Fragments split as in the sampler.
    """
    exact = engine.exact_matrix()
    _, c0 = ground_state(exact)
    sigma, _ = engine.sigma_matrix(plan)
    shares = allocate_and_score(sigma, np.asarray(c0, dtype=float), {}).element_proportions
    live = [key for key in plan if shares.get(key, 0.0) > 0.0]
    table = {key: [1] * len(sigs) for key, (_, sigs) in plan.items()}
    for key, m in zip(live, _integer_split(total_shots, [shares[k] for k in live])):
        table[key] = _integer_split(max(m, len(plan[key][1])), plan[key][1])
    spectrum = np.linalg.eigh(exact)
    return MatrixSampler(
        exact=exact,
        plan=plan,
        shots=table,
        coefficients=solver._error_coefficients(spectrum, plan),
        exact_c0=spectrum[1][:, 0],
    )


def floor_gap(sampler):
    return float(np.diff(np.linalg.eigvalsh(sampler.exact))[0])


def standard_errors(sampler):
    return {
        key: sum(sigs) / np.sqrt(sum(sampler.shots[key]))
        for key, (_, sigs) in sampler.plan.items()
        if sum(sigs) > 0
    }


class TestShotTable:
    def test_one_state_subspace_has_no_floor_or_bias(self, h2_hq, h2_theta, caplog):
        engine = SubspaceEngine(rotated_h2_basis(h2_theta)[:1], h2_hq, 2)
        sampler = make_matrix_sampler(engine, 2000)
        assert list(sampler.shots) == [(0, 0)]
        assert total_shots(sampler) == 2000
        assert sampler.second_order_bias == 0.0
        sigs = sampler.plan[(0, 0)][1]
        expected = sum(s * s / m for s, m in zip(sigs, sampler.shots[(0, 0)]))
        assert sampler.first_order_mse == pytest.approx(expected, rel=1e-12)
        assert sampler.elements_at_floor == 0
        assert not caplog.records

    def test_floors_met_and_error_no_larger(self, h2_hq, h2_theta):
        engine = SubspaceEngine(rotated_h2_basis(h2_theta, open_shell=True), h2_hq, 2)
        sampler = make_matrix_sampler(engine, 20_000)
        plan = sampler.plan
        assert total_shots(sampler) == 20_000
        bound = FLOOR_KAPPA * floor_gap(sampler)
        assert all(se <= bound for se in standard_errors(sampler).values())
        assert sampler.second_order_bias < 0.0
        # the first-order split starves the excited state's diagonal
        reference = first_order_table(engine, plan, 20_000)
        assert max(standard_errors(reference).values()) > bound
        # the floor lifts the starved element; the first-order table leaves
        # it below, with the small off-diagonal element
        assert sampler.elements_at_floor == 1
        assert reference.elements_at_floor == 2
        ours = sampler.first_order_mse + sampler.second_order_bias**2
        theirs = reference.first_order_mse + reference.second_order_bias**2
        assert ours <= theirs

    def test_matches_first_order_split_when_floors_hold(self, h2_hq):
        # away from the optimal angle every element has first-order weight
        engine = SubspaceEngine(rotated_h2_basis(1.0), h2_hq, 2)
        sampler = make_matrix_sampler(engine, 20_000)
        plan = sampler.plan
        reference = first_order_table(engine, plan, 20_000)
        bound = FLOOR_KAPPA * floor_gap(sampler)
        assert all(se <= bound for se in standard_errors(reference).values())
        assert sampler.elements_at_floor == reference.elements_at_floor == 0
        ours = sampler.first_order_mse + sampler.second_order_bias**2
        theirs = reference.first_order_mse + reference.second_order_bias**2
        assert ours <= theirs * (1.0 + 1e-9)  # integer rounding of equal splits

    def test_degenerate_ground_level(self, h2_hq, h2_theta):
        # a seniority shift on orbital 0 lowers the open-shell singlet onto
        # the seniority-zero ground state without coupling them
        basis = rotated_h2_basis(h2_theta, open_shell=True)
        exact = SubspaceEngine(basis, h2_hq, 2).exact_matrix()
        shift = 0.5 * (exact[2, 2] - np.linalg.eigvalsh(exact[:2, :2])[0])
        hq = as_sum(h2_hq)
        hq.add_term(0, 0b11, shift)
        engine = SubspaceEngine(basis, as_arrays(hq), 2)
        sampler = make_matrix_sampler(engine, 20_000)
        vals = np.linalg.eigvalsh(sampler.exact)
        assert vals[1] - vals[0] < 1e-10
        assert total_shots(sampler) == 20_000
        bound = FLOOR_KAPPA * (vals[2] - vals[0])
        assert all(se <= bound for se in standard_errors(sampler).values())
        assert np.isfinite(sampler.second_order_bias)
        # noise on the rotated ground state moves E_0 at first order,
        # whichever ground vector the eigensolver returns
        assert sampler.first_order_mse > 0.0
        table = {key: sum(v) for key, v in sampler.shots.items()}
        assert max(table, key=table.get) == (0, 0)

    def test_bias_weighted_table(self, monkeypatch):
        # one element with first-order weight only, one with bias only: with
        # no bound the table is the first-order split, whose B^2 = 99 F at
        # 100 shots, so the bound moves shots until B^2 = kappa^2 F
        floor, a, b = np.ones(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])
        monkeypatch.setattr(solver, "BIAS_KAPPA", np.inf)
        m = solver._bias_weighted_table(floor, a, b, 100.0)
        assert m.tolist() == [99.0, 1.0]
        monkeypatch.setattr(solver, "BIAS_KAPPA", BIAS_KAPPA)
        bound = solver._bias_weighted_table(floor, a, b, 100.0)
        assert bound.sum() == pytest.approx(100.0, rel=1e-12)
        assert bound[1] > m[1]
        assert (1.0 / bound[1]) ** 2 == pytest.approx(
            BIAS_KAPPA**2 / bound[0], rel=1e-9
        )
        # no bias term: the first-order split, untouched by the bound
        plain = solver._bias_weighted_table(floor, np.array([1.0, 4.0]), np.zeros(2), 90.0)
        assert plain == pytest.approx([30.0, 60.0], rel=1e-12)
        # a weak bias that the first-order split already holds within the
        # bound: that split comes back exactly
        weak = solver._bias_weighted_table(floor, np.ones(2), np.array([0.01, 0.0]), 100.0)
        assert weak.tolist() == [50.0, 50.0]
        # no first-order weight: no table meets the bound, and the budget
        # goes to the bias terms, m proportional to sqrt(b)
        only_bias = solver._bias_weighted_table(floor, np.zeros(2), np.array([1.0, 4.0]), 90.0)
        assert only_bias.sum() == pytest.approx(90.0, rel=1e-12)
        assert only_bias == pytest.approx([30.0, 60.0], rel=1e-12)

    def test_budget_below_floors(self, h2_hq, h2_theta, caplog):
        engine = SubspaceEngine(rotated_h2_basis(h2_theta), h2_hq, 2)
        with caplog.at_level("WARNING", logger="senqse.solver"):
            sampler = make_matrix_sampler(engine, 10)
        assert any("floors scaled" in r.getMessage() for r in caplog.records)
        assert total_shots(sampler) == 10
        assert all(m >= 1 for v in sampler.shots.values() for m in v)
        assert sampler.elements_at_floor == len(standard_errors(sampler)) == 3

    def test_scaled_floors_report_the_bias_ratio(self, h2o, h2o_hq, caplog):
        # the H2O 1.0 A floors need 24 875 shots; scaled into 20 000 the
        # table's bias breaks the bound, and the warning says by how much
        basis = parse_basis((FIXTURES / "h2o_1.0000.vo.basis.txt").read_text())
        engine = SubspaceEngine(basis, h2o_hq, h2o.n_elec)
        with caplog.at_level("WARNING", logger="senqse.solver"):
            sampler = make_matrix_sampler(engine, 20_000)
        ratio = abs(sampler.second_order_bias) / np.sqrt(sampler.first_order_mse)
        assert ratio > BIAS_KAPPA
        (record,) = [r for r in caplog.records if "floors scaled" in r.getMessage()]
        message = record.getMessage()
        assert "below the 24875 shots" in message
        assert sampler.floor_shots == 24875
        assert f"|B|/sqrt(F) = {ratio:.3f} against BIAS_KAPPA = {BIAS_KAPPA:g}" in message


@pytest.fixture(scope="module")
def h2o_sampler(h2o, h2o_hq):
    """The 200 000-shot sampler of the optimized H2O 1.0 A VO basis."""
    basis = parse_basis((FIXTURES / "h2o_1.0000.vo.basis.txt").read_text())
    return make_matrix_sampler(SubspaceEngine(basis, h2o_hq, h2o.n_elec), 200_000)


class TestMatrixDraws:
    def test_one_stream_per_draw(self, h2o_sampler, monkeypatch):
        streams, drawn = [], []
        rng_for = solver.rng_for

        class Recorder:
            def __init__(self, rng):
                self.rng = rng

            def multinomial(self, n, pvals):
                counts = self.rng.multinomial(n, pvals)
                drawn.append((counts, pvals))
                return counts

        def counted(*key):
            streams.append(key)
            return Recorder(rng_for(*key))

        monkeypatch.setattr(solver, "rng_for", counted)
        h = h2o_sampler.draw(17)
        assert streams == [(17,)]
        assert np.array_equal(h2o_sampler.draw(17), h)
        assert not np.array_equal(h2o_sampler.draw(18), h)
        assert len(streams) == 3

        # one row per fragment, in plan order and then fragment order, each
        # holding that fragment's distinct values and zeros beyond them
        counts, pvals = drawn[0]
        rows = [
            (key, s, m)
            for key, (samplers, _) in h2o_sampler.plan.items()
            for s, m in zip(samplers, h2o_sampler.shots[key])
        ]
        merged = [oracles.distinct_values(s.probs, s.values) for _, s, _ in rows]
        assert counts.shape == pvals.shape
        assert counts.shape[0] == len(rows) == 1030
        assert counts.shape[1] == max(len(v) for _, v in merged)
        expected = {}
        for row, p, (key, _, m), (probs, values) in zip(counts, pvals, rows, merged):
            width = len(values)
            assert np.array_equal(p[:width], probs)
            assert not p[width:].any()
            assert row.sum() == m
            assert not row[width:].any()
            expected[key] = expected.get(key, 0.0) + row[:width] @ values / m
        assert any(len(v) < counts.shape[1] for _, v in merged)
        for (mu, nu), value in expected.items():
            assert h[mu, nu] == h[nu, mu] == pytest.approx(value, abs=1e-12)
        sampled = np.zeros(h.shape, dtype=bool)
        for mu, nu in expected:
            sampled[mu, nu] = sampled[nu, mu] = True
        assert np.array_equal(h[~sampled], h2o_sampler.exact[~sampled])

    def test_rows_hold_distinct_values(self, h2o_sampler):
        samplers = [s for samplers, _ in h2o_sampler.plan.values() for s in samplers]
        probs, values = draw_table(samplers)
        assert len(probs) == len(samplers)
        for p_row, v_row, s in zip(probs, values, samplers):
            width = len(np.unique(s.values))
            p, v = p_row[:width], v_row[:width]
            assert not p_row[width:].any() and not v_row[width:].any()
            assert sorted(v.tolist()) == sorted(set(s.values.tolist()))
            assert np.all(np.diff(p) <= 0.0)
            for value, prob in zip(v, p):
                summed = 0.0
                for outcome_p, outcome_v in zip(s.probs, s.values):
                    if outcome_v == value:
                        summed += outcome_p
                assert prob == summed
            mean = p @ v
            assert mean == pytest.approx(s.mean, abs=1e-12)
            var = s.probs @ (s.values - s.mean) ** 2
            assert p @ (v - mean) ** 2 == pytest.approx(var, abs=1e-12)

    def test_table_matches_per_row_reference(self, h2o_sampler):
        # grouped in one pass, the table has the bytes of the per-row rule
        samplers = [s for samplers, _ in h2o_sampler.plan.values() for s in samplers]
        assert len(samplers) == 1030
        # equal probabilities keep increasing value; a lone row; no rows
        ties = types.SimpleNamespace(
            probs=np.array([0.25, 0.25, 0.125, 0.125, 0.25]),
            values=np.array([3.0, -1.0, 2.0, -1.0, 2.0]),
        )
        for group in (samplers, [ties, *samplers[:3]], [ties], []):
            rows = [oracles.distinct_values(s.probs, s.values) for s in group]
            width = max((len(p) for p, _ in rows), default=1)
            want = np.zeros((2, len(rows), width))
            for r, (p, v) in enumerate(rows):
                want[:, r, : len(p)] = p, v
            probs, values = draw_table(group)
            assert probs.tobytes() == want[0].tobytes()
            assert values.tobytes() == want[1].tobytes()
        assert draw_table([ties])[1].tolist() == [[-1.0, 2.0, 3.0]]

    def test_row_summed_above_one_is_clamped(self):
        # one value whose outcome probabilities sum one ulp above 1, as in
        # the draw table of the H6 chain's VO basis: the row reads 1 and is
        # drawn; a row that clamping cannot mend is a SolverError
        half = 0.5 + 2.0**-53
        assert half + half == np.nextafter(1.0, 2.0)
        above = types.SimpleNamespace(probs=np.array([half, half]), values=np.array([2.0, 2.0]))
        probs, values = draw_table([above])
        assert probs.tolist() == [[1.0]] and values.tolist() == [[2.0]]
        broken = types.SimpleNamespace(
            probs=np.array([0.6, 0.6, 0.1]), values=np.array([1.0, 2.0, 3.0])
        )
        for sampler, fails in ((above, False), (broken, True)):
            plan = {(0, 0): ([sampler], [1.0])}
            matrix = MatrixSampler(
                exact=np.zeros((1, 1)),
                plan=plan,
                shots={(0, 0): [5]},
                coefficients=solver._error_coefficients(np.linalg.eigh(np.zeros((1, 1))), plan),
                exact_c0=np.ones(1),
            )
            if fails:
                with pytest.raises(SolverError, match="cannot be drawn"):
                    matrix.draw(0)
            else:
                assert matrix.draw(0).tolist() == [[2.0]]

    def test_one_eigensolve_per_sampler(self, h2o, h2o_hq, h2o_sampler, monkeypatch):
        # the table and the sampler's predicted error share one eigh of the
        # exact matrix and one coefficient pass over the plan, with the bits
        # of a sampler given fresh ones
        calls, passes = [], []
        eigh, coefficients = np.linalg.eigh, solver._error_coefficients

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        def counted_pass(spectrum, keys):
            passes.append(len(keys))
            return coefficients(spectrum, keys)

        basis = parse_basis((FIXTURES / "h2o_1.0000.vo.basis.txt").read_text())
        engine = SubspaceEngine(basis, h2o_hq, h2o.n_elec)
        monkeypatch.setattr(solver.np.linalg, "eigh", counted)
        monkeypatch.setattr(solver, "_error_coefficients", counted_pass)
        sampler = make_matrix_sampler(engine, 200_000)
        assert calls == [(engine.size, engine.size)]
        assert passes == [len(sampler.plan)]
        monkeypatch.undo()
        alone = MatrixSampler(
            exact=sampler.exact,
            plan=sampler.plan,
            shots=sampler.shots,
            coefficients=solver._error_coefficients(
                np.linalg.eigh(sampler.exact), sampler.plan
            ),
            exact_c0=sampler.exact_c0,
        )
        for name in ("first_order_mse", "second_order_bias", "elements_at_floor"):
            assert getattr(alone, name) == getattr(sampler, name) == getattr(h2o_sampler, name)

    def test_sampled_build_eigensolves_exact_matrix_once(self, h2o, h2o_hq, monkeypatch):
        # the shot table and the cost report's ground vector share the
        # sampler's eigh of the exact matrix; the other eigh is the draw's
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(np.array(a))
            return eigh(a)

        basis = parse_basis((FIXTURES / "h2o_1.0000.vo.basis.txt").read_text())
        monkeypatch.setattr(solver.np.linalg, "eigh", counted)
        problem = build_subspace(
            basis, h2o_hq, h2o.n_elec, mode="sampled", shots=200_000, seed=0
        )
        monkeypatch.undo()
        sampler = problem.sampler
        assert len(calls) == 2
        assert np.array_equal(calls[0], sampler.exact)
        assert np.array_equal(calls[1], problem.hmat)
        c0 = ground_state(sampler.exact)[1]
        assert np.array_equal(np.abs(sampler.exact_c0), np.abs(c0))

    def test_error_matches_prediction(self, h2o_sampler):
        # first-order MSE plus squared bias, and the bias itself, within 4 SE
        e0 = ground_state(h2o_sampler.exact)[0]
        errs = np.array(
            [ground_state(h2o_sampler.draw(seed))[0] - e0 for seed in range(2000)]
        )
        root_n = np.sqrt(len(errs))
        pred_mse = h2o_sampler.first_order_mse + h2o_sampler.second_order_bias**2
        sq = errs**2
        assert abs(sq.mean() - pred_mse) < 4 * sq.std(ddof=1) / root_n
        bias = h2o_sampler.second_order_bias
        assert abs(errs.mean() - bias) < 4 * errs.std(ddof=1) / root_n


    def test_bias_held_to_first_order_error(self, h2o, h2o_hq, h2o_sampler, monkeypatch):
        # the first-order optimum alone has |B| = 0.87 sqrt(F) on this basis;
        # the table holds |B| at BIAS_KAPPA sqrt(F) (to integer rounding) at
        # a larger F and a smaller F + B^2
        f, bias = h2o_sampler.first_order_mse, h2o_sampler.second_order_bias
        assert abs(bias) == pytest.approx(BIAS_KAPPA * np.sqrt(f), rel=1e-2)
        basis = parse_basis((FIXTURES / "h2o_1.0000.vo.basis.txt").read_text())
        engine = SubspaceEngine(basis, h2o_hq, h2o.n_elec)
        monkeypatch.setattr(solver, "BIAS_KAPPA", np.inf)
        free = make_matrix_sampler(engine, 200_000)
        assert total_shots(free) == total_shots(h2o_sampler)
        assert abs(free.second_order_bias) > 0.35 * np.sqrt(free.first_order_mse)
        assert free.first_order_mse < f
        assert free.first_order_mse + free.second_order_bias**2 > f + bias**2


def fresh_prefix(engine, members, k):
    """The members after their rotations[:k], rebuilt from their (real) CSFs."""
    amps = np.array([engine.csf_state(mu).amplitudes.real for mu in members])
    for r, s, th in engine.basis[members[0]].rotations[:k]:
        csfbasis.rotate_pair_inplace(amps, r, s, th)
    return amps


def slot_models(ints, hq, selected, group_size, k, monkeypatch):
    """Slot models of amplitude k of the group with group_size members.

    On the H2O selection that is one amplitude of the 9-state, 14-rotation
    group or of a single-state group.  Every group's amplitudes are set to
    one random point; two engines hold it, one applying the effective
    operators as Pauli sums (register-size limit 0) and one as dense
    matrices (the default limit).  Returns the generator and, per engine,
    (model, matrix family, rebuild), where rebuild(th) is the exact matrix
    with amplitude k at th.
    """
    rng = np.random.default_rng(20)
    limits = (0, solver._DENSE_XOP_ORBITALS)
    engines = [SubspaceEngine(selected, hq, ints.n_elec) for _ in limits]
    groups = {}
    for mu, b in enumerate(engines[0].basis):
        if b.rotations:
            key = rotation_group_key(b.csf, engines[0].n_orb)
            groups.setdefault(key, []).append(mu)
    for members in groups.values():
        n_rot = len(engines[0].basis[members[0]].rotations)
        thetas = rng.uniform(-np.pi, np.pi, n_rot)
        for engine in engines:
            for mu in members:
                engine.replace_basis_state(mu, engine.basis[mu].with_thetas(thetas))
    members = next(m for m in groups.values() if len(m) == group_size)
    thetas = [th for _, _, th in engines[0].basis[members[0]].rotations]

    def rebuilder(engine):
        def rebuild(th):
            thetas[k] = th
            for mu in members:
                engine.replace_basis_state(mu, engine.basis[mu].with_thetas(thetas))
            return engine.exact_matrix()

        return rebuild

    th0 = thetas[k]
    models = []
    for engine, limit in zip(engines, limits):
        # apply_xop runs only while the model and its rows are built
        monkeypatch.setattr(solver, "_DENSE_XOP_ORBITALS", limit)
        model = _SlotModel(engine, members, k, fresh_prefix(engine, members, k), {})
        rebuild = rebuilder(engine)
        models.append((model, model.matrix_fn(rebuild(th0)), rebuild))
        assert bool(engine._xmats) == (engine.n_orb <= limit)
    return rng, models


class TestVoOptimize:
    def test_escapes_symmetric_start(self, h2, h2_hq):
        basis = select_basis_vo(h2, h2_hq, default_selection_params(h2, eps1=0.5))
        assert all(th == 0.0 for b in basis for _, _, th in b.rotations)
        opt_basis, problem, history = vo_optimize(basis, h2_hq, 2)
        assert any(th != 0.0 for b in opt_basis for _, _, th in b.rotations)
        # the flat symmetric start is strictly improved upon
        assert problem.e_min < oracles.hf_energy(h2) - 1e-4

    def test_rotation_free_basis_passthrough(self, h2_hq, h2):
        basis = [BasisState(CsfSpec(CsfKind.HF), (), "hf")]
        opt_basis, problem, history = vo_optimize(basis, h2_hq, 2)
        assert opt_basis == tuple(basis)
        assert problem.e_min == pytest.approx(oracles.hf_energy(h2), abs=1e-10)

    @pytest.mark.parametrize("group_size, k", [(9, 3), (1, 1)])
    def test_closed_form_matches_rebuild(
        self, h2o, h2o_hq, h2o_vo_selected, group_size, k, monkeypatch
    ):
        # the slot model's rows and its stage-1 diagonal sum against exact
        # rebuilds (see slot_models)
        rng, models = slot_models(
            h2o, h2o_hq, h2o_vo_selected, group_size, k, monkeypatch
        )
        for th in rng.uniform(-np.pi, np.pi, 8):
            for model, h_of, rebuild in models:
                exact = rebuild(th)
                assert np.max(np.abs(h_of(th) - exact)) < 1e-12
                diagonal = sum(exact[mu, mu] for mu in model.members)
                assert abs(model.diagonal_sum(th) - diagonal) < 1e-12

    @pytest.mark.parametrize("group_size, k", [(9, 3), (1, 1)])
    def test_closed_form_derivatives_match_differences(
        self, h2o, h2o_hq, h2o_vo_selected, group_size, k, monkeypatch
    ):
        # H'(theta), H''(theta) and the diagonal sum's first and second
        # derivatives against central differences of exact rebuilds at step
        # h = 1e-4.  The derivatives reach ~35 Ha/rad and ~110 Ha/rad^2; the
        # first difference is off by h^2 H'''/6 (< 1e-6 Ha/rad here) and
        # the second by the rounding of the -75 Ha diagonal over h^2 (~1e-5
        # Ha/rad^2), hence tolerances of 1e-5 and 1e-4.
        step = 1e-4
        rng, models = slot_models(
            h2o, h2o_hq, h2o_vo_selected, group_size, k, monkeypatch
        )
        for th in rng.uniform(-np.pi, np.pi, 4):
            for model, h_of, rebuild in models:
                lower, mid, upper = (rebuild(th + d) for d in (-step, 0.0, step))
                first = (upper - lower) / (2.0 * step)
                second = (upper - 2.0 * mid + lower) / step**2
                _, d1, d2 = h_of.derivatives(th)
                assert np.max(np.abs(d1 - first)) < 1e-5
                assert np.max(np.abs(d2 - second)) < 1e-4
                _, s1, s2 = model.diagonal_sum.derivatives(th)
                assert abs(s1 - sum(first[mu, mu] for mu in model.members)) < 1e-5
                assert abs(s2 - sum(second[mu, mu] for mu in model.members)) < 1e-4

    def test_stacked_operator_application_matches_rows(
        self, h2o, h2o_hq, h2o_vo_selected, monkeypatch
    ):
        # with Pauli-sum operators (limit 0) apply_xop applies each config
        # pair's operator to the whole stack in one call; every row holds
        # the bits of that operator applied to the row alone, whose
        # imaginary part is zero
        _, [(model, _, _), _] = slot_models(
            h2o, h2o_hq, h2o_vo_selected, 9, 3, monkeypatch
        )
        engine = model.engine
        monkeypatch.setattr(solver, "_DENSE_XOP_ORBITALS", 0)
        linked = 0
        for bits in sorted({engine.config(nu) for nu in range(engine.size)}):
            op = engine.kernel.xop(model._bits, bits)
            got = engine.apply_xop(model._bits, bits, model._u)
            assert got.shape == model._u.shape
            if op:
                linked += 1
                rows = np.array(
                    [solver.apply_pauli_sum(v, op) for v in model._u]
                )
                assert not rows.imag.any()
                assert got.tobytes() == rows.real.copy().tobytes()
            else:
                assert not got.any()
        assert linked > 1
        assert not engine._xmats

    def test_kept_products_follow_the_moved_groups(
        self, h2o, h2o_hq, h2o_vo_selected, monkeypatch
    ):
        # the rows of group A (9 states) from its kept products, at random
        # angles and again after group B (one state, another config) moves
        # and its config's product is dropped: each time the exact matrix.
        # The second build applies only A's own operator and B's; without
        # the drop B's columns would be stale.
        rng = np.random.default_rng(21)
        engine = SubspaceEngine(h2o_vo_selected, h2o_hq, h2o.n_elec)
        groups = {}
        for mu, b in enumerate(engine.basis):
            if b.rotations:
                key = rotation_group_key(b.csf, engine.n_orb)
                groups.setdefault(key, []).append(mu)

        def move(members):
            n_rot = len(engine.basis[members[0]].rotations)
            thetas = rng.uniform(-np.pi, np.pi, n_rot)
            for mu in members:
                engine.replace_basis_state(mu, engine.basis[mu].with_thetas(thetas))

        for members in groups.values():
            move(members)
        a = next(m for m in groups.values() if len(m) == 9)
        b = next(
            m
            for m in groups.values()
            if len(m) == 1 and engine.config(m[0]) != engine.config(a[0])
        )
        applied = []
        apply_xop = SubspaceEngine.apply_xop

        def recorded(self, bra_bits, ket_bits, vecs):
            applied.append(ket_bits)
            return apply_xop(self, bra_bits, ket_bits, vecs)

        monkeypatch.setattr(SubspaceEngine, "apply_xop", recorded)
        products = {}
        others = {engine.config(nu) for nu in range(engine.size) if nu not in a}
        for step in range(2):
            if step:
                kept = dict(products)
                move(b)
                products.pop(engine.config(b[0]))
            exact = engine.exact_matrix()
            stale = exact.copy()
            stale[a, :] = stale[:, a] = np.nan
            del applied[:]
            model = _SlotModel(engine, a, 3, fresh_prefix(engine, a, 3), products)
            th0 = engine.basis[a[0]].rotations[3][2]
            assert np.max(np.abs(model.matrix_fn(stale)(th0) - exact)) < 1e-12
            if step:
                assert applied == [engine.config(a[0]), engine.config(b[0])]
                model = _SlotModel(engine, a, 3, fresh_prefix(engine, a, 3), kept)
                assert np.max(np.abs(model.matrix_fn(stale)(th0) - exact)) > 1e-6
            else:
                assert applied[0] == engine.config(a[0])
                assert sorted(applied[1:]) == sorted(others) == sorted(products)

    def test_vo_optimize_operator_applications(
        self, h2o, h2o_hq, h2o_vo_selected, monkeypatch
    ):
        # every apply_xop of one vo_optimize on the frozen H2O 1.0 A
        # selection: 780 when every line search applied the operators to
        # every other state, 260 with the products kept until a group moves
        calls = [0]
        apply_xop = SubspaceEngine.apply_xop

        def counted(self, *args):
            calls[0] += 1
            return apply_xop(self, *args)

        monkeypatch.setattr(SubspaceEngine, "apply_xop", counted)
        _, problem, history = vo_optimize(h2o_vo_selected, h2o_hq, h2o.n_elec)
        assert 0 < calls[0] <= 300
        assert history[-1] == pytest.approx(problem.e_min, abs=1e-10)

    @pytest.mark.parametrize("stem", ["h2o_1.0000", "h2o_2.1000", "h2o_3.0000"])
    @pytest.mark.parametrize("name", ["h2o_1.0000.vo.basis.txt", "h2o_1.0000.vo-selected.basis.txt"])
    def test_dense_operators_match_the_term_by_term_matrix(self, stem, name):
        # each linked config pair's dense operator, one pass over all
        # 2^n_orb indices, has the bits of the real part of the
        # whole-register matrix summed term by term
        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        basis = parse_basis((FIXTURES / name).read_text())
        engine = SubspaceEngine(basis, jordan_wigner(ints), ints.n_elec)
        configs = sorted({engine.config(mu) for mu in range(engine.size)})
        row = np.zeros((1, 2**engine.n_orb))
        linked = 0
        for bra in configs:
            for ket in configs:
                op = engine.kernel.xop(bra, ket)
                if op:
                    linked += 1
                    engine.apply_xop(bra, ket, row)
                    want = np.ascontiguousarray(oracles.dense_matrix(op).real)
                    assert engine._xmats[bra, ket].tobytes() == want.tobytes()
        assert linked == {"h2o_1.0000": 36, "h2o_2.1000": 10, "h2o_3.0000": 36}[stem]

    @pytest.mark.parametrize("limit", [0, solver._DENSE_XOP_ORBITALS])
    def test_non_real_operator_rejected(
        self, h2o, h2o_hq, h2o_vo_selected, limit, monkeypatch
    ):
        # 1e-9 i on the coefficient of a diagonal term, which links every
        # index, is refused by the dense pass (limit 8) and in the
        # Pauli-sum product (limit 0), not dropped
        engine = SubspaceEngine(h2o_vo_selected, h2o_hq, h2o.n_elec)
        bits = engine.config(0)
        vecs = np.array([engine.state(0).amplitudes.real])
        op = engine.kernel.xop(bits, bits)
        coeffs = op.coeffs.copy()
        coeffs[np.flatnonzero(op.keys[:, 0] == 0)[0]] += 1e-9j
        imaginary = PauliArrays(op.n_qubits, op.keys, coeffs)
        monkeypatch.setattr(engine.kernel, "xop", lambda *args: imaginary)
        monkeypatch.setattr(solver, "_DENSE_XOP_ORBITALS", limit)
        with pytest.raises(SolverError, match="effective operator is not real"):
            engine.apply_xop(bits, bits, vecs)
        assert not engine._xmats

    def test_line_search_is_closed_form(self, h2o, h2o_hq, h2o_vo_selected, monkeypatch):
        # one rotation group only, so every line search moves all its rows:
        # no element block and no rotation inside any line search, no block
        # between two searches but the stage-2 starting build, and in all
        # that one full build, one block of the group's one config (the
        # returned problem is the matrix the sweeps keep)
        basis = [b for b in h2o_vo_selected if len(b.rotations) == 14]
        assert len({config_bits(b.csf, h2o.n_orb) for b in basis}) == 1
        n_entries = len(basis) * len(basis)
        blocks, entries, rotations, at_search = [0], [0], [0], []
        matrix = csfbasis.CsfElementEngine.matrix
        kernel = csfbasis.rotate_pair_inplace
        line_search = solver._periodic_line_search

        def counted_block(self, bras, kets=None):
            blocks[0] += 1
            entries[0] += len(bras) * len(bras if kets is None else kets)
            return matrix(self, bras, kets)

        def counted_kernel(*args):
            rotations[0] += 1
            return kernel(*args)

        def counted_search(*args, **kwargs):
            before = entries[0], rotations[0]
            out = line_search(*args, **kwargs)
            assert (entries[0], rotations[0]) == before
            at_search.append(before[0])
            return out

        monkeypatch.setattr(csfbasis.CsfElementEngine, "matrix", counted_block)
        monkeypatch.setattr(csfbasis, "rotate_pair_inplace", counted_kernel)
        monkeypatch.setattr(solver, "rotate_pair_inplace", counted_kernel)
        monkeypatch.setattr(solver, "_periodic_line_search", counted_search)
        _, _, history = vo_optimize(basis, h2o_hq, h2o.n_elec)
        assert all(b <= a for a, b in zip(history, history[1:]))
        assert rotations[0] > 0
        gaps = np.diff(at_search)
        assert len(gaps) > 14
        assert sorted(gaps[gaps != 0]) == [n_entries]
        assert blocks[0] == 1 and entries[0] == n_entries

    def test_cached_prefixes_match_fresh_chains(
        self, h2o, h2o_hq, h2o_vo_selected, monkeypatch
    ):
        # every step's members after rotations[:k], advanced one rotation
        # per slot, are the bits of a chain rebuilt from the CSFs; and every
        # line search starts at the energy the last step left, so the rows
        # an accepted step keeps match the states it moved to
        steps, start_gaps = [], []
        line_search = solver._periodic_line_search

        class Checked(_SlotModel):
            def __init__(self, engine, members, k, prefix, products):
                assert np.array_equal(prefix, fresh_prefix(engine, members, k))
                steps.append(k)
                super().__init__(engine, members, k, prefix, products)

        def checked_search(f, th0, e0, **kwargs):
            start_gaps.append(abs(f(th0) - e0))
            return line_search(f, th0, e0, **kwargs)

        monkeypatch.setattr(solver, "_SlotModel", Checked)
        monkeypatch.setattr(solver, "_periodic_line_search", checked_search)
        _, problem, history = vo_optimize(h2o_vo_selected, h2o_hq, h2o.n_elec)
        assert max(steps) == 13 and len(steps) > 100
        assert len(start_gaps) == len(steps) and max(start_gaps) < 1e-10
        # the rows the model kept have not drifted from the exact rebuild
        assert history[-1] == pytest.approx(problem.e_min, abs=1e-10)

    def test_line_search_costs_five_row_refreshes(
        self, h2o, h2o_hq, h2o_vo_selected, monkeypatch
    ):
        # one rotation group only, so every line search moves all its rows;
        # the cost between two searches is counted in block entries
        basis = [b for b in h2o_vo_selected if len(b.rotations) == 14]
        entries, at_search = [0], []
        matrix = csfbasis.CsfElementEngine.matrix
        line_search = solver._periodic_line_search

        def counted_block(self, bras, kets=None):
            entries[0] += len(bras) * len(bras if kets is None else kets)
            return matrix(self, bras, kets)

        def counted_search(*args, **kwargs):
            before = entries[0]
            out = line_search(*args, **kwargs)
            assert entries[0] == before  # the objective is closed form
            at_search.append(before)
            return out

        monkeypatch.setattr(csfbasis.CsfElementEngine, "matrix", counted_block)
        monkeypatch.setattr(solver, "_periodic_line_search", counted_search)
        _, _, history = vo_optimize(basis, h2o_hq, h2o.n_elec)
        assert all(b <= a for a, b in zip(history, history[1:]))
        gaps = np.diff(at_search)
        assert len(gaps) > 14
        assert gaps.max() <= 5 * len(basis) * len(basis)

    @pytest.mark.parametrize(
        "stem, eps1",
        [
            ("h2_0.7414", None),
            ("h2_1.5000", None),
            ("h2_0.7414", 0.5),
            ("h2_1.5000", 0.5),
            ("h2o_1.0000", None),
        ],
    )
    def test_energy_matches_golden_section_search(
        self, h2o_vo_selected, stem, eps1, monkeypatch
    ):
        # vo_optimize with the golden-section reference search against the
        # Newton search: H2 at the default selection (rotation-free) and at
        # eps1 = 0.5 (one rotation), H2O at the frozen 1.0 A selection
        ints = load_fcidump(FIXTURES / f"{stem}.fcidump")
        hq = jordan_wigner(ints)
        if stem.startswith("h2o"):
            basis = h2o_vo_selected
        else:
            kwargs = {} if eps1 is None else {"eps1": eps1}
            basis = select_basis_vo(ints, hq, default_selection_params(ints, **kwargs))
        runs = []
        searches = (oracles.golden_section_line_search, solver._periodic_line_search)
        for search in searches:
            monkeypatch.setattr(solver, "_periodic_line_search", search)
            _, problem, history = vo_optimize(basis, hq, ints.n_elec)
            assert all(b <= a for a, b in zip(history, history[1:]))
            assert problem.e_min == pytest.approx(history[-1], abs=1e-10)
            runs.append(problem.e_min)
        reference, newton = runs
        assert newton <= reference + 1e-9
        if not stem.startswith("h2o"):
            if eps1 is None:
                assert newton == reference
            else:
                assert newton == pytest.approx(reference, abs=1e-12)

    def test_branch_sweep_cap_logged(self, monkeypatch, caplog):
        # stretched H2O starts with near-degenerate branches, so the
        # branch-sum stage runs
        ints = load_fcidump(FIXTURES / "h2o_3.0000.fcidump")
        hq = jordan_wigner(ints)
        params = default_selection_params(ints, eps1=1e-5, eps2=1e-6, n_active_occ=5)
        basis = select_basis_vo(ints, hq, params)
        monkeypatch.setattr(solver, "_BRANCH_SWEEPS", 1)
        monkeypatch.setattr(solver, "_MAX_SWEEPS", 1)
        with caplog.at_level("WARNING", logger="senqse.solver"):
            opt_basis, problem, history = vo_optimize(basis, hq, ints.n_elec)
        assert "branch-sum descent hit its 1-sweep cap" in caplog.text
        assert "amplitude optimization hit the sweep cap" in caplog.text
        assert all(b <= a for a, b in zip(history, history[1:]))
        # the capped stage keeps its angles: nothing runs after its one sweep
        assert len(history) == 2
        rebuilt = build_subspace(opt_basis, hq, ints.n_elec)
        assert problem.e_min == pytest.approx(rebuilt.e_min, abs=1e-10)
        assert history[-1] == pytest.approx(problem.e_min, abs=1e-10)


def random_family(seed, k, n=6):
    """The k lowest levels of a random symmetric A + B cos 2t + ... + E sin 4t.

    All five coefficient matrices have entries of one scale, so the levels
    cross often and a period holds several local minima.
    """
    coeffs = np.random.default_rng(seed).normal(size=(5, n, n))
    return solver._BranchSum(solver._TrigFamily(coeffs + coeffs.transpose(0, 2, 1)), k)


class Recorded:
    """An objective that records the angles its derivatives are taken at."""

    def __init__(self, f):
        self.f, self.angles = f, []

    def __call__(self, th):
        return self.f(th)

    def derivatives(self, th):
        self.angles.append(th)
        return self.f.derivatives(th)


class TestPeriodicLineSearch:
    @pytest.mark.parametrize("k", [1, 3])
    def test_random_families_match_or_beat_golden_section(self, k):
        # Both searches are local.  Over seeds 0-2999 at k = 1 and 3 the
        # Newton search lands in a worse local minimum than the reference in
        # 3 of the 6000 searches (by up to 0.042; seed 860 at k = 1, 127 and
        # 1100 at k = 3) and in a better one in 40.
        for seed in range(25):
            f = random_family(seed, k)
            th0 = np.random.default_rng(1000 + seed).uniform(-np.pi, np.pi)
            e0 = f(th0)
            th, e = solver._periodic_line_search(f, th0, e0)
            assert e == pytest.approx(f(th), abs=1e-12)
            assert e <= e0
            assert e <= oracles.golden_section_line_search(f, th0, e0)[1] + 1e-12

    @pytest.mark.parametrize("k", [1, 3])
    def test_steps_stay_in_bracket(self, k):
        # every Newton or bisection step stays in the +-pi/32 bracket of the
        # point the steps start from; the listed seeds are searches in which
        # an unguarded Newton step would leave it
        for seed in list(range(200)) + {1: [737], 3: [894, 1097, 1100, 1400]}[k]:
            f = Recorded(random_family(seed, k))
            th0 = np.random.default_rng(1000 + seed).uniform(-np.pi, np.pi)
            e0 = f(th0)
            _, e = solver._periodic_line_search(f, th0, e0)
            assert all(abs(t - f.angles[0]) <= np.pi / 32 for t in f.angles)
            assert e <= e0

    @pytest.mark.parametrize("k", [1, 3])
    def test_branch_sum_derivatives_match_differences(self, k):
        # slope (Hellmann-Feynman) and curvature (second-order perturbation
        # over the untracked levels) against central differences at steps
        # 1e-5 and 1e-4
        for seed in range(5):
            f = random_family(seed, k)
            th = np.random.default_rng(seed).uniform(-np.pi, np.pi)
            e, slope, curv = f.derivatives(th)
            assert e == pytest.approx(f(th), abs=1e-12)
            first = (f(th + 1e-5) - f(th - 1e-5)) / 2e-5
            second = (f(th + 1e-4) - 2.0 * e + f(th - 1e-4)) / 1e-8
            assert slope == pytest.approx(first, rel=1e-6)
            assert curv == pytest.approx(second, rel=1e-5)

    @pytest.mark.parametrize("gap", [0.0, 1e-12])
    def test_crossing_levels(self, gap):
        # b = 1 - cos 2t holds the minimum, 0 at t = 0; a = 0.11 - 0.1 cos 2t
        # - 0.005 sin 2t lies below it outside t ~ +-0.075, inside the
        # +-pi/32 Newton bracket, where the two cross (gap 0) or sit gap
        # apart (an avoided crossing); two more levels far above; all in a
        # fixed random basis
        coeffs = np.zeros((5, 4, 4))
        coeffs[:3, 0, 0] = 0.11, -0.1, -0.005
        coeffs[:2, 1, 1] = 1.0, -1.0
        coeffs[0, 0, 1] = coeffs[0, 1, 0] = 0.5 * gap
        coeffs[0, 2, 2], coeffs[0, 3, 3] = 3.0, 4.0
        q = np.linalg.qr(np.random.default_rng(7).normal(size=(4, 4)))[0]
        f = solver._BranchSum(solver._TrigFamily(q.T @ coeffs @ q), 1)
        # a - b = 0.9 cos 2t - 0.005 sin 2t - 0.89
        phase = math.atan2(0.005, 0.9)
        half = math.acos(0.89 / math.hypot(0.9, 0.005))
        crossings = [(half - phase) / 2.0, (-half - phase) / 2.0]
        for tc in crossings:
            levels = np.linalg.eigvalsh(f.family(tc))
            assert levels[1] - levels[0] < gap + 1e-13
        if gap:
            # the mixed pair across the cut: no Newton step is taken here
            assert not f.derivatives(crossings[0])[2] > 0.0
        bracketed = 0
        starts = np.linspace(-np.pi / 2, np.pi / 2, 16, endpoint=False)
        for th0 in crossings + list(starts):
            g = Recorded(f)
            e0 = f(th0)
            th, e = solver._periodic_line_search(g, th0, e0)
            start = g.angles[0]
            assert all(abs(t - start) <= np.pi / 32 for t in g.angles)
            assert e <= e0
            assert e <= oracles.golden_section_line_search(f, th0, e0)[1] + 1e-12
            assert e < 1e-12 and abs(math.remainder(th, np.pi)) < 1e-6
            bracketed += any(
                abs(math.remainder(tc - start, np.pi)) < np.pi / 32 for tc in crossings
            )
        assert bracketed > 0

    def test_flat_objective_stops_at_once(self):
        # the angle moves only levels far above the tracked one, so the
        # objective is flat: the search takes one Newton look and stops
        # instead of bisecting its bracket down to the step tolerance
        coeffs = np.random.default_rng(5).normal(size=(5, 6, 6))
        coeffs = coeffs + coeffs.transpose(0, 2, 1)
        coeffs[:, :2, :] = coeffs[:, :, :2] = 0.0
        coeffs[0] += np.diag([-75.0, -74.0, 50.0, 50.0, 50.0, 50.0])
        f = Recorded(solver._BranchSum(solver._TrigFamily(coeffs), 1))
        th, e = solver._periodic_line_search(f, 0.4, f(0.4))
        assert len(f.angles) == 1
        assert e == pytest.approx(-75.0, abs=1e-12)

    def test_kink_bisects_down_to_the_step_tolerance(self):
        # |theta - a|, as at a level crossing: slope +-1 and curvature 0, so
        # no Newton step is taken and no bracket is flat; bisection runs
        # until its step falls below _XTOL
        a = 0.3 + 0.123456789

        class Kink:
            def __call__(self, th):
                return np.abs(th - a)

            def derivatives(self, th):
                return abs(th - a), float(np.sign(th - a)), 0.0

        f = Recorded(Kink())
        th, e = solver._periodic_line_search(f, 0.3, abs(0.3 - a))
        assert len(f.angles) < solver._MAX_STEPS
        steps = np.abs(np.diff(f.angles))
        assert steps[-1] < 4 * solver._XTOL and np.all(steps >= solver._XTOL)
        assert abs(th - a) < 1e-10 and e == abs(th - a)

    def test_rounding_tie_keeps_the_angle(self):
        # cos 4t has the same minimum a quarter period on, and e0 carries a
        # rounding error of one or two units in the last place, as a value
        # from another eigensolver would: no reason to move there
        coeffs = np.zeros(5)
        coeffs[0], coeffs[3] = -75.0, 1.0
        f = solver._TrigFamily(coeffs)
        th0 = np.pi / 4.0
        e0 = f(th0) + 2e-14
        assert e0 > f(th0 - np.pi / 2.0)
        th, e = solver._periodic_line_search(f, th0, e0)
        assert abs(th - th0) < 1e-6
        assert e <= e0

    @pytest.mark.parametrize("k", [1, 3])
    def test_start_at_minimum_returns_e0(self, k):
        for seed in range(5):
            f = random_family(seed, k)
            th_min, e_min = solver._periodic_line_search(f, 0.0, f(0.0))
            th, e = solver._periodic_line_search(f, th_min, e_min)
            assert e <= e_min
            assert e == pytest.approx(e_min, abs=1e-12)
            assert abs(th - th_min) < 1e-6

    @pytest.mark.parametrize("shape", [(5,), (5, 6, 6)])
    def test_trig_family_matches_tensordot(self, shape):
        # a scalar and a matrix family, at one angle and at stacked ones:
        # values and derivatives hold the bytes of np.tensordot's
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=shape)
        f = solver._TrigFamily(coeffs)
        for th in (0.3, rng.uniform(-np.pi, np.pi, 8)):
            value = oracles.tensordot_trig_family(solver._fourier_basis(th)[0], coeffs)
            got = f(th)
            assert np.shape(got) == np.shape(th) + shape[1:]
            assert type(got) is type(value[()])
            assert np.asarray(got).tobytes() == value.tobytes()
            stack = oracles.tensordot_trig_family(solver._fourier_basis(th, 2), coeffs)
            got = f.derivatives(th)
            assert got.shape == stack.shape and got.tobytes() == stack.tobytes()

    def test_start_at_minimum_of_diagonal_sum(self):
        # the stage-1 objective, a scalar family: its minimum is e0 again
        rng = np.random.default_rng(3)
        f = solver._TrigFamily(rng.normal(size=5))
        th_min, e_min = solver._periodic_line_search(f, 0.3, f(0.3))
        _, slope, curv = f.derivatives(th_min)
        assert abs(slope) < 1e-9 and curv > 0.0
        th, e = solver._periodic_line_search(f, th_min, e_min)
        assert e <= e_min
        assert e == pytest.approx(e_min, abs=1e-12)

    def test_vo_optimize_eigensolver_calls(
        self, h2o, h2o_hq, h2o_vo_selected, monkeypatch
    ):
        # every eigh/eigvalsh of one vo_optimize on the frozen H2O 1.0 A
        # selection: 6843 with the golden-section search, about 570 now
        calls = [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        _, problem, history = vo_optimize(h2o_vo_selected, h2o_hq, h2o.n_elec)
        assert 0 < calls[0] <= 1000
        assert all(b <= a for a, b in zip(history, history[1:]))


class TestRelaxOrbitals:
    def test_h2_already_exact(self, h2, h2_hq):
        basis = select_basis_vo(h2, h2_hq, default_selection_params(h2))
        basis, problem, _ = vo_optimize(basis, h2_hq, 2)
        rot, e_relaxed, _ = relax_orbitals(basis, h2)
        assert e_relaxed == pytest.approx(problem.e_min, abs=1e-7)
        assert e_relaxed <= problem.e_min + 1e-10

    def test_relaxation_never_raises_energy(self, h2, h2_hq):
        basis = [BasisState(CsfSpec(CsfKind.HF), (), "hf")]
        e_fixed = build_subspace(basis, h2_hq, 2).e_min
        rot, e_relaxed, history = relax_orbitals(basis, h2)
        assert e_relaxed <= e_fixed + 1e-12

    def test_early_stop_is_logged(self, h2, monkeypatch, caplog):
        # one Powell iteration stops short of its tolerance on H2's one amplitude
        basis = [BasisState(CsfSpec(CsfKind.HF), (), "hf")]
        monkeypatch.setattr(solver, "_RELAX_ITERATIONS", 1)
        with caplog.at_level("WARNING", logger="senqse.solver"):
            _, e_relaxed, history = relax_orbitals(basis, h2)
        assert "orbital relaxation stopped early" in caplog.text
        assert e_relaxed == history[-1]


class TestBasisTextRefusals:
    """Each refusal that a ``.basis.txt`` record reaches through the engines
    that take a parsed basis, on H2 (two orbitals, orbital 0 occupied)."""

    @pytest.mark.parametrize(
        "text, error, match",
        [
            ("", SolverError, "basis must be nonempty"),
            ("\n  \n", SolverError, "basis must be nonempty"),
            (
                "state a kind=HF idx=[] moves=[0->2] rot=\n",
                BasisError,
                "orbital 2 out of range for 2 orbitals",
            ),
            (
                "state a kind=HF idx=[] moves=[1->0] rot=\n",
                BasisError,
                "pair move 1->0 annihilates the state",
            ),
            (
                "state a kind=HF idx=[] moves=[] rot=(1,0,0.3)\n"
                "state b kind=HF idx=[] moves=[0->1] rot=(1,0,0.5)\n",
                SolverError,
                "basis states 'a' and 'b' overlap",
            ),
        ],
    )
    def test_build_subspace(self, h2, h2_hq, text, error, match):
        basis = parse_basis(text)
        with pytest.raises(error, match=match):
            build_subspace(basis, h2_hq, h2.n_elec)

    def test_vo_optimize_needs_one_rotation_list_per_config(self, h2, h2_hq):
        # orthogonal at theta = 0, so the engine takes them; the optimiser
        # cannot keep them orthogonal with different rotations
        basis = parse_basis(
            "state a kind=HF idx=[] moves=[] rot=(1,0,0.0)\n"
            "state b kind=HF idx=[] moves=[0->1] rot=\n"
        )
        assert build_subspace(basis, h2_hq, h2.n_elec).e_min < 0.0
        with pytest.raises(SolverError, match="must share one rotation list"):
            vo_optimize(basis, h2_hq, h2.n_elec)
