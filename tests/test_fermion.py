import json
import logging
from pathlib import Path

import numpy as np
import pytest

import oracles
from algebra import PauliProduct, PauliSum
from oracles import as_sum
from senqse import fermion
from senqse.fermion import (
    FcidumpError,
    FermionIntegrals,
    OrbitalRotation,
    jordan_wigner,
    load_fcidump,
    mp2_pair_amplitude,
    occ_virt_rotation,
    orbital_energies,
    parse_fcidump,
    rotate_orbitals,
    write_fcidump,
)
from senqse.pauli import DROP_TOL, PauliError

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_STEMS = (
    "h2_0.7414",
    "h2_1.0000",
    "h2_1.5000",
    "h2o_1.0000",
    "h2o_2.1000",
    "h2o_3.0000",
)
REFERENCE = json.loads((FIXTURES / "reference.json").read_text())

MINIMAL_H2 = """\
&FCI NORB=2,NELEC=2,MS2=0,
&END
 0.6746 1 1 1 1
 0.6636 2 2 2 2
 0.6975 2 2 1 1
 0.1813 2 1 2 1
-1.2525 1 1 0 0
-0.4759 2 2 0 0
 0.7137 0 0 0 0
"""


@pytest.fixture(scope="module")
def h2():
    return load_fcidump(FIXTURES / "h2_0.7414.fcidump")


@pytest.fixture(scope="module")
def h2o():
    return load_fcidump(FIXTURES / "h2o_1.0000.fcidump")


def diagonal_expectation(hq, occ_bits):
    """<det|H|det> for a computational determinant, no simulator involved."""
    val = 0.0
    for (x, z), c in hq.items():
        if x == 0:
            val += (c * (-1) ** ((z & occ_bits).bit_count())).real
    return val


def coincident_records(a, b, c, d):
    """(pq|rs) index sets on a, b, c, d with p = q, r = s, p = r, q = s, p = s,
    the pairings of these, and all four equal."""
    return [
        (a, b, c, d),
        (a, a, c, d),
        (a, b, c, c),
        (a, b, a, d),
        (a, b, c, b),
        (a, b, c, a),
        (a, a, c, c),
        (a, b, a, b),
        (a, b, b, a),
        (a, a, a, a),
    ]


def sparse_integrals(n_orb, records, rng):
    """Random values on the 8-fold images of `records` (p, q, r, s), and on
    the symmetric images of the (p, q) and (r, s) of each record in h."""
    h = np.zeros((n_orb, n_orb))
    g = np.zeros((n_orb,) * 4)
    for p, q, r, s in records:
        v = rng.normal()
        for a, b in ((p, q), (q, p)):
            for c, d in ((r, s), (s, r)):
                g[a, b, c, d] = g[c, d, a, b] = v
        for a, b in ((p, q), (r, s)):
            h[a, b] = h[b, a] = rng.normal()
    return FermionIntegrals(n_orb=n_orb, n_elec=2, e_core=rng.normal(), h=h, g=g)


def assert_matches_oracle(ints):
    got = jordan_wigner(ints)
    ref = oracles.product_by_product_jordan_wigner(ints, DROP_TOL)
    assert list(got.items()) == list(ref.items())


class TestParse:
    def test_minimal_file(self):
        ints = parse_fcidump(MINIMAL_H2)
        assert ints.n_orb == 2 and ints.n_elec == 2
        assert ints.h[0, 0] == pytest.approx(-1.2525)
        assert ints.g[1, 1, 0, 0] == pytest.approx(0.6975)
        assert ints.g[0, 0, 1, 1] == pytest.approx(0.6975)
        assert ints.g[0, 1, 0, 1] == pytest.approx(0.1813)

    def test_blank_record_lines_skipped(self):
        header, _, records = MINIMAL_H2.partition("&END")
        ints = parse_fcidump(header + "&END\n\n" + records.replace("\n", "\n   \n\t\n"))
        ref = parse_fcidump(MINIMAL_H2)
        assert np.array_equal(ints.h, ref.h) and np.array_equal(ints.g, ref.g)
        assert ints.e_core == ref.e_core

    def test_core_energy_record(self):
        ints = parse_fcidump(MINIMAL_H2)
        assert ints.e_core == pytest.approx(0.7137)

    def test_orbital_energy_records_skipped(self):
        # 'value i 0 0 0' records carry orbital energies, which are unused
        ints = parse_fcidump(MINIMAL_H2 + " -0.5785 1 0 0 0\n  0.6711 2 0 0 0\n")
        ref = parse_fcidump(MINIMAL_H2)
        assert np.array_equal(ints.h, ref.h) and np.array_equal(ints.g, ref.g)
        assert ints.e_core == ref.e_core

    def test_hf_energy_from_fixture(self, h2):
        e_hf = oracles.hf_energy(h2)
        assert e_hf == pytest.approx(REFERENCE["h2_0.7414"]["e_hf"], abs=1e-8)
        assert e_hf == pytest.approx(-1.1167, abs=2e-4)

    def test_odd_nelec_rejected(self):
        with pytest.raises(FcidumpError):
            parse_fcidump("&FCI NORB=2,NELEC=3,MS2=1,\n&END\n0.0 0 0 0 0\n")

    @pytest.mark.parametrize("nelec", [6, -2])
    def test_electron_count_outside_register(self, nelec):
        text = (FIXTURES / "h2_1.5000.fcidump").read_text()
        bad = text.replace("NELEC=2,", f"NELEC={nelec},")
        assert bad != text
        with pytest.raises(FcidumpError, match=f"NELEC={nelec} .*NORB=2"):
            parse_fcidump(bad)

    def test_index_out_of_range(self):
        bad = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n1.0 3 1 0 0\n"
        with pytest.raises(FcidumpError, match="line 3"):
            parse_fcidump(bad)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_line(self, value):
        # a nan on the (11|11) record used to be dropped from the Hamiltonian
        text = (FIXTURES / "h2_0.7414.fcidump").read_text()
        bad = text.replace("6.7448877653607964e-01", value)
        assert bad != text
        with pytest.raises(FcidumpError, match="line 5: non-finite"):
            parse_fcidump(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["e_core", "h", "g"])
    def test_constructor_rejects_non_finite(self, h2, name, value):
        fields = dict(e_core=h2.e_core, h=h2.h.copy(), g=h2.g.copy())
        if name == "e_core":
            fields["e_core"] = value
        else:
            fields[name].flat[0] = value  # a diagonal entry keeps the symmetry
        with pytest.raises(FcidumpError, match=f"non-finite {name}"):
            FermionIntegrals(n_orb=2, n_elec=2, **fields)

    def test_missing_header(self):
        with pytest.raises(FcidumpError):
            parse_fcidump("1.0 1 1 0 0\n")

    @pytest.mark.parametrize(
        "header, record, match",
        [
            ("NORB=2,NELEC=2,MS2=0,", "", "missing &FCI"),
            ("&FCI NORB=2,NELEC=2,", "", "missing MS2 in FCIDUMP header"),
            ("&FCI NORB=0,NELEC=0,MS2=0,", "", "bad NORB 0"),
            ("&FCI NORB=2,NELEC=2,MS2=0,", "1.0 1 1 0", "line 3: expected 'value i j k l'"),
            ("&FCI NORB=2,NELEC=2,MS2=0,", "1.0q 1 1 0 0", "line 3: could not convert"),
            ("&FCI NORB=2,NELEC=2,MS2=0,", "1.0 1 one 0 0", "line 3: invalid literal"),
            ("&FCI NORB=2,NELEC=2,MS2=0,", "1.0 0 1 0 0", "line 3: bad one-electron"),
            ("&FCI NORB=2,NELEC=2,MS2=0,", "1.0 1 0 1 1", "line 3: bad two-electron"),
        ],
    )
    def test_malformed_input_names_the_fault(self, header, record, match):
        with pytest.raises(FcidumpError, match=match):
            parse_fcidump(f"{header}\n&END\n{record}\n")

    @pytest.mark.parametrize(
        "change, match",
        [
            (dict(n_elec=3), "odd electron count 3"),
            (dict(h=np.zeros((2, 3))), "one-electron integral shape"),
            (dict(g=np.zeros((2, 2, 2, 3))), "two-electron integral shape"),
            (dict(h=np.array([[1.0, 0.5], [0.4, 1.0]])), "not symmetric"),
            (dict(g=np.arange(16.0).reshape((2,) * 4)), "8-fold symmetry"),
        ],
    )
    def test_constructor_rejects_inconsistent_integrals(self, h2, change, match):
        fields = dict(n_orb=2, n_elec=2, e_core=h2.e_core, h=h2.h, g=h2.g)
        with pytest.raises(FcidumpError, match=match):
            FermionIntegrals(**{**fields, **change})

    def test_write_roundtrip(self, tmp_path, h2):
        path = tmp_path / "h2.fcidump"
        write_fcidump(h2, path)
        back = load_fcidump(path)
        assert np.allclose(back.h, h2.h, atol=1e-14)
        assert np.allclose(back.g, h2.g, atol=1e-14)
        assert back.e_core == pytest.approx(h2.e_core, abs=1e-14)


class TestJordanWigner:
    def test_number_operator_single_mode(self):
        op = oracles.jw_operator([(0, True), (0, False)], 1)
        expect = PauliSum(1, {(0, 0): 0.5, (0, 1): -0.5})
        diff = op - expect
        assert all(abs(c) < 1e-15 for _, c in diff.items())

    def test_h2_term_count(self, h2):
        hq = jordan_wigner(h2)
        assert hq.n_qubits == 4
        assert hq.n_terms == 15

    def test_h2_against_dense_oracle(self, h2):
        hq = jordan_wigner(h2)
        got = oracles.sum_matrix(hq)
        ref = oracles.dense_hamiltonian(h2)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_symmetries_exact(self, h2):
        hq = as_sum(jordan_wigner(h2))
        assert hq.commutes_with(oracles.number_operator(h2.n_orb))
        assert hq.commutes_with(oracles.sz_operator(h2.n_orb))

    def test_hermitian(self, h2o):
        hq = as_sum(jordan_wigner(h2o))
        assert hq.max_imag() < 1e-12

    def test_h2o_symmetries(self, h2o):
        hq = as_sum(jordan_wigner(h2o))
        assert hq.commutes_with(oracles.number_operator(h2o.n_orb))
        assert hq.commutes_with(oracles.sz_operator(h2o.n_orb))

    def test_hf_diagonal_matches_hf_energy(self, h2o):
        hq = jordan_wigner(h2o)
        occ_bits = sum(1 << q for q in range(h2o.n_elec))
        assert diagonal_expectation(hq, occ_bits) == pytest.approx(
            oracles.hf_energy(h2o), abs=1e-9
        )

    @pytest.mark.parametrize("stem", FIXTURE_STEMS)
    def test_matches_product_by_product_oracle(self, stem):
        assert_matches_oracle(load_fcidump(FIXTURES / f"{stem}.fcidump"))

    @pytest.mark.parametrize("n_orb", [1, 2, 12])
    def test_sparse_integrals_match_oracle(self, n_orb):
        # coincident indices put several strings of one product on one key;
        # 12 orbitals is the 24-qubit register of the FCI oracle
        rng = np.random.default_rng(n_orb)
        records = []
        for base in rng.integers(0, n_orb, size=(4, 4)):
            records += coincident_records(*base.tolist())
        records += [tuple(r) for r in rng.integers(0, n_orb, size=(20, 4)).tolist()]
        assert_matches_oracle(sparse_integrals(n_orb, records, rng))

    def test_block_size_does_not_change_output(self, monkeypatch):
        fixtures = [load_fcidump(FIXTURES / f"{stem}.fcidump") for stem in FIXTURE_STEMS]
        blocked = [list(jordan_wigner(ints).items()) for ints in fixtures]
        monkeypatch.setattr(fermion, "BLOCK_ROWS", 1)
        assert [list(jordan_wigner(ints).items()) for ints in fixtures] == blocked

    @pytest.mark.parametrize(
        "h_scale, g_scale",
        [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)],
        ids=["one-body", "e_core", "two-body"],
    )
    def test_missing_integral_kinds_match_oracle(self, h2o, h_scale, g_scale):
        # no two-body rows leaves one block of one-body strings; no one-body
        # terms leaves the identity's e_core alone before the two-body blocks;
        # neither leaves the identity alone, which jordan_wigner refuses
        ints = FermionIntegrals(
            n_orb=h2o.n_orb,
            n_elec=h2o.n_elec,
            e_core=h2o.e_core,
            h=h_scale * h2o.h,
            g=g_scale * h2o.g,
        )
        if h_scale or g_scale:
            assert_matches_oracle(ints)
        else:
            with pytest.raises(FcidumpError, match="no term but the identity"):
                jordan_wigner(ints)

    def test_traced_peak_below_every_string_held(self):
        # strings are summed a block of whole X strings at a time: the 107 604
        # strings of this register, each held as two words and a coefficient
        # (32 bytes), would break this bound
        import tracemalloc

        ints = load_fcidump(FIXTURES / "h2o_3.0000.fcidump")
        jordan_wigner(ints)
        tracemalloc.start()
        try:
            jordan_wigner(ints)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 107_604

    def test_register_width_boundary(self):
        # the top spin-orbital of the widest register sets bit 63 of the words
        n_orb = fermion.MAX_JW_QUBITS // 2
        top = n_orb - 1
        rng = np.random.default_rng(64)
        ints = sparse_integrals(n_orb, coincident_records(top, 0, top - 1, top), rng)
        assert_matches_oracle(ints)
        wider = FermionIntegrals(
            n_orb=n_orb + 1,
            n_elec=2,
            e_core=0.0,
            h=np.eye(n_orb + 1),
            g=np.zeros((n_orb + 1,) * 4),
        )
        with pytest.raises(PauliError, match=f"{2 * n_orb + 2} qubits"):
            jordan_wigner(wider)

    def test_spin_squared_annihilates_hf(self, h2):
        s2 = oracles.spin_squared_operator(h2.n_orb)
        occ_bits = 0b0011
        assert diagonal_expectation(s2, occ_bits) == pytest.approx(0.0, abs=1e-12)


class TestRotateOrbitals:
    def test_zero_rotation_is_identity(self, h2):
        rot = OrbitalRotation(np.zeros((2, 2)))
        out = rotate_orbitals(h2, rot)
        assert np.allclose(out.h, h2.h, atol=1e-14)
        assert np.allclose(out.g, h2.g, atol=1e-14)

    def test_spectrum_invariance(self, h2):
        rng = np.random.default_rng(41)
        a = rng.normal(scale=0.3)
        t = np.array([[0.0, a], [-a, 0.0]])
        out = rotate_orbitals(h2, OrbitalRotation(t))
        e0 = np.linalg.eigvalsh(oracles.sum_matrix(jordan_wigner(h2)))
        e1 = np.linalg.eigvalsh(oracles.sum_matrix(jordan_wigner(out)))
        assert np.max(np.abs(e0 - e1)) < 1e-9

    def test_matches_dense_conjugation(self, h2):
        t = np.array([[0.0, 0.17], [-0.17, 0.0]])
        rotated = rotate_orbitals(h2, OrbitalRotation(t))
        got = oracles.sum_matrix(jordan_wigner(rotated))
        u = oracles.dense_orbital_rotation_unitary(t, 2)
        ref = u.conj().T @ oracles.sum_matrix(jordan_wigner(h2)) @ u
        assert np.max(np.abs(got - ref)) < 1e-9

    def test_orthogonality_guard(self):
        t = np.array([[0.0, 0.3], [-0.3, 0.0]])
        u = OrbitalRotation(t).matrix()
        assert np.max(np.abs(u.T @ u - np.eye(2))) < 1e-12

    def test_antisymmetry_enforced(self):
        with pytest.raises(ValueError):
            OrbitalRotation(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_occ_virt_packing(self, h2o):
        rot = occ_virt_rotation(h2o, np.full((5, 2), 0.01))
        assert np.array_equal(rot.t, -rot.t.T)
        assert rot.t[0, 5] == pytest.approx(0.01)


class TestOrbitalEnergies:
    def test_h2_ordering(self, h2):
        eps = orbital_energies(h2)
        assert eps[0] < 0 < eps[1]

    def test_closed_shell_identity(self, h2o):
        eps = orbital_energies(h2o)
        occ = range(h2o.n_occ)
        double_count = sum(
            2 * h2o.g[i, i, j, j] - h2o.g[i, j, j, i] for i in occ for j in occ
        )
        e_elec = 2 * eps[: h2o.n_occ].sum() - double_count
        assert e_elec + h2o.e_core == pytest.approx(oracles.hf_energy(h2o), abs=1e-10)

    def test_h2o_occ_virt_split(self, h2o):
        eps = orbital_energies(h2o)
        assert max(eps[:5]) < min(eps[5:])

    def test_matches_fixture_energies(self, h2o):
        eps = orbital_energies(h2o)
        ref = np.asarray(REFERENCE["h2o_1.0000"]["orbital_energies"])
        assert np.max(np.abs(eps - ref)) < 1e-7


class TestMp2Amplitude:
    def test_zero_exchange_integral(self):
        h = np.diag([-1.0, 1.0])
        g = np.zeros((2, 2, 2, 2))
        ints = FermionIntegrals(n_orb=2, n_elec=2, e_core=0.0, h=h, g=g)
        assert mp2_pair_amplitude(ints, 0, 1) == 0.0

    def test_h2_sign_negative(self, h2):
        assert mp2_pair_amplitude(h2, 0, 1) < 0.0

    def test_brackets_exact_rotation_angle(self, h2):
        # exact two-state mixing angle from the determinant CI block
        h00 = h2.e_core + 2 * h2.h[0, 0] + h2.g[0, 0, 0, 0]
        h11 = h2.e_core + 2 * h2.h[1, 1] + h2.g[1, 1, 1, 1]
        h01 = h2.g[1, 0, 1, 0]
        phi = 0.5 * np.arctan2(2 * h01, h00 - h11)
        if phi > 0:
            phi -= np.pi / 2
        t = mp2_pair_amplitude(h2, 0, 1)
        ratio = abs(t) / abs(np.tan(phi))
        assert 0.5 <= ratio <= 2.0

    def test_degenerate_denominator_falls_back(self, caplog):
        # the exchange entry lowers eps_1 by 0.2; h compensates to force degeneracy
        h = np.diag([1.0, 1.2])
        g = np.zeros((2, 2, 2, 2))
        g[1, 0, 1, 0] = g[0, 1, 0, 1] = g[1, 0, 0, 1] = g[0, 1, 1, 0] = 0.2
        ints = FermionIntegrals(n_orb=2, n_elec=2, e_core=0.0, h=h, g=g)
        with caplog.at_level(logging.WARNING):
            assert mp2_pair_amplitude(ints, 0, 1) == 0.0
        assert "degenerate" in caplog.text

    def test_invalid_indices(self, h2):
        with pytest.raises(ValueError):
            mp2_pair_amplitude(h2, 1, 0)
