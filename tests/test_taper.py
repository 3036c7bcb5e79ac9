from pathlib import Path

import numpy as np
import pytest

import oracles
from algebra import (
    PauliProduct,
    PauliSum,
    StateVector,
    apply_clifford,
    seniority_symmetries,
    taper_check,
    tapering_clifford,
    untaper_state,
)
from oracles import as_arrays, as_sum
from senqse.fermion import jordan_wigner, load_fcidump
from senqse import taper
from senqse.pauli import PauliArrays
from senqse.taper import (
    SectorHamiltonian,
    TaperError,
    effective_hamiltonian,
    taper_words,
)

FIXTURES = Path(__file__).parent / "fixtures"


def random_sector_state(rng, bits, n_orb):
    """Random seniority eigenstate with config mask bits, via the inverse Clifford."""
    amps = rng.normal(size=2**n_orb) + 1j * rng.normal(size=2**n_orb)
    inner = StateVector.from_amplitudes(amps, n_orb, normalize=True)
    return untaper_state(bits, inner), inner


def random_sum(rng, n_qubits, terms, real=True):
    s = PauliSum(n_qubits)
    for label, c in oracles.random_pauli_sum_pairs(rng, n_qubits, terms, real=real):
        s.add_product(PauliProduct.from_label(label, n_qubits), c)
    return s


class TestSymmetries:
    def test_listing(self):
        syms = seniority_symmetries(2)
        assert [s.label() for s in syms] == ["Z0 Z1", "Z2 Z3"]
        assert seniority_symmetries(1)[0].label() == "Z0 Z1"

    def test_involution(self):
        for s in seniority_symmetries(3):
            sq = s * s
            assert sq.is_identity() and sq.phase == 1


def tapered(p):
    """``taper_words`` on one product, as a PauliProduct with its sign."""
    x, z, sign = taper_words(p.x_bits, p.z_bits, p.n_qubits // 2)
    return PauliProduct(p.n_qubits, x, z, p.phase_exp + 2 * sign)


class TestBuildClifford:
    """The tapering Clifford as ``taper_words`` applies it, and its circuit."""

    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4, 5, 32])
    def test_defining_property(self, n_orb):
        for i, s in enumerate(seniority_symmetries(n_orb)):
            out = tapered(s)
            assert out.label() == f"Z{i}" and out.phase == 1

    def test_single_orbital_dense(self):
        u = oracles.clifford_matrix(tapering_clifford(1))
        zz = oracles.pauli_matrix("Z0 Z1", 2)
        assert np.allclose(u @ zz @ u.conj().T, oracles.pauli_matrix("Z0", 2))
        assert tapered(PauliProduct.from_label("Z0 Z1", 2)).label() == "Z0"

    def test_odd_z_lands_on_state_register(self):
        for n_orb in (3, 32):
            low_mask = (1 << n_orb) - 1
            for i in range(n_orb):
                out = tapered(PauliProduct.single("Z", 2 * i + 1, 2 * n_orb))
                assert out.x_bits == 0 and (out.z_bits & low_mask) == 0
                assert out.label() == f"Z{n_orb + i}" and out.phase == 1

    def test_hf_state_maps_to_zero_config(self):
        n_orb, n_elec = 3, 4
        occ_bits = sum(1 << q for q in range(n_elec))
        x, _, _ = taper_words(occ_bits, 0, n_orb)
        assert x & ((1 << n_orb) - 1) == 0  # seniority register all zero
        assert x >> n_orb == 0b011  # doubly occupied orbitals 0 and 1
        rotated = apply_clifford(
            StateVector.computational(occ_bits, 2 * n_orb), tapering_clifford(n_orb)
        )
        assert int(np.argmax(np.abs(rotated.amplitudes))) == x

    def test_tapered_determinant_is_the_bitwise_taper(self):
        n_orb = 3
        for occ in range(2 ** (2 * n_orb)):
            x, z, sign = taper_words(occ, 0, n_orb)
            [config], amps = oracles.bitwise_taper({occ: 1.0}, n_orb)
            assert x & ((1 << n_orb) - 1) == config and z == sign == 0
            assert amps[x >> n_orb] == 1.0

    def test_equals_the_circuit_on_arrays(self):
        # every register up to 64 qubits, signs included; the words of
        # n_orb = 32 set bit 63, and the edge words are always present
        rng = np.random.default_rng(41)
        for n_orb in range(1, 33):
            mask = (1 << 2 * n_orb) - 1
            edges = [0, mask, mask & taper._EVEN, mask & taper._EVEN << 1, 1 << 2 * n_orb - 1]
            x, z = rng.integers(0, 2**64, size=(2, 3000), dtype=np.uint64) & np.uint64(mask)
            x[:5], z[:5] = edges, edges[::-1]
            got = taper_words(x, z, n_orb)
            want = tapering_clifford(n_orb).conjugate_words(x, z)
            assert [w.dtype for w in got] == [np.dtype(np.uint64)] * 3
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            assert got[2].any() and not got[2].all()
        assert (x >> np.uint64(63)).any()

    def test_equals_the_circuit_on_ints(self):
        rng = np.random.default_rng(43)
        for n_orb in range(1, 33):
            uc = tapering_clifford(n_orb)
            words = rng.integers(0, 2**64, size=(300, 2), dtype=np.uint64)
            for x, z in (words >> np.uint64(64 - 2 * n_orb)).tolist():
                got = taper_words(x, z, n_orb)
                assert got == uc.conjugate_words(x, z)
                assert [type(w) for w in got] == [int] * 3


class TestEffectiveHamiltonian:
    def test_identity_term_diagonal(self):
        hq = PauliSum(4, {(0, 0): 0.7})
        eff = as_sum(effective_hamiltonian(as_arrays(hq), 0b00, 0b00))
        assert eff.n_terms == 1
        assert eff.identity_coefficient() == pytest.approx(0.7)

    def test_diagonal_term_between_configs_vanishes(self):
        hq = PauliSum.from_label("Z0 Z2", 0.5, 4) + PauliSum(4, {(0, 0): 1.2})
        eff = effective_hamiltonian(as_arrays(hq), 0b11, 0b00)
        assert eff.n_terms == 0

    def test_term_count_monotone(self):
        rng = np.random.default_rng(61)
        n_orb = 3
        hq = random_sum(rng, 2 * n_orb, 25)
        for _ in range(10):
            bra = oracles.config_mask(rng.integers(0, 2, size=n_orb))
            ket = oracles.config_mask(rng.integers(0, 2, size=n_orb))
            eff = effective_hamiltonian(as_arrays(hq), bra, ket)
            assert eff.n_terms <= hq.n_terms

    def test_diagonal_hermitian(self):
        rng = np.random.default_rng(67)
        n_orb = 3
        hq = random_sum(rng, 2 * n_orb, 30)
        eff = as_sum(effective_hamiltonian(as_arrays(hq), 0b101, 0b101))
        assert eff.max_imag() < 1e-12

    def test_offdiagonal_adjoint_pair(self):
        rng = np.random.default_rng(71)
        n_orb = 3
        hq = random_sum(rng, 2 * n_orb, 30)
        bra, ket = 0b011, 0b110
        fwd = effective_hamiltonian(as_arrays(hq), bra, ket)
        rev = effective_hamiltonian(as_arrays(hq), ket, bra)
        # X_mu_nu must equal the adjoint of X_nu_mu (products are Hermitian)
        diff_terms = dict(fwd.items())
        for key, c in rev.items():
            diff_terms[key] = diff_terms.get(key, 0.0) - np.conj(c)
        assert max(abs(c) for c in diff_terms.values()) < 1e-12

    @pytest.mark.parametrize("n_orb", [2, 3, 4])
    def test_matrix_element_preservation(self, n_orb):
        rng = np.random.default_rng(100 + n_orb)
        for _ in range(12):
            hq = random_sum(rng, 2 * n_orb, 20)
            bra = oracles.config_mask(rng.integers(0, 2, size=n_orb))
            ket = oracles.config_mask(rng.integers(0, 2, size=n_orb))
            full_a, inner_a = random_sector_state(rng, bra, n_orb)
            full_b, inner_b = random_sector_state(rng, ket, n_orb)
            # sanity: the full states really are seniority eigenstates
            for i, s in enumerate(seniority_symmetries(n_orb)):
                sm = oracles.product_matrix(s)
                val = np.vdot(full_a.amplitudes, sm @ full_a.amplitudes).real
                assert val == pytest.approx(1 - 2 * (bra >> i & 1), abs=1e-10)
            ref = np.vdot(
                full_a.amplitudes, oracles.sum_matrix(hq) @ full_b.amplitudes
            )
            eff = effective_hamiltonian(as_arrays(hq), bra, ket)
            got = np.vdot(
                inner_a.amplitudes, oracles.sum_matrix(eff) @ inner_b.amplitudes
            )
            assert got == pytest.approx(ref, abs=1e-10)


def fixture_hamiltonian(stem):
    return jordan_wigner(load_fcidump(str(FIXTURES / f"{stem}.fcidump")))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_operator(got, ref):
    """The PauliArrays hold the reference PauliSum's terms in its item
    order, keys and coefficients equal as uint64 views."""
    assert got.n_qubits == ref.n_qubits
    assert got.keys.dtype == np.uint64 and got.keys.shape == (len(ref), 2)
    assert got.coeffs.dtype == complex
    assert got.keys.tolist() == [list(key) for key, _ in ref.items()]
    want = np.array([c for _, c in ref.items()], dtype=complex)
    assert np.array_equal(bits(got.coeffs), bits(want))


def assert_matches_dict_table(table, ref, pairs):
    for v, w in pairs:
        assert_same_operator(table.op(v, w), ref.op(v, w))


def assert_matches_every_pair(hq):
    """Every (bra, ket) config pair of hq's table against the dict table."""
    n_orb = hq.n_qubits // 2
    pairs = [(v, w) for v in range(2**n_orb) for w in range(2**n_orb)]
    ref = oracles.DictSectorTable(hq, tapering_clifford(n_orb))
    assert_matches_dict_table(SectorHamiltonian(hq), ref, pairs)


class TestSectorHamiltonian:
    def test_h2_all_pairs_match_term_by_term(self):
        for stem in ("h2_0.7414", "h2_1.5000"):
            assert_matches_every_pair(fixture_hamiltonian(stem))

    def test_h2o_all_pairs_match_term_by_term(self):
        assert_matches_every_pair(fixture_hamiltonian("h2o_1.0000"))

    def test_random_operators_match_dict_table(self):
        rng = np.random.default_rng(2024)
        for n_orb in (1, 2, 3, 4):
            # small registers, so buckets repeat keys; exact zeros are dropped
            hq = random_sum(rng, 2 * n_orb, min(40, 4 ** (2 * n_orb) // 2), real=False)
            hq = hq + hq.scaled(-1.0).simplify(0.5)
            assert_matches_every_pair(as_arrays(hq))

    def test_left_factor_table_is_the_reference_values(self):
        # entry [odd, k]: |x & z| = k and |z & ket| = odd
        want = [
            [oracles.left_factor_element(x, x | 8, x ^ (8 * odd), 8 * odd) for x in (0, 1, 3, 7)]
            for odd in (0, 1)
        ]
        assert np.array_equal(bits(taper._LEFT_FACTORS), bits(np.array(want)))

    def test_effective_hamiltonian_is_one_pair_table(self):
        hq = fixture_hamiltonian("h2_1.5000")
        eff = effective_hamiltonian(hq, 0b11, 0b00)
        assert isinstance(eff, PauliArrays) and eff.n_qubits == 2
        assert_same_operator(SectorHamiltonian(hq).op(0b11, 0b00), eff)

    def test_zero_pattern(self):
        """A pair is empty when no conjugated term has X part bra XOR ket."""
        hq = fixture_hamiltonian("h2o_1.0000")
        n_orb = hq.n_qubits // 2
        mask = (1 << n_orb) - 1
        x_parts = {taper_words(x, z, n_orb)[0] & mask for (x, z), _ in hq.items()}
        absent = [x for x in range(2**n_orb) if x not in x_parts]
        assert absent and 0 in x_parts
        table = SectorHamiltonian(hq)
        rng = np.random.default_rng(7)
        for x in absent:
            v = int(rng.integers(0, 2**n_orb))
            op = table.op(v, v ^ x)
            assert not op and op.keys.shape == (0, 2) and op.coeffs.shape == (0,)
        assert len(table.op(0, 0)) > 0

    def test_conjugates_each_term_once(self, monkeypatch):
        hq = fixture_hamiltonian("h2o_1.0000")
        n_orb = hq.n_qubits // 2
        conjugated = []

        def counting(x, z, n_orb):
            conjugated.append(len(x))
            return taper_words(x, z, n_orb)

        monkeypatch.setattr(taper, "taper_words", counting)
        table = SectorHamiltonian(hq)
        assert sum(conjugated) == hq.n_terms
        rng = np.random.default_rng(11)
        for v, w in rng.integers(0, 2**n_orb, size=(300, 2)):
            table.op(int(v), int(w))
        for v in range(2**n_orb):
            table.op(v, v)
        assert sum(conjugated) == hq.n_terms

    def test_memoised_per_pair(self):
        table = SectorHamiltonian(fixture_hamiltonian("h2_0.7414"))
        assert table.op(1, 2) is table.op(1, 2)
        assert table.op(1, 2) is not table.op(2, 1)

    def test_odd_register_rejected(self):
        with pytest.raises(TaperError, match="2\\*n_orb"):
            SectorHamiltonian(as_arrays(PauliSum.from_label("Z0 Z2", 1.0, 3)))

    def test_register_beyond_64_bit_words_rejected(self):
        with pytest.raises(TaperError, match="at most 64 qubits"):
            SectorHamiltonian(as_arrays(PauliSum.from_label("Z0 Z63", 1.0, 66)))

    @pytest.mark.parametrize("bra, ket", [(4, 0), (0, 4), (-1, 0), (0, 17)])
    def test_config_bits_out_of_range(self, bra, ket):
        table = SectorHamiltonian(fixture_hamiltonian("h2_0.7414"))
        with pytest.raises(TaperError, match="outside n_orb=2"):
            table.op(bra, ket)


class TestTaperCheck:
    def test_hf_determinant(self):
        n_orb, n_elec = 3, 4
        occ_bits = sum(1 << q for q in range(n_elec))
        bits, inner = taper_check(StateVector.computational(occ_bits, 2 * n_orb))
        assert bits == 0b000
        assert np.argmax(np.abs(inner.amplitudes)) == 0b011

    def test_roundtrip(self):
        rng = np.random.default_rng(73)
        for n_orb in (1, 2, 3, 4, 5):
            for bits in range(2**n_orb):
                full, inner = random_sector_state(rng, bits, n_orb)
                assert full.n_qubits == 2 * n_orb
                got_bits, got = taper_check(full)
                assert got_bits == bits and type(got_bits) is int
                assert np.allclose(got.amplitudes, inner.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("bits", [-1, 8, 9])
    def test_untaper_bits_out_of_range(self, bits):
        inner = StateVector.computational(0, 3)
        with pytest.raises(TaperError, match="outside n_orb=3"):
            untaper_state(bits, inner)

    def test_odd_register_rejected(self):
        with pytest.raises(TaperError, match="2\\*n_orb register"):
            taper_check(StateVector.computational(0, 3))

    def test_mixed_configs_rejected(self):
        rng = np.random.default_rng(79)
        n_orb = 2
        full_a, _ = random_sector_state(rng, 0b00, n_orb)
        full_b, _ = random_sector_state(rng, 0b11, n_orb)
        mixed = StateVector.from_amplitudes(
            full_a.amplitudes + full_b.amplitudes, 2 * n_orb, normalize=True
        )
        with pytest.raises(TaperError, match="not a seniority eigenstate"):
            taper_check(mixed)
