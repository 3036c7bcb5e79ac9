import numpy as np
import pytest

import oracles
from algebra import PauliProduct, PauliSum, conjugate, inverse
from senqse.pauli import CliffordMap, PauliError, anticommute, product_phase


def P(label, n):
    return PauliProduct.from_label(label, n)


class TestMul:
    def test_single_qubit_table(self):
        a = P("X0", 1) * P("Y0", 1)
        assert a.label() == "Z0" and a.phase == 1j
        assert (a * a).label() == "I"

    def test_involution(self):
        zz = P("Z0 Z1", 2)
        out = zz * zz
        assert out.is_identity() and out.phase == 1

    def test_two_qubit_derived(self):
        # (X0 Z1) * (Z0 X1) against the 4x4 matrix oracle
        a, b = P("X0 Z1", 2), P("Z0 X1", 2)
        got = a * b
        ref = oracles.product_matrix(a) @ oracles.product_matrix(b)
        assert np.allclose(oracles.product_matrix(got), ref)
        assert got.label() == "Y0 Y1" and got.phase == 1

    def test_dimension_mismatch(self):
        with pytest.raises(PauliError):
            P("X0", 1).mul(P("X0", 2))

    def test_associativity_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            ps = []
            for _ in range(3):
                x = int(rng.integers(0, 1 << n))
                z = int(rng.integers(0, 1 << n))
                ps.append(PauliProduct(n, x, z, int(rng.integers(0, 4))))
            a, b, c = ps
            assert (a * b) * c == a * (b * c)
            ref = (
                oracles.product_matrix(a)
                @ oracles.product_matrix(b)
                @ oracles.product_matrix(c)
            )
            assert np.allclose(oracles.product_matrix((a * b) * c), ref)

    def test_square_phase(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            p = PauliProduct(
                n,
                int(rng.integers(0, 1 << n)),
                int(rng.integers(0, 1 << n)),
                int(rng.integers(0, 4)),
            )
            sq = p * p
            assert sq.is_identity()
            if p.phase_exp % 2 == 0:
                assert sq.phase == 1
            else:
                assert sq.phase == -1


class TestCommutes:
    def test_trivial(self):
        assert P("Z0", 2).commutes(P("Z0 Z1", 2))
        assert not P("X0", 1).commutes(P("Z0", 1))

    def test_derived_two_qubit(self):
        a, b = P("X0 Y1", 2), P("Y0 X1", 2)
        am, bm = oracles.product_matrix(a), oracles.product_matrix(b)
        assert np.allclose(am @ bm, bm @ am)
        assert a.commutes(b)

    def test_matches_matrix_commutator(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            a = PauliProduct(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
            b = PauliProduct(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
            am, bm = oracles.product_matrix(a), oracles.product_matrix(b)
            assert a.commutes(b) == np.allclose(am @ bm, bm @ am)


class TestSymplecticRules:
    def test_wide_words_against_per_qubit_matrices(self):
        # 130-qubit words, past one machine word: the quarter turns and the
        # anticommutation parity are sums of single-qubit ones, each read
        # from the 2x2 matrices; PauliProduct must agree with both rules
        mats = {
            (x, z): oracles.product_matrix(PauliProduct(1, x, z))
            for x in (0, 1)
            for z in (0, 1)
        }
        turns, odd = {}, {}
        for (x1, z1), a in mats.items():
            for (x2, z2), b in mats.items():
                ab = a @ b
                c = mats[x1 ^ x2, z1 ^ z2]
                [g] = [g for g in range(4) if np.allclose(ab, 1j**g * c)]
                turns[x1, z1, x2, z2] = g
                odd[x1, z1, x2, z2] = not np.allclose(ab, b @ a)
        rng = np.random.default_rng(19)
        n = 130
        for _ in range(100):
            x1, z1, x2, z2 = (int.from_bytes(rng.bytes(17)) >> 6 for _ in range(4))
            qubits = [tuple(w >> q & 1 for w in (x1, z1, x2, z2)) for q in range(n)]
            want_turns = sum(turns[q] for q in qubits) % 4
            want_odd = sum(odd[q] for q in qubits) % 2 == 1
            assert product_phase(x1, z1, x2, z2) == want_turns
            assert anticommute(x1, z1, x2, z2) is want_odd
            a, b = PauliProduct(n, x1, z1, 1), PauliProduct(n, x2, z2, 2)
            assert (a * b).phase_exp == (3 + want_turns) % 4
            assert a.commutes(b) is not want_odd


class TestClifford:
    def test_cnot_on_zz(self):
        c = CliffordMap(2, (("cnot", 0, 1),))
        out = conjugate(c, P("Z0 Z1", 2))
        assert out.label() == "Z1" and out.phase == 1
        ref = (
            oracles.cnot_matrix(0, 1, 2)
            @ oracles.product_matrix(P("Z0 Z1", 2))
            @ oracles.cnot_matrix(0, 1, 2)
        )
        assert np.allclose(oracles.product_matrix(out), ref)

    def test_cnot_on_x_control(self):
        c = CliffordMap(2, (("cnot", 0, 1),))
        out = conjugate(c, P("X0", 2))
        assert out.label() == "X0 X1" and out.phase == 1

    def test_permutation_on_identity(self):
        c = CliffordMap(3, (("perm", (2, 0, 1)),))
        out = conjugate(c, PauliProduct.identity(3))
        assert out.is_identity() and out.phase == 1

    def test_random_against_dense(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 4))
            gates = []
            for _ in range(int(rng.integers(1, 5))):
                if rng.random() < 0.5:
                    c, t = rng.choice(n, size=2, replace=False)
                    gates.append(("cnot", int(c), int(t)))
                else:
                    gates.append(("perm", tuple(int(v) for v in rng.permutation(n))))
            cmap = CliffordMap(n, tuple(gates))
            u = oracles.clifford_matrix(cmap)
            p = PauliProduct(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
            out = conjugate(cmap, p)
            ref = u @ oracles.product_matrix(p) @ u.conj().T
            assert np.allclose(oracles.product_matrix(out), ref, atol=1e-12)

    def test_phase_stays_real(self):
        rng = np.random.default_rng(19)
        cmap = CliffordMap(3, (("cnot", 0, 2), ("cnot", 2, 1), ("perm", (1, 2, 0))))
        for _ in range(100):
            p = PauliProduct(
                3,
                int(rng.integers(0, 8)),
                int(rng.integers(0, 8)),
                2 * int(rng.integers(0, 2)),
            )
            assert conjugate(cmap, p).phase_exp % 2 == 0

    def test_commutation_preserved(self):
        rng = np.random.default_rng(23)
        cmap = CliffordMap(3, (("cnot", 1, 0), ("perm", (2, 0, 1)), ("cnot", 0, 2)))
        for _ in range(100):
            a = PauliProduct(3, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            b = PauliProduct(3, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            assert a.commutes(b) == conjugate(cmap, a).commutes(conjugate(cmap, b))

    def test_words_match_per_gate_conjugation(self):
        # random gate lists on up to 64 qubits, every product's words and
        # sign against the per-gate rule applied to one product at a time
        rng = np.random.default_rng(31)
        for n in (2, 5, 14, 64):
            gates = []
            for _ in range(12):
                if rng.random() < 0.6:
                    c, t = rng.choice(n, size=2, replace=False)
                    gates.append(("cnot", int(c), int(t)))
                else:
                    gates.append(("perm", tuple(int(v) for v in rng.permutation(n))))
            cmap = CliffordMap(n, tuple(gates))
            mask = np.uint64((1 << n) - 1)
            x = rng.integers(0, 2**64, size=300, dtype=np.uint64) & mask
            z = rng.integers(0, 2**64, size=300, dtype=np.uint64) & mask
            got_x, got_z, sign = cmap.conjugate_words(x, z)
            assert got_x.dtype == got_z.dtype == np.uint64
            for words in zip(x.tolist(), z.tolist(), got_x.tolist(), got_z.tolist(), sign):
                xi, zi, want_x, want_z, s = words
                ref = oracles.per_gate_conjugate(cmap, PauliProduct(n, xi, zi))
                assert (want_x, want_z, 2 * int(s)) == (ref.x_bits, ref.z_bits, ref.phase_exp)
                p = PauliProduct(n, xi, zi, 3)
                assert conjugate(cmap, p) == oracles.per_gate_conjugate(cmap, p)

    def test_scalar_conjugation_beyond_64_qubits(self):
        cmap = CliffordMap(130, (("cnot", 129, 3), ("perm", tuple(reversed(range(130))))))
        p = PauliProduct.from_label("Z3 X129 X70", 130)
        out = conjugate(cmap, p)
        assert out == oracles.per_gate_conjugate(cmap, p) and out.phase_exp == 2

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(29)
        cmap = CliffordMap(4, (("cnot", 3, 1), ("perm", (1, 3, 0, 2)), ("cnot", 0, 2)))
        inv = inverse(cmap)
        for _ in range(100):
            p = PauliProduct(
                4,
                int(rng.integers(0, 16)),
                int(rng.integers(0, 16)),
                int(rng.integers(0, 4)),
            )
            assert conjugate(inv, conjugate(cmap, p)) == p


class TestPauliSum:
    def test_simplify_merges(self):
        s = PauliSum.from_label("Z0", 0.5, 1) + PauliSum.from_label("Z0", 0.5, 1)
        out = s.simplify(1e-12)
        assert out.n_terms == 1
        assert out.coefficient(P("Z0", 1)) == pytest.approx(1.0)

    def test_simplify_drops(self):
        s = PauliSum.from_label("X0", 1e-14, 1)
        assert s.simplify(1e-12).n_terms == 0

    def test_product_against_dense(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = 2
            a = PauliSum(n)
            b = PauliSum(n)
            for pairs, s in [(oracles.random_pauli_sum_pairs(rng, n, 3, real=False), a),
                             (oracles.random_pauli_sum_pairs(rng, n, 3, real=False), b)]:
                for label, c in pairs:
                    s.add_product(P(label, n), c)
            got = oracles.sum_matrix(a * b)
            ref = oracles.sum_matrix(a) @ oracles.sum_matrix(b)
            assert np.allclose(got, ref, atol=1e-10)

    def test_random_pairs_refuse_more_products_than_exist(self):
        # one qubit has 4 distinct products; the helper fails before drawing
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="only 4 distinct products"):
            oracles.random_pauli_sum_pairs(rng, 1, 5)
        assert rng.bit_generator.state == state
        assert len(oracles.random_pauli_sum_pairs(rng, 1, 4)) == 4

    def test_product_rejects_out_of_range_bits(self):
        good = PauliSum.from_label("Z0", 1.0, 2)
        for key in ((4, 0), (0, 4), (-1, 0)):
            bad = PauliSum(2, {key: 1.0})
            with pytest.raises(PauliError):
                good * bad
            with pytest.raises(PauliError):
                bad * good
        with pytest.raises(PauliError):
            PauliSum(-1, {(0, 0): 1.0}) * PauliSum(-1, {(0, 0): 1.0})

    def test_product_by_non_sum_is_a_type_error(self):
        with pytest.raises(TypeError):
            PauliSum.from_label("X0", 1.0, 1) * 2

