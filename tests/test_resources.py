import pytest

from senqse.csfbasis import BasisState, CsfKind, CsfSpec
from senqse.resources import controlled_prep_cost, estimate_pair


def state(kind, indices=(), rotations=()):
    return BasisState(CsfSpec(kind, indices), rotations, "x")


class TestEstimatePair:
    def test_hf_pair_reference_point(self):
        est = estimate_pair(state(CsfKind.HF), state(CsfKind.HF), n_orb=7, n_elec=10)
        assert est.cnots == 5 + 5 + 49 == 59

    def test_rotation_increment(self):
        base = estimate_pair(state(CsfKind.HF), state(CsfKind.HF), 4, 4)
        plus = estimate_pair(
            state(CsfKind.HF, rotations=((2, 0, 0.1),)), state(CsfKind.HF), 4, 4
        )
        assert plus.cnots - base.cnots == 2
        assert plus.depth - base.depth == 5

    def test_zero_electrons_cswap_only(self):
        est = estimate_pair(state(CsfKind.HF), state(CsfKind.HF), 3, 0)
        assert est.cnots == 21
        assert est.depth == 36
        assert est.breakdown["bra_prep"] == (0, 0)

    def test_monotone_in_rotations(self):
        prev = estimate_pair(state(CsfKind.HF), state(CsfKind.HF), 5, 6)
        for k in range(1, 4):
            rots = tuple((4, 0, 0.1) for _ in range(k))
            cur = estimate_pair(
                state(CsfKind.HF, rotations=rots), state(CsfKind.HF), 5, 6
            )
            assert cur.cnots > prev.cnots and cur.depth > prev.depth
            prev = cur

    @pytest.mark.parametrize("n_elec", range(2, 15, 2))
    @pytest.mark.parametrize("n_orb", range(2, 11))
    def test_closed_forms_on_grid(self, n_orb, n_elec):
        base = n_elec // 2
        expected = {
            CsfKind.HF: (base, base),
            CsfKind.SINGLE_SINGLET: (3 + base, 5 + base),
            CsfKind.DOUBLE_SINGLET: (6 + base, 8 + base),
            CsfKind.TRIPLET_PAIR_SINGLET: (8 + base, 9 + base),
        }
        for kind, (c, d) in expected.items():
            omega = {CsfKind.HF: 0, CsfKind.SINGLE_SINGLET: 2}.get(kind, 4)
            assert controlled_prep_cost(kind, n_elec, omega) == (c, d)
        est = estimate_pair(state(CsfKind.HF), state(CsfKind.HF), n_orb, n_elec)
        assert est.breakdown["cswap_network"] == (7 * n_orb, 12 * n_orb)
        assert est.cnots == 2 * base + 7 * n_orb
        assert est.depth == 2 * base + 12 * n_orb

    def test_affine_in_parameters(self):
        # cnots(N_e, N_orb, R) = N_e + 7 N_orb + 2 R for an HF/HF pair
        for n_elec in (2, 6, 10):
            for n_orb in (3, 6):
                for r in (0, 2, 5):
                    rots = tuple((n_elec // 2, 0, 0.1) for _ in range(r))
                    est = estimate_pair(
                        state(CsfKind.HF, rotations=rots), state(CsfKind.HF), n_orb, n_elec
                    )
                    assert est.cnots == n_elec + 7 * n_orb + 2 * r
                    assert est.depth == n_elec + 12 * n_orb + 5 * r
