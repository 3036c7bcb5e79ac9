"""Molecular integrals, second-quantized Hamiltonian, and its qubit image.

Integrals are ingested from FCIDUMP files (Molpro convention, chemist
notation (pq|rs)).  The qubit Hamiltonian lives on 2*n_orb qubits with the
interleaved spin convention: the up/down spin-orbitals of spatial orbital i
sit on qubits 2i and 2i+1.
"""

from __future__ import annotations

import itertools
import logging
import re
from dataclasses import dataclass

import numpy as np

from senqse.pauli import DROP_TOL, PauliArrays, PauliError

log = logging.getLogger(__name__)

SYMMETRY_TOL = 1e-10
# write_fcidump omits integrals of smaller magnitude
WRITE_TOL = 1e-14


class FcidumpError(ValueError):
    """Malformed FCIDUMP input."""


class OrbitalError(ValueError):
    """An orbital rotation or orbital index that does not fit the integrals."""


@dataclass(frozen=True)
class FermionIntegrals:
    """One- and two-electron integrals for a closed-shell system (Hartree).

    The electron count is checked here, for every input: it is even and
    fits the 2*n_orb spin-orbitals.
    """

    n_orb: int
    n_elec: int
    e_core: float
    h: np.ndarray  # (n_orb, n_orb), symmetric
    g: np.ndarray  # (n_orb,)*4 chemist notation (pq|rs), 8-fold symmetric

    def __post_init__(self):
        if self.n_elec % 2 != 0:
            raise FcidumpError(f"odd electron count {self.n_elec}")
        if not 0 <= self.n_elec <= 2 * self.n_orb:
            raise FcidumpError(
                f"NELEC={self.n_elec} outside 0..2*NORB with NORB={self.n_orb}"
            )
        if self.h.shape != (self.n_orb, self.n_orb):
            raise FcidumpError("one-electron integral shape mismatch")
        if self.g.shape != (self.n_orb,) * 4:
            raise FcidumpError("two-electron integral shape mismatch")
        # a nan or inf would pass the tolerance checks below, whose
        # comparisons with nan are False
        for name in ("e_core", "h", "g"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise FcidumpError(f"non-finite {name} integrals")
        if np.max(np.abs(self.h - self.h.T), initial=0.0) > SYMMETRY_TOL:
            raise FcidumpError("one-electron integrals not symmetric")
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if np.max(np.abs(self.g - self.g.transpose(perm)), initial=0.0) > SYMMETRY_TOL:
                raise FcidumpError("two-electron integrals lack 8-fold symmetry")

    @property
    def n_occ(self) -> int:
        return self.n_elec // 2


@dataclass(frozen=True)
class OrbitalRotation:
    """Antisymmetric amplitude matrix t generating the rotation exp(t)."""

    t: np.ndarray

    def __post_init__(self):
        # a matrix that is not square is not equal to its negated transpose
        if not np.array_equal(self.t, -self.t.T):
            raise OrbitalError("rotation amplitudes must be exactly antisymmetric")

    def matrix(self) -> np.ndarray:
        """Orthogonal matrix exp(t); orthogonality enforced to 1e-12."""
        import scipy.linalg

        u = scipy.linalg.expm(self.t)
        err = np.max(np.abs(u.T @ u - np.eye(len(u))))
        if err > 1e-12:
            raise OrbitalError(f"exp(t) deviates from orthogonality by {err:.2e}")
        return u


# ---------------------------------------------------------------------------
# FCIDUMP parsing
# ---------------------------------------------------------------------------


def parse_fcidump(text: str) -> FermionIntegrals:
    """Parse FCIDUMP content (Molpro convention).

    Header: ``&FCI NORB=..,NELEC=..,MS2=..,`` possibly spanning several
    lines, closed by ``&END`` or ``/``.  Records are ``value i j k l`` with
    1-based indices; two trailing zeros route to h, four zeros to e_core.
    Records with three trailing zeros (orbital energies) are ignored.
    """
    lines = text.splitlines()
    for header_end, line in enumerate(lines):
        if "&END" in line.upper() or re.search(r"(^|\s)/\s*$", line):
            break
    else:
        raise FcidumpError("no &END (or /) terminating the FCIDUMP header")
    header = " ".join(lines[: header_end + 1])
    if "&FCI" not in header.upper():
        raise FcidumpError("missing &FCI in header")

    def header_int(name):
        m = re.search(rf"{name}\s*=\s*(-?\d+)", header, re.IGNORECASE)
        if m is None:
            raise FcidumpError(f"missing {name} in FCIDUMP header")
        return int(m.group(1))

    n_orb, n_elec, ms2 = map(header_int, ("NORB", "NELEC", "MS2"))
    if n_orb < 1:
        raise FcidumpError(f"bad NORB {n_orb}")
    if ms2 != 0:
        raise FcidumpError(f"only closed-shell singlet inputs supported (MS2={ms2})")

    h = np.zeros((n_orb, n_orb))
    g = np.zeros((n_orb,) * 4)
    e_core = 0.0
    for ln in range(header_end + 1, len(lines)):
        line = lines[ln].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FcidumpError(f"line {ln + 1}: expected 'value i j k l', got {line!r}")
        try:
            val = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError as exc:
            raise FcidumpError(f"line {ln + 1}: {exc}") from None
        if not np.isfinite(val):
            raise FcidumpError(f"line {ln + 1}: non-finite value {parts[0]!r}")
        for idx in (i, j, k, l):
            if not 0 <= idx <= n_orb:
                raise FcidumpError(f"line {ln + 1}: orbital index {idx} out of range")
        if i == j == k == l == 0:
            e_core = val
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                if j == 0:
                    continue  # orbital-energy record (i 0 0 0), unused
                raise FcidumpError(f"line {ln + 1}: bad one-electron indices")
            h[i - 1, j - 1] = h[j - 1, i - 1] = val
        elif 0 in (i, j, k, l):
            raise FcidumpError(f"line {ln + 1}: bad two-electron indices")
        else:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for a, b in ((p, q), (q, p)):
                for c, d in ((r, s), (s, r)):
                    g[a, b, c, d] = g[c, d, a, b] = val
    return FermionIntegrals(n_orb=n_orb, n_elec=n_elec, e_core=e_core, h=h, g=g)


def load_fcidump(path) -> FermionIntegrals:
    with open(path) as fh:
        return parse_fcidump(fh.read())


def write_fcidump(ints: FermionIntegrals, path) -> None:
    """Write integrals back out in the same convention (unique records only)."""
    n = ints.n_orb
    with open(path, "w") as fh:
        fh.write(f"&FCI NORB={n},NELEC={ints.n_elec},MS2=0,\n")
        fh.write("  ORBSYM=" + "1," * n + "\n")
        fh.write("  ISYM=1,\n")
        fh.write("&END\n")
        for p in range(n):
            for q in range(p + 1):
                for r in range(p + 1):
                    s_max = q if r == p else r
                    for s in range(s_max + 1):
                        v = ints.g[p, q, r, s]
                        if abs(v) > WRITE_TOL:
                            fh.write(f"{v:23.16e} {p+1:3d} {q+1:3d} {r+1:3d} {s+1:3d}\n")
        for p in range(n):
            for q in range(p + 1):
                if abs(ints.h[p, q]) > WRITE_TOL:
                    fh.write(f"{ints.h[p, q]:23.16e} {p+1:3d} {q+1:3d}   0   0\n")
        fh.write(f"{ints.e_core:23.16e}   0   0   0   0\n")


# ---------------------------------------------------------------------------
# Jordan-Wigner machinery
# ---------------------------------------------------------------------------


# one-body strings and two-body rows per block of jordan_wigner (whole X
# strings, so one large X string makes a larger block); bounds its
# scratch, about 1.2 MB on H2O
BLOCK_ROWS = 512

# the 64-bit words that hold jordan_wigner's bit strings
MAX_JW_QUBITS = 64

_QUARTER_TURNS = np.array([1, 1j, -1, -1j])
# spins of a+_ps a_qs for s = 0, 1, and of a+_ps a+_rt a_st a_qs for
# (s, t) = (0, 0), (0, 1), (1, 0), (1, 1)
_ONE_BODY_SPINS = np.array([[0, 0], [1, 1]], dtype=np.uint8)
_TWO_BODY_SPINS = np.array([[0, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1]], np.uint8)


def _ladder_products(modes: np.ndarray, daggers, coeffs: np.ndarray, rows: np.ndarray):
    """Live JW strings of coeffs[b] * prod_k ladder(modes[b, k], daggers[k]).

    Takes the ladder-by-ladder product of ``jw_operator`` (in
    ``tests/oracles.py``) on a whole block at once: row b's strings come in
    the order that product emits them, lexicographic in the X/Y choice of
    each ladder with the first ladder most significant.  A mode may appear
    twice, as a creator and as an annihilator; two choices that then land
    on one string are merged into the earlier one at the ladder where they
    meet, so every sum is taken in the order the product takes it.
    Returns each live string's x and z bits, coefficient and position, the
    j-th string of row b at rows[b] * 2**len(daggers) + j.
    """
    one = np.uint64(1)
    n = len(coeffs)
    x = np.zeros(n, dtype=np.uint64)
    z = np.zeros((n, 1), dtype=np.uint64)
    c = coeffs.astype(complex)[:, None]
    alive = np.ones((n, 1), dtype=bool)
    for k, dagger in enumerate(daggers):
        bit = one << modes[:, k].astype(np.uint64)
        # a ladder's two strings, 0.5 X and -0.5i Y (a+) or +0.5i Y (a),
        # each times the Z string below the mode
        z2 = np.stack([bit - one, (bit - one) | bit], axis=1)[:, None, :]
        x3 = x ^ bit
        z3 = z[:, :, None] ^ z2
        # the quarter turns of pauli.product_phase; uint8 wrap-around keeps it mod 4
        g = (
            np.bitwise_count(x[:, None] & z)[:, :, None]
            + np.array([0, 1], dtype=np.uint8)
            - np.bitwise_count(x3[:, None, None] & z3)
            + 2 * np.bitwise_count(z & bit[:, None])[:, :, None]
        )
        ladder = np.array([0.5, 0.5 * (-1j if dagger else 1j)])
        c = (c[:, :, None] * ladder * _QUARTER_TURNS[g % 4]).reshape(n, 2 << k)
        x, z = x3, z3.reshape(n, 2 << k)
        alive = np.repeat(alive, 2, axis=1)
        pos = np.arange(z.shape[1])
        for j in range(k):
            same = (modes[:, j] == modes[:, k])[:, None]
            if not same.any():
                continue
            # choices of ladders j and k flipped together give the same string
            target = pos[((pos >> (k - j)) & 1) == 0]
            partner = target ^ ((1 << (k - j)) | 1)
            c[:, target] = np.where(same, c[:, target] + c[:, partner], c[:, target])
            alive[:, partner] &= ~same
    pos = rows[:, None] * len(pos) + pos
    return np.broadcast_to(x[:, None], z.shape)[alive], z[alive], c[alive], pos[alive]


def _key_sums(x, z, c, pos):
    """First position, x and z words, and real and imaginary coefficient sums
    of each distinct key (x, z) of the strings, whose equal keys come in
    position order; each sum runs from +0 in that order (stable sorts, then
    ``np.bincount``)."""
    order = np.argsort(z.view(np.int64), kind="stable")
    order = order[np.argsort(x.view(np.int64)[order], kind="stable")]
    x, z = x[order], z[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
    key = np.empty(len(x), dtype=np.intp)
    key[order] = np.cumsum(first) - 1
    sums = np.bincount(key, c.real), np.bincount(key, c.imag)
    return pos[order[first]], x[first], z[first], *sums


def _terms(ints: FermionIntegrals) -> list:
    """(first position, x, z, coefficient) of each Pauli string of
    `jordan_wigner` whose sum reaches DROP_TOL, imaginary parts below it
    cleared, in order of first position.  Keys are summed by `_key_sums`, a
    block of whole X strings at a time, and each block's kept terms leave
    its arrays as Python objects, so that no array outlives its block."""
    p, q = np.nonzero(ints.h)
    modes = 2 * np.stack([p, q], axis=-1).astype(np.uint8)[:, None] + _ONE_BODY_SPINS
    n_one = 2 * len(p)
    one = _ladder_products(
        modes.reshape(-1, 2), (True, False), np.repeat(ints.h[p, q], 2), np.arange(n_one)
    )
    # e_core is the identity's first term, at position -1; the two-body
    # rows' positions come after the one-body rows'
    zero = np.zeros(1, dtype=np.uint64)
    one = [np.concatenate(a) for a in zip((zero, zero, [complex(ints.e_core)], [-1]), one)]
    p, q, r, s = np.nonzero(ints.g)
    modes = 2 * np.stack([p, r, s, q], axis=-1).astype(np.uint8)[:, None] + _TWO_BODY_SPINS
    # a+a+ or aa on the same spin-orbital vanishes
    keep = (_TWO_BODY_SPINS[:, 0] != _TWO_BODY_SPINS[:, 1]) | ((p != r) & (q != s))[:, None]
    modes, coeffs = modes[keep], np.repeat(0.5 * ints.g[p, q, r, s], 4).reshape(-1, 4)[keep]
    xs = np.bitwise_xor.reduce(np.uint64(1) << modes, axis=1)
    # blocks of whole X strings in sorted order, each closed at the first X
    # string that starts BLOCK_ROWS or more strings and rows after it opened
    n_strings = len(one[0])
    x_all = np.concatenate([one[0], xs]).view(np.int64)
    order = np.argsort(x_all, kind="stable")
    bounds = [0]
    for start in (np.flatnonzero(np.diff(x_all[order]) != 0) + 1).tolist():
        if start - bounds[-1] >= BLOCK_ROWS:
            bounds.append(start)
    terms = []
    for lo, hi in itertools.pairwise(bounds + [len(x_all)]):
        index = order[lo:hi]
        rows = index[index >= n_strings] - n_strings
        two = _ladder_products(
            modes[rows], (True, True, False, False), coeffs[rows], n_one + rows
        )
        mine = index[index < n_strings]
        strings = (np.concatenate([a[mine], t]) for a, t in zip(one, two))
        first, x, z, re, im = _key_sums(*strings)
        kept = np.hypot(re, im) >= DROP_TOL
        im = np.where(np.abs(im[kept]) < DROP_TOL, 0.0, im[kept])
        values = map(complex, re[kept].tolist(), im.tolist())
        terms += zip(first[kept].tolist(), x[kept].tolist(), z[kept].tolist(), values)
    # positions are distinct, so no two terms compare further
    return sorted(terms)


def jordan_wigner(ints: FermionIntegrals) -> PauliArrays:
    """Qubit image of the electronic Hamiltonian on 2*n_orb qubits.

    H = e_core + sum_pq h_pq a+_ps a_qs
        + 1/2 sum_pqrs (pq|rs) a+_ps a+_rt a_st a_qs

    Every spin-orbital term is written out in closed form, and each Pauli
    string sums its terms from +0 in integral order: e_core, the one-body
    terms, then the two-body terms, each in ``np.nonzero`` order.  Terms of
    different X strings never meet, so they are summed by `_key_sums` in
    blocks of whole X strings, of about `BLOCK_ROWS` rows.  Keys keep the
    order of their first term, sums below DROP_TOL are dropped and smaller
    imaginary parts cleared: the product of `jw_operator` chains, term for
    term and bit for bit.  Bit strings are 64-bit words: registers wider
    than `MAX_JW_QUBITS` qubits raise `PauliError`, and a Hamiltonian with
    no term but the identity, which nothing can measure, `FcidumpError`.
    """
    nq = 2 * ints.n_orb
    if nq > MAX_JW_QUBITS:
        raise PauliError(
            f"{nq} qubits exceed the {MAX_JW_QUBITS}-bit words of jordan_wigner"
        )
    terms = _terms(ints)
    if not any(x | z for _, x, z, _ in terms):
        raise FcidumpError("qubit Hamiltonian has no term but the identity")
    _, x, z, coeffs = zip(*terms)
    return PauliArrays(nq, np.array([x, z], dtype=np.uint64).T, np.array(coeffs))


# ---------------------------------------------------------------------------
# Reference quantities and orbital rotations
# ---------------------------------------------------------------------------


def orbital_energies(ints: FermionIntegrals) -> np.ndarray:
    """Canonical-basis orbital energies eps_p = h_pp + sum_occ (2J - K)."""
    occ = np.arange(ints.n_occ)
    j = np.einsum("ppii->pi", ints.g)
    k = np.einsum("piip->pi", ints.g)
    return np.diag(ints.h) + (2.0 * j[:, occ] - k[:, occ]).sum(axis=1)


def mp2_pair_amplitude(ints: FermionIntegrals, i: int, a: int) -> float:
    """MP2 amplitude of the paired double excitation i,i-bar -> a,a-bar.

    t_ia = (ai|ai) / (2 (eps_i - eps_a)); a degenerate denominator falls
    back to 0 with a logged warning so callers can proceed.
    """
    if not 0 <= i < ints.n_occ:
        raise OrbitalError(f"orbital {i} is not occupied")
    if not ints.n_occ <= a < ints.n_orb:
        raise OrbitalError(f"orbital {a} is not virtual")
    eps = orbital_energies(ints)
    denom = eps[i] - eps[a]
    if abs(denom) < 1e-8:
        log.warning(
            "degenerate orbital pair (%d, %d): |eps_a - eps_i| = %.3e, amplitude -> 0",
            i,
            a,
            abs(denom),
        )
        return 0.0
    return float(ints.g[a, i, a, i] / (2.0 * denom))


def rotate_orbitals(ints: FermionIntegrals, rot: OrbitalRotation) -> FermionIntegrals:
    """Transform integrals by the orthogonal matrix U = exp(t).

    h' = U^T h U and g' carries U on every index; the many-body spectrum is
    unchanged.
    """
    u = rot.matrix()
    h = u.T @ ints.h @ u
    g = np.einsum("ap,abcd->pbcd", u, ints.g, optimize=True)
    g = np.einsum("bq,pbcd->pqcd", u, g, optimize=True)
    g = np.einsum("cr,pqcd->pqrd", u, g, optimize=True)
    g = np.einsum("ds,pqrd->pqrs", u, g, optimize=True)
    # Rounding can break the exact symmetries the constructor checks; restore.
    h = 0.5 * (h + h.T)
    g = 0.25 * (g + g.transpose(1, 0, 2, 3) + g.transpose(0, 1, 3, 2) + g.transpose(1, 0, 3, 2))
    g = 0.5 * (g + g.transpose(2, 3, 0, 1))
    return FermionIntegrals(
        n_orb=ints.n_orb, n_elec=ints.n_elec, e_core=ints.e_core, h=h, g=g
    )


def occ_virt_rotation(ints: FermionIntegrals, amplitudes: np.ndarray) -> OrbitalRotation:
    """Pack occupied-virtual amplitudes (n_occ x n_virt) into a full t matrix."""
    n_occ, n_virt = ints.n_occ, ints.n_orb - ints.n_occ
    amplitudes = np.asarray(amplitudes, dtype=float).reshape(n_occ, n_virt)
    t = np.zeros((ints.n_orb, ints.n_orb))
    t[:n_occ, n_occ:] = amplitudes
    t[n_occ:, :n_occ] = -amplitudes.T
    return OrbitalRotation(t)
