"""Sector-restricted FCI oracle: the exact energy the subspace is judged by.

hq is assembled on the sector's determinants one X string at a time.  Up
to _DENSE_CUTOFF determinants only eigenvalues are taken, by NumPy alone,
and an Ms = 0 sector is solved as its even and odd spin-flip blocks (the
spin-combination basis of Olsen et al. 1988, J. Chem. Phys. 89, 2185);
above it a sparse matrix goes to SciPy's Lanczos, imported only there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from senqse.pauli import PauliSum
from senqse.simulator import _term_table, _x_groups

# largest sector (determinants) that fci_oracle diagonalises densely
_DENSE_CUTOFF = 2048
# spin-orbital bits 2p (up spin) of a determinant
_UP_BITS = np.uint64(0x5555_5555_5555_5555)


class FciError(RuntimeError):
    """A sector the oracle cannot diagonalise, or a Hamiltonian it refuses."""


@dataclass(frozen=True)
class FciResult:
    """Sector-restricted exact ground energy used as the accuracy reference."""

    energy: float
    sector: tuple


def _sector_determinants(n_orb: int, n_up: int, n_dn: int) -> np.ndarray:
    ups = list(itertools.combinations(range(n_orb), n_up))
    dns = list(itertools.combinations(range(n_orb), n_dn))
    dets = []
    for up in ups:
        up_bits = sum(1 << (2 * p) for p in up)
        for dn in dns:
            dets.append(up_bits | sum(1 << (2 * p + 1) for p in dn))
    return np.array(sorted(dets), dtype=np.uint64)


def _sector_blocks(hq: PauliSum, dets: np.ndarray):
    """(rows, cols, values) of hq on the sorted determinants, one X string each.

    Entry (row, col) is reached only by terms with x = row ^ col, so each
    block's entries are distinct from every other block's, and each entry
    sums its terms in ``hq.items()`` order.  x is its own inverse, so a
    block also holds the transpose of each of its entries, and is checked
    against that mirror before it is yielded.
    """
    dim = len(dets)
    for x, (keys, coeffs) in _x_groups(hq).items():
        targets = dets ^ np.uint64(x)
        pos = np.searchsorted(dets, targets)
        ok = pos < dim
        ok[ok] &= dets[pos[ok]] == targets[ok]
        if not np.any(ok):
            continue
        rows, cols, bras = pos[ok], np.flatnonzero(ok), targets[ok]
        vals = np.zeros(len(cols))
        # chunks of terms with at most dim entries (one term at least): the
        # scratch is no larger than one term's row can be; rows add in order
        step = max(1, dim // len(cols))
        for start in range(0, len(keys), step):
            _, coef = _term_table(
                keys[start : start + step], coeffs[start : start + step], bras
            )
            if np.max(np.abs(coef.imag)) > 1e-9:
                raise FciError("sector matrix has imaginary entries")
            for term in coef.real:
                vals += term
        asym = np.max(np.abs(vals - vals[np.searchsorted(cols, rows)]))
        if asym > 1e-9:
            raise FciError(f"sector matrix asymmetry {asym:.2e}")
        yield rows, cols, vals


def _dense_sector_matrix(hq: PauliSum, dets: np.ndarray) -> np.ndarray:
    """hq on the sector as a dense array, assigned one X-string block at a time."""
    mat = np.zeros((len(dets), len(dets)))
    for rows, cols, vals in _sector_blocks(hq, dets):
        mat[rows, cols] = vals
    return mat


def _spin_flip_blocks(mat: np.ndarray, dets: np.ndarray):
    """The even and odd spin-flip blocks of an Ms = 0 sector matrix.

    The flip P swaps bits 2p and 2p + 1 of each orbital p, with the sign
    s_i = (-1)^(doubly occupied orbitals), the parity of reordering the
    spin orbitals.  Determinant i < f(i) gives (|i> +- s_i |f(i)>)/sqrt(2)
    to the parity +-1 block, a closed shell f(i) = i its own parity s_i.
    A matrix with max |PHP - H| above 1e-9 is refused, never solved whole;
    else block entry (i, j) is 2 n_i n_j (H_ij + parity s_j H_i,f(j)).
    """
    up, dn = dets & _UP_BITS, (dets >> np.uint64(1)) & _UP_BITS
    flip = np.searchsorted(dets, (up << np.uint64(1)) | dn)
    sign = 1.0 - 2.0 * (np.bitwise_count(up & dn) & np.uint64(1))
    php = mat[np.ix_(flip, flip)]
    php *= sign[:, None]
    php *= sign
    php -= mat
    coupling = float(np.max(np.abs(php, out=php)))
    del php
    if coupling > 1e-9:
        raise FciError(f"sector matrix breaks spin-flip symmetry by {coupling:.2e}")
    idx = np.arange(len(dets))
    for parity in (1.0, -1.0):
        keep = (idx < flip) | ((idx == flip) & (sign == parity))
        own, other, t = idx[keep], flip[keep], parity * sign[keep]
        block = mat[np.ix_(own, own)]
        block += mat[np.ix_(own, other)] * t
        norm = np.where(own == other, 0.5, np.sqrt(0.5))
        yield block * (2.0 * norm[:, None] * norm)


def _lanczos_ground_energy(hq: PauliSum, dets: np.ndarray) -> float:
    """Lowest eigenvalue of hq on the sector by SciPy's sparse Lanczos."""
    import scipy.sparse
    import scipy.sparse.linalg

    rows, cols, vals = map(np.concatenate, zip(*_sector_blocks(hq, dets)))
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(len(dets), len(dets)))
    # a fixed start vector: ARPACK's own is random, so the bits would vary
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, len(dets))
    w = scipy.sparse.linalg.eigsh(
        mat, k=1, which="SA", v0=v0, return_eigenvectors=False
    )
    return float(w[0])


def fci_oracle(hq: PauliSum, n_elec: int, sz: float = 0.0) -> FciResult:
    """Lowest eigenvalue of hq in the fixed (N, S_z) determinant sector."""
    if hq.n_qubits % 2 or hq.n_qubits > 24:
        raise FciError("oracle supports even registers up to 24 qubits")
    n_orb = hq.n_qubits // 2
    n_up, n_dn = n_elec / 2 + sz, n_elec / 2 - sz
    if n_up != int(n_up) or n_dn != int(n_dn):
        raise FciError(f"no ({n_elec}, {sz}) sector exists")
    n_up, n_dn = int(n_up), int(n_dn)
    if not (0 <= n_up <= n_orb and 0 <= n_dn <= n_orb):
        raise FciError(f"sector ({n_elec}, {sz}) is empty")
    dets = _sector_determinants(n_orb, n_up, n_dn)
    if len(dets) > _DENSE_CUTOFF:
        return FciResult(_lanczos_ground_energy(hq, dets), (n_elec, sz))
    mat = _dense_sector_matrix(hq, dets)
    blocks = _spin_flip_blocks(mat, dets) if n_up == n_dn else [mat]
    energy = min(float(np.linalg.eigvalsh(b)[0]) for b in blocks if len(b))
    return FciResult(energy, (n_elec, sz))
