"""Sector-restricted FCI oracle: the exact energy the subspace is judged by.

hq is assembled on the sector's determinants by the package's one
assembly of a Pauli sum on basis indices, ``taper.SupportOperator``'s
``entries``, each entry summing its terms from +0 in ``hq`` order.  Up
to _DENSE_CUTOFF determinants only eigenvalues are taken, by NumPy
alone, and an Ms = 0 sector is solved as its even and odd spin-flip
blocks (the spin-combination basis of Olsen et al. 1988, J. Chem. Phys.
89, 2185); above it a sparse matrix of the same entries goes to SciPy's
Lanczos, imported only there."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from senqse.pauli import PauliArrays
from senqse.simulator import SimulatorError
from senqse.taper import SupportOperator

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


def _sector_determinants(n_orb: int, n_up: int, n_dn: int) -> np.ndarray:
    ups = list(itertools.combinations(range(n_orb), n_up))
    dns = list(itertools.combinations(range(n_orb), n_dn))
    dets = []
    for up in ups:
        up_bits = sum(1 << (2 * p) for p in up)
        for dn in dns:
            dets.append(up_bits | sum(1 << (2 * p + 1) for p in dn))
    return np.array(sorted(dets), dtype=np.uint64)


def _sector_entries(hq: PauliArrays, dets: np.ndarray):
    """(rows, cols, values) of hq on the sorted determinants, a chunk at a time.

    The chunks of ``SupportOperator.entries``: each entry sums its terms
    from +0 in ``hq`` order, and a term with an imaginary factor that
    reaches the sector is refused.  A chunk holds the mirror (j, i, x) of
    each of its entries, ordered by (X string, column), so one
    searchsorted finds it, and the chunk is checked against it before it
    is yielded.
    """
    try:
        for rows, cols, vals in SupportOperator(hq).entries(dets):
            key = (dets[rows] ^ dets[cols]).astype(np.int64) * len(dets) + cols
            mirror = vals[np.searchsorted(key, key - cols + rows)]
            asym = np.max(np.abs(vals - mirror), initial=0.0)
            del key, mirror
            if asym > 1e-9:
                raise FciError(f"sector matrix asymmetry {asym:.2e}")
            yield rows, cols, vals
    except SimulatorError as err:
        raise FciError("sector matrix has imaginary entries") from err


def _spin_flip_blocks(mat: np.ndarray, dets: np.ndarray, step: int) -> list:
    """The even and odd spin-flip blocks of an Ms = 0 sector matrix.

    The flip P swaps bits 2p and 2p + 1 of each orbital p, with the sign
    s_i = (-1)^(doubly occupied orbitals), the parity of reordering the
    spin orbitals.  Determinant i < f(i) gives (|i> +- s_i |f(i)>)/sqrt(2)
    to the parity +-1 block, a closed shell f(i) = i its own parity s_i.
    A matrix with max |PHP - H| above 1e-9 is refused, never solved whole;
    else block entry (i, j) is 2 n_i n_j (H_ij + parity s_j H_i,f(j)).
    Both take `step` rows of H at a time.
    """
    up, dn = dets & _UP_BITS, (dets >> np.uint64(1)) & _UP_BITS
    flip = np.searchsorted(dets, (up << np.uint64(1)) | dn)
    sign = 1.0 - 2.0 * (np.bitwise_count(up & dn) & np.uint64(1))
    coupling = 0.0
    for r in range(0, len(dets), step):
        php = mat[flip[r : r + step]].take(flip, axis=1) * sign[r : r + step, None] * sign
        coupling = max(coupling, float(np.max(np.abs(php - mat[r : r + step]))))
    if coupling > 1e-9:
        raise FciError(f"sector matrix breaks spin-flip symmetry by {coupling:.2e}")
    idx, blocks = np.arange(len(dets)), []
    for parity in (1.0, -1.0):
        keep = (idx < flip) | ((idx == flip) & (sign == parity))
        own, other, t = idx[keep], flip[keep], parity * sign[keep]
        norm = np.where(own == other, 0.5, np.sqrt(0.5))
        block = np.empty((len(own), len(own)))
        for r in range(0, len(own), step):
            h = mat[own[r : r + step]]
            scale = 2.0 * norm[r : r + step, None] * norm
            block[r : r + step] = (h.take(own, axis=1) + h.take(other, axis=1) * t) * scale
        blocks.append(block)
    return blocks


def _lanczos_ground_energy(hq: PauliArrays, dets: np.ndarray) -> float:
    """Lowest eigenvalue of hq on the sector by SciPy's sparse Lanczos."""
    import scipy.sparse
    import scipy.sparse.linalg

    rows, cols, vals = map(np.concatenate, zip(*_sector_entries(hq, dets)))
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(len(dets), len(dets)))
    # a fixed start vector: ARPACK's own is random, so the bits would vary
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, len(dets))
    w = scipy.sparse.linalg.eigsh(
        mat, k=1, which="SA", v0=v0, return_eigenvectors=False
    )
    return float(w[0])


def fci_oracle(hq: PauliArrays, n_elec: int, sz: float = 0.0) -> FciResult:
    """Lowest eigenvalue of hq in the fixed (N, S_z) determinant sector.

    Each spin must hold a whole number of electrons, 0 to n_orb: a
    half-integer count is not in ``range``, so one check refuses both.
    """
    if not hq:
        raise FciError("operator has no terms")
    if hq.n_qubits % 2 or hq.n_qubits > 24:
        raise FciError("oracle supports even registers up to 24 qubits")
    n_orb = hq.n_qubits // 2
    n_up, n_dn = n_elec / 2 + sz, n_elec / 2 - sz
    if n_up not in range(n_orb + 1) or n_dn not in range(n_orb + 1):
        raise FciError(f"no ({n_elec}, {sz}) sector on {n_orb} orbitals")
    n_up, n_dn = int(n_up), int(n_dn)
    dets = _sector_determinants(n_orb, n_up, n_dn)
    if len(dets) > _DENSE_CUTOFF:
        return FciResult(_lanczos_ground_energy(hq, dets))
    mat = np.zeros((len(dets), len(dets)))
    for rows, cols, vals in _sector_entries(hq, dets):
        mat[rows, cols] = vals
    blocks = _spin_flip_blocks(mat, dets, max(n_orb, 1)) if n_up == n_dn else [mat]
    del mat
    energy = min(float(np.linalg.eigvalsh(b)[0]) for b in blocks if len(b))
    return FciResult(energy)
