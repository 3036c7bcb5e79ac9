"""Independent dense-matrix oracles used by the test suite.

Everything here is built directly from 2x2 matrices with numpy.kron and
never calls into the package's operator algebra, so it can serve as an
independent reference for it; the one exception, ``term_by_term_effective_op``,
is the direct per-pair projection that the sector table replaces.  Qubit q
corresponds to bit q of the basis index (little endian), i.e. the kron
chain runs from the highest qubit on the left down to qubit 0 on the right.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MAT = {"I": I2, "X": X, "Y": Y, "Z": Z}

LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1| = annihilation


def kron_chain(single_qubit_mats):
    """Tensor a list indexed by qubit (entry 0 = qubit 0) into a dense matrix."""
    out = np.eye(1, dtype=complex)
    for m in single_qubit_mats:
        out = np.kron(m, out)
    return out


def pauli_matrix(label, n_qubits):
    """Dense matrix for a label like "X0 Z2"; "I" is the identity."""
    mats = [I2] * n_qubits
    if label.strip() != "I":
        for tok in label.split():
            mats[int(tok[1:])] = MAT[tok[0]]
    return kron_chain(mats)


def pauli_sum_matrix(pairs, n_qubits):
    """Dense matrix for [(label, coeff), ...]."""
    dim = 2**n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for label, coeff in pairs:
        out += coeff * pauli_matrix(label, n_qubits)
    return out


def product_matrix(p):
    """Dense matrix of a package PauliProduct, via its label and phase only."""
    return p.phase * pauli_matrix(p.label(), p.n_qubits)


def sum_matrix(s):
    """Dense matrix of a package PauliSum, term by term."""
    dim = 2**s.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for p, c in s:
        out += c * product_matrix(p)
    return out


def annihilation_matrix(mode, n_modes):
    """Dense Jordan-Wigner annihilation operator with Z string below `mode`."""
    mats = [Z] * mode + [LOWER] + [I2] * (n_modes - mode - 1)
    return kron_chain(mats)


def creation_matrix(mode, n_modes):
    return annihilation_matrix(mode, n_modes).conj().T


def cnot_matrix(control, target, n_qubits):
    dim = 2**n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (((i >> control) & 1) << target)
        out[j, i] = 1.0
    return out


def permutation_matrix(perm, n_qubits):
    dim = 2**n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = 0
        for q in range(n_qubits):
            j |= ((i >> q) & 1) << perm[q]
        out[j, i] = 1.0
    return out


def clifford_matrix(cmap):
    """Dense unitary of a package CliffordMap (gates act in list order)."""
    dim = 2**cmap.n_qubits
    out = np.eye(dim, dtype=complex)
    for g in cmap.gates:
        if g[0] == "cnot":
            out = cnot_matrix(g[1], g[2], cmap.n_qubits) @ out
        else:
            out = permutation_matrix(g[1], cmap.n_qubits) @ out
    return out


def dense_hamiltonian(ints):
    """Dense many-body Hamiltonian on 2*n_orb modes, built from ladder matrices.

    Interleaved convention: spatial orbital p with spin s sits on mode 2p+s.
    """
    n = ints.n_orb
    nm = 2 * n
    dim = 2**nm
    a = [annihilation_matrix(m, nm) for m in range(nm)]
    ad = [m.conj().T for m in a]
    h = ints.e_core * np.eye(dim, dtype=complex)
    for p in range(n):
        for q in range(n):
            if ints.h[p, q] == 0.0:
                continue
            for s in (0, 1):
                h += ints.h[p, q] * ad[2 * p + s] @ a[2 * q + s]
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    if ints.g[p, q, r, s] == 0.0:
                        continue
                    for sig in (0, 1):
                        for tau in (0, 1):
                            h += (
                                0.5
                                * ints.g[p, q, r, s]
                                * ad[2 * p + sig]
                                @ ad[2 * r + tau]
                                @ a[2 * s + tau]
                                @ a[2 * q + sig]
                            )
    return h


def dense_orbital_rotation_unitary(t, n_orb):
    """Dense many-body image of exp(sum_pq t_pq E_pq) on 2*n_orb modes."""
    import scipy.linalg

    nm = 2 * n_orb
    a = [annihilation_matrix(m, nm) for m in range(nm)]
    ad = [m.conj().T for m in a]
    kappa = np.zeros((2**nm, 2**nm), dtype=complex)
    for p in range(n_orb):
        for q in range(n_orb):
            if t[p, q] == 0.0:
                continue
            for s in (0, 1):
                kappa += t[p, q] * ad[2 * p + s] @ a[2 * q + s]
    return scipy.linalg.expm(kappa)


def random_pauli_sum_pairs(rng, n_qubits, n_terms, real=True):
    """Random [(label, coeff), ...] with distinct products."""
    seen = set()
    pairs = []
    while len(pairs) < n_terms:
        letters = rng.choice(["I", "X", "Y", "Z"], size=n_qubits)
        label = " ".join(
            f"{letter}{q}" for q, letter in enumerate(letters) if letter != "I"
        )
        label = label or "I"
        if label in seen:
            continue
        seen.add(label)
        coeff = rng.normal()
        if not real:
            coeff = coeff + 1j * rng.normal()
        pairs.append((label, coeff))
    return pairs


def term_by_term_effective_op(hq, bra_bits, ket_bits, uc, tol):
    """Tapered operator of one (bra, ket) config pair, conjugating every term.

    Each term of hq goes through the tapering Clifford, its seniority-register
    part becomes a bra-ket factor and its remainder part is accumulated.
    """
    from senqse.pauli import PauliProduct, PauliSum
    from senqse.taper import left_factor_element

    n_orb = hq.n_qubits // 2
    mask = (1 << n_orb) - 1
    out = PauliSum(n_orb)
    for (x, z), c in hq.items():
        p = uc.conjugate(PauliProduct(2 * n_orb, x, z))
        factor = left_factor_element(p.x_bits & mask, p.z_bits & mask, bra_bits, ket_bits)
        if factor == 0.0:
            continue
        out.add_term(p.x_bits >> n_orb, p.z_bits >> n_orb, c * p.phase * factor)
    return out.simplify(tol)


def eigh_fragment_distribution(amplitudes, fragment):
    """Outcome values and probabilities of a commuting fragment, by dense eigh.

    The fragment's dense matrix is eigendecomposed and each eigenvalue is
    weighted by the state's squared overlap with its eigenvector; weights
    at or below 1e-15 are dropped and the rest normalised.
    """
    vals, vecs = np.linalg.eigh(sum_matrix(fragment))
    weights = np.abs(vecs.conj().T @ amplitudes) ** 2
    keep = weights > 1e-15
    return vals[keep], weights[keep] / weights[keep].sum()
