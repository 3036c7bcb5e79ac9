"""Independent dense-matrix oracles used by the test suite.

Everything here is built directly from 2x2 matrices with numpy.kron and
never calls into the package's operator algebra, so it can serve as an
independent reference for it.  The exceptions are the direct term-by-term
loops that the package's fast paths replace, kept as references that must
agree with them exactly unless a tolerance is named: ``DictSectorTable``
(``taper.SectorHamiltonian``, with ``per_gate_conjugate`` on the circuit
``algebra.tapering_clifford`` for ``taper.taper_words``, the one statement
of the tapered layout, and
``left_factor_element`` for its table of bra-ket factors),
``bitwise_taper`` (``csfbasis.make_csf_tapered``'s reading of
``taper.taper_words``), ``term_by_term_apply`` and ``dense_gather_apply`` (the whole-register
pass that ``simulator.apply_pauli_sum``'s support pass replaced),
``product_by_product_jordan_wigner`` (``fermion.jordan_wigner``),
``copy_per_rotation`` (``csfbasis.rotate_pair_inplace``),
``coo_csr_sector_matrix`` (``fci``'s dense sector assembly),
``dense_matrix`` (``SubspaceEngine.apply_xop``'s dense operators),
``support_matrix`` (``CsfElementEngine.matrix`` and the ``--no-taper``
ablation, to 1e-12),
``whole_sector_energy`` (``fci.fci_oracle``'s spin-flip blocks, to 1e-10 Ha),
``dense_branch_sampler`` and ``per_state_sampler`` (the per-generator
branching that ``simulator.FragmentSampler``'s coset transform replaced:
the same outcomes and values, probabilities, means and variances to
1e-14),
``per_element_plan`` (``SubspaceEngine.sampling_plan``, with
``per_state_sampler``), ``vdot_element`` (``CsfElementEngine.matrix``, one
element and one applied ket at a time, to 1e-12), ``per_state_variance`` (the moments a fragment's
outcome distribution must reproduce, to 1e-10),
``distinct_values`` (one row of ``simulator.draw_table``),
``reference_sorted_insertion`` (``measure.sorted_insertion``, whose
fragments ``reconstruct`` sums back to the source operator),
``reference_build_swap_operator`` and ``reference_shift_constant`` (the
dict walks that ``measure``'s array swap-test operators replaced),
``tensordot_trig_family`` (``solver._TrigFamily``'s product) and
``golden_section_line_search`` (``solver._periodic_line_search``, which
need only match or beat it).  The operators that only tests use,
``jw_ladder``, ``jw_operator``, ``spin_orbital``, ``number_operator``,
``sz_operator``, ``spin_squared_operator``, ``total_seniority_operator``,
``hf_energy`` and ``chop_imag``, are built with ``algebra.PauliSum``, the
tests' exact dict algebra; ``as_arrays`` hands one to the program, whose
operators are ``PauliArrays``, and ``as_sum`` reads one of those back.  Qubit q
corresponds to bit q of the basis index (little endian), i.e. the kron
chain runs from the highest qubit on the left down to qubit 0 on the right.
"""

import math

import numpy as np

from algebra import PauliProduct, PauliSum
from senqse.pauli import DROP_TOL

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MAT = {"I": I2, "X": X, "Y": Y, "Z": Z}

LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1| = annihilation


def as_arrays(op):
    """A ``PauliSum`` as the program's ``PauliArrays``, terms in order."""
    from senqse.pauli import PauliArrays
    from senqse.simulator import _term_arrays

    return PauliArrays(op.n_qubits, *_term_arrays(op.items()))


def as_sum(op):
    """A ``PauliArrays`` as a ``PauliSum``, terms in order."""
    return PauliSum(op.n_qubits, dict(op.items()))


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
    """Dense matrix of a package PauliSum or PauliArrays, term by term."""
    dim = 2**s.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for (x, z), c in s.items():
        out += c * product_matrix(PauliProduct(s.n_qubits, x, z))
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
    """Dense unitary of an ``algebra.CliffordMap`` (gates act in list order),
    such as ``algebra.tapering_clifford``, the circuit of ``taper.taper_words``."""
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
    if n_terms > 4**n_qubits:
        raise ValueError(f"{n_qubits} qubits have only {4**n_qubits} distinct products")
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


def per_gate_conjugate(cmap, p):
    """U p U^dagger by per-gate updates of one product's bits (the scalar
    rule that ``algebra.CliffordMap.conjugate_words`` applies to arrays of
    words, and that ``taper.taper_words`` states in closed form for the
    tapering circuit)."""
    x, z, ph = p.x_bits, p.z_bits, p.phase_exp
    for g in cmap.gates:
        if g[0] == "cnot":
            _, c, t = g
            xc = (x >> c) & 1
            zt = (z >> t) & 1
            if xc & zt & (((x >> t) ^ (z >> c) ^ 1) & 1):
                ph += 2
            if xc:
                x ^= 1 << t
            if zt:
                z ^= 1 << c
        else:
            perm = g[1]
            x = sum(1 << perm[q] for q in range(cmap.n_qubits) if x >> q & 1)
            z = sum(1 << perm[q] for q in range(cmap.n_qubits) if z >> q & 1)
    return PauliProduct(cmap.n_qubits, x, z, ph % 4)


def config_mask(v):
    """Bit mask of a 0/1 sequence: bit i is v[i]."""
    return sum(int(b) << i for i, b in enumerate(v))


def bitwise_taper(dets, n_orb):
    """Bitwise taper of a determinant dictionary (``csfbasis.make_csf_tapered``'s
    reference): orbital i's seniority is up XOR down and tapered qubit i
    carries its down-spin occupation.  Returns (set of config masks, dense
    n_orb-qubit amplitudes)."""
    amps = np.zeros(2**n_orb, dtype=complex)
    configs = set()
    for occ, amp in dets.items():
        v = c = 0
        for i in range(n_orb):
            up = (occ >> (2 * i)) & 1
            dn = (occ >> (2 * i + 1)) & 1
            v |= (up ^ dn) << i
            c |= dn << i
        configs.add(v)
        amps[c] += amp
    return configs, amps


def left_factor_element(x_left, z_left, bra_bits, ket_bits):
    """<v| P |w> for a phase-free product on the seniority register.

    Nonzero iff x equals v XOR w; the value i^{y_count} (-1)^{popcount(z&w)}
    is one of {+-1, +-i}.
    """
    if x_left != bra_bits ^ ket_bits:
        return 0.0
    val = (1j) ** ((x_left & z_left).bit_count() % 4)
    if (z_left & ket_bits).bit_count() % 2:
        val = -val
    return val


class DictSectorTable:
    """The sector table built in dicts (``taper.SectorHamiltonian``'s
    reference): each term of hq conjugated on its own and kept, in hq
    order, in the bucket of its seniority-register X part; ``op`` adds
    each term of one bucket, weighted by ``left_factor_element``, into a
    ``PauliSum`` and simplifies it, memoised per pair."""

    def __init__(self, hq, uc):
        n_orb = hq.n_qubits // 2
        mask = (1 << n_orb) - 1
        self.n_orb = n_orb
        self._buckets = {}
        for (x, z), c in hq.items():
            p = per_gate_conjugate(uc, PauliProduct(2 * n_orb, x, z))
            self._buckets.setdefault(p.x_bits & mask, []).append(
                (p.z_bits & mask, p.x_bits >> n_orb, p.z_bits >> n_orb, c * p.phase)
            )
        self._ops = {}

    def op(self, bra_bits, ket_bits):
        key = (bra_bits, ket_bits)
        if key not in self._ops:
            x_left = bra_bits ^ ket_bits
            out = PauliSum(self.n_orb)
            for z_left, x_right, z_right, coeff in self._buckets.get(x_left, ()):
                factor = left_factor_element(x_left, z_left, bra_bits, ket_bits)
                out.add_term(x_right, z_right, coeff * factor)
            self._ops[key] = out.simplify(DROP_TOL)
        return self._ops[key]


def term_by_term_apply(amps, n_qubits, op):
    """op|amps> accumulated one term at a time in item order.

    Term c P(x, z) sends amplitude i to index i ^ x with weight
    c i^|x & z| (-1)^|z & i|.
    """
    idx = np.arange(2**n_qubits, dtype=np.uint64)
    out = np.zeros_like(amps)
    for (x, z), c in op.items():
        factor = c * (1j) ** ((x & z).bit_count() % 4)
        parity = 1.0 - 2.0 * (
            np.bitwise_count(idx & np.uint64(z)) & np.uint64(1)
        ).astype(float)
        out[idx ^ np.uint64(x)] += factor * parity * amps
    return out


def dense_gather_apply(amps, n_qubits, op, block_amplitudes=2**16):
    """op|amps> as one gather and one in-order sum per block of terms.

    ``amps`` is one state or a stack of states along its leading axis.
    Each block gathers its terms' signed source rows j ^ x over the whole
    register into a (terms x 2**n) block per state, adds the running sum
    into the first row and reduces over the term axis, which adds the rows
    in order, so every output amplitude is summed from zero in
    ``op.items()`` order.
    """
    items = list(op.items())
    index = np.arange(2**n_qubits, dtype=np.uint64)
    out = np.zeros(amps.shape, dtype=complex)
    step = max(1, block_amplitudes // amps.size)
    for start in range(0, len(items), step):
        block = items[start : start + step]
        keys = np.array([key for key, _ in block], dtype=np.uint64).reshape(-1, 2)
        src = index ^ keys[:, :1]
        signs = np.bitwise_count(src & keys[:, 1:]) & np.uint64(1)
        factors = np.array(
            [c * (1j) ** ((x & z).bit_count() % 4) for (x, z), c in block],
            dtype=complex,
        )
        coef = factors[:, None] * (1.0 - 2.0 * signs.astype(float))
        # C order, terms before amplitudes, so the reduce runs row by row
        rows = np.take(amps, src, axis=-1)
        np.multiply(coef, rows, out=rows)
        np.add(out, rows[..., 0, :], out=rows[..., 0, :])
        out = np.add.reduce(rows, axis=-2)
    return out


def copy_per_rotation(amps, rotations):
    """amps after each (r, s, theta) in turn, on a fresh copy per rotation.

    Amplitude i with qubit r at 0 and qubit s at 1 and its partner j (both
    bits flipped) become cos 2theta a_i - sin 2theta a_j and sin 2theta a_i
    + cos 2theta a_j.
    """
    idx = np.arange(len(amps))
    for r, s, theta in rotations:
        i_idx = idx[((idx >> r) & 1 == 0) & ((idx >> s) & 1 == 1)]
        j_idx = i_idx ^ ((1 << r) | (1 << s))
        c, sn = math.cos(2.0 * theta), math.sin(2.0 * theta)
        amps = amps.copy()
        ai, aj = amps[i_idx], amps[j_idx]
        amps[i_idx] = c * ai - sn * aj
        amps[j_idx] = sn * ai + c * aj
    return amps


def sector_triples(hq, dets):
    """(rows, cols, values) of hq on the sorted determinants, every term's
    hits concatenated in term order, duplicates unsummed."""
    dim = len(dets)
    rows, cols, vals = [], [], []
    for (x, z), c in hq.items():
        targets = dets ^ np.uint64(x)
        pos = np.searchsorted(dets, targets)
        ok = pos < dim
        ok[ok] &= dets[pos[ok]] == targets[ok]
        signs = 1.0 - 2.0 * (
            np.bitwise_count(dets[ok] & np.uint64(z)) & np.uint64(1)
        ).astype(float)
        rows.append(pos[ok])
        cols.append(np.flatnonzero(ok))
        vals.append(c * (1j) ** ((x & z).bit_count() % 4) * signs)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals).real


def support_matrix(hq, images):
    """<a|hq|b> of the real full-register images (rows of ``images``), with
    hq assembled term by term (``one_add_at_sector_matrix``) on the
    determinants where some image is nonzero."""
    dets = np.flatnonzero(np.any(images != 0, axis=0))
    h = one_add_at_sector_matrix(hq, dets.astype(np.uint64))
    return images[:, dets] @ h @ images[:, dets].T


def dense_matrix(op):
    """Dense complex matrix of a PauliArrays on its whole register, each
    term's entries added in term order: the matrix whose real part the
    slot models' dense operators (``taper.SupportOperator.dense`` over
    every index) equal bit for bit."""
    dim = 2**op.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim, dtype=np.uint64)
    for (x, z), c in op.items():
        cols = rows ^ np.uint64(x)
        signs = np.bitwise_count(cols & np.uint64(z)) & np.uint64(1)
        out[rows, cols] += c * (1j) ** ((x & z).bit_count() % 4) * (1.0 - 2.0 * signs)
    return out


def coo_csr_sector_matrix(hq, dets):
    """hq on the sorted determinants as a SciPy CSR matrix, via COO.

    Duplicates are summed by SciPy's COO to CSR conversion.
    """
    import scipy.sparse

    rows, cols, vals = sector_triples(hq, dets)
    dim = len(dets)
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()


def one_add_at_sector_matrix(hq, dets):
    """hq on the sorted determinants as a dense array, from one ``np.add.at``
    over every term's entries, concatenated in term order."""
    mat = np.zeros((len(dets), len(dets)))
    rows, cols, vals = sector_triples(hq, dets)
    np.add.at(mat, (rows, cols), vals)
    return mat


def spin_flip(dets):
    """Index of each sorted determinant's spin flip, and the flip's sign.

    The flip swaps the up (2p) and down (2p + 1) spin orbital of every
    orbital p; the sign is the parity of the permutation that sorts the
    flipped occupied spin orbitals, counted by inversions.
    """
    index = {int(d): i for i, d in enumerate(dets)}
    flip, sign = [], []
    for d in map(int, dets):
        occ = [q ^ 1 for q in range(d.bit_length()) if d >> q & 1]
        inversions = sum(a > b for i, a in enumerate(occ) for b in occ[i + 1 :])
        flip.append(index[sum(1 << q for q in occ)])
        sign.append(-1.0 if inversions % 2 else 1.0)
    return np.array(flip), np.array(sign)


def whole_sector_energy(hq, n_up, n_dn):
    """Lowest eigenvalue of hq on its (n_up, n_dn) determinants by ``eigh`` of
    the whole dense sector matrix: the path that ``fci.fci_oracle``'s
    spin-flip blocks and ``eigvalsh`` replaced.  The determinants are every
    register index with n_up even and n_dn odd bits set, in index order."""
    even = sum(1 << q for q in range(0, hq.n_qubits, 2))
    dets = np.array(
        [
            b
            for b in range(1 << hq.n_qubits)
            if (b & even).bit_count() == n_up and (b & ~even).bit_count() == n_dn
        ],
        dtype=np.uint64,
    )
    return float(np.linalg.eigh(one_add_at_sector_matrix(hq, dets))[0][0])


def jw_ladder(mode: int, dagger: bool, n_modes: int):
    """Jordan-Wigner image of a single ladder operator on `mode`.

    a_p   = Z_0..Z_{p-1} (X_p + iY_p)/2
    a_p^+ = Z_0..Z_{p-1} (X_p - iY_p)/2
    """
    zstring = (1 << mode) - 1
    out = PauliSum(n_modes)
    out.add_term(1 << mode, zstring, 0.5)
    p = PauliProduct(n_modes, 1 << mode, zstring | (1 << mode))
    sign = -1j if dagger else 1j
    out.add_term(p.x_bits, p.z_bits, 0.5 * sign * p.phase)
    return out


def jw_operator(ops, n_modes: int, coeff: complex = 1.0):
    """JW image of coeff * prod of ladder ops, leftmost first.

    `ops` is a sequence of (mode, dagger) pairs in operator order, e.g.
    [(p, True), (q, False)] for a_p^+ a_q.
    """
    out = PauliSum(n_modes, {(0, 0): coeff})
    for mode, dagger in ops:
        out = out * jw_ladder(mode, dagger, n_modes)
    return out


def spin_orbital(p: int, spin: int) -> int:
    """Qubit index of spatial orbital p with spin 0 (up) or 1 (down)."""
    return 2 * p + spin


def number_operator(n_orb: int):
    """Total electron number N = sum_q (1 - Z_q)/2 on 2*n_orb qubits."""
    nq = 2 * n_orb
    out = PauliSum(nq, {(0, 0): nq / 2})
    for q in range(nq):
        out.add_term(0, 1 << q, -0.5)
    return out


def sz_operator(n_orb: int):
    """S_z = (N_up - N_down)/2 on 2*n_orb qubits."""
    out = PauliSum(2 * n_orb)
    for p in range(n_orb):
        out.add_term(0, 1 << (2 * p), -0.25)
        out.add_term(0, 1 << (2 * p + 1), 0.25)
    return out


def spin_squared_operator(n_orb: int):
    """S^2 = S-S+ + Sz(Sz + 1) on 2*n_orb qubits."""
    nq = 2 * n_orb
    splus = PauliSum(nq)
    for p in range(n_orb):
        splus = splus + jw_operator(
            [(spin_orbital(p, 0), True), (spin_orbital(p, 1), False)], nq
        )
    sminus = PauliSum(nq)
    for p in range(n_orb):
        sminus = sminus + jw_operator(
            [(spin_orbital(p, 1), True), (spin_orbital(p, 0), False)], nq
        )
    sz = sz_operator(n_orb)
    one = PauliSum(nq, {(0, 0): 1.0})
    return chop_imag((sminus * splus + sz * (sz + one)).simplify())


def total_seniority_operator(n_orb: int):
    """Number of unpaired electrons: sum_i (1 - Z_2i Z_2i+1)/2."""
    out = PauliSum(2 * n_orb, {(0, 0): n_orb / 2})
    for i in range(n_orb):
        out.add_term(0, (1 << (2 * i)) | (1 << (2 * i + 1)), -0.5)
    return out


def hf_energy(ints) -> float:
    """Closed-shell determinant energy from the stored integrals."""
    occ = range(ints.n_occ)
    e = ints.e_core + 2.0 * sum(ints.h[i, i] for i in occ)
    for i in occ:
        for j in occ:
            e += 2.0 * ints.g[i, i, j, j] - ints.g[i, j, j, i]
    return float(e)


def product_by_product_jordan_wigner(ints, tol):
    """Qubit Hamiltonian summed term by term from ladder-operator products.

    The same integral order and coefficient arithmetic as
    ``fermion.jordan_wigner``, with every product taken by
    ``PauliSum.__mul__`` and every term added by ``PauliSum.__add__``.
    """
    nq = 2 * ints.n_orb

    def operator(ops, coeff):
        out = PauliSum(nq, {(0, 0): coeff})
        for mode, dagger in ops:
            out = out * jw_ladder(mode, dagger, nq)
        return out

    total = PauliSum(nq, {(0, 0): complex(ints.e_core)})
    # Python ints: a NumPy mode index would wrap 1 << 63 on a 64-qubit register
    for p, q in zip(*(i.tolist() for i in np.nonzero(np.abs(ints.h) > 0))):
        for s in (0, 1):
            total = total + operator([(2 * p + s, True), (2 * q + s, False)], ints.h[p, q])
    for p, q, r, s in zip(*(i.tolist() for i in np.nonzero(np.abs(ints.g) > 0))):
        gv = 0.5 * ints.g[p, q, r, s]
        for sig in (0, 1):
            for tau in (0, 1):
                if sig == tau and (p == r or q == s):
                    continue
                ops = [
                    (2 * p + sig, True),
                    (2 * r + tau, True),
                    (2 * s + tau, False),
                    (2 * q + sig, False),
                ]
                total = total + operator(ops, gv)
    return chop_imag(total.simplify(tol), tol)


def chop_imag(op, tol=1e-12):
    """op with imaginary coefficient parts below tol cleared, term by term:
    the clean-up that ``fermion.jordan_wigner`` applies to its sums."""
    out = {k: complex(c.real, 0.0) if abs(c.imag) < tol else c for k, c in op.items()}
    return PauliSum(op.n_qubits, out)


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


def dense_branch_sampler(state, fragment):
    """A fragment's outcome distribution from full-register branch vectors.

    The fragment's terms are walked in order; each term that GF(2)
    elimination on x | z << n finds independent of those before it becomes
    a generator, and every other term is eta times the product of the
    generators its elimination used, eta read from the phase of a
    ``PauliProduct.mul`` chain.  The state is split on each generator g in
    turn into (B + gB)/2 and (B - gB)/2 over all 2**n amplitudes, and
    branches of probability at or below 1e-15 are dropped.  Returns values,
    probs, mean and variance as ``FragmentSampler`` defines them.
    """
    from types import SimpleNamespace

    n = fragment.n_qubits
    gens, rows, masks, coeffs = [], [], [], []
    for (x, z), c in fragment.items():
        vec, mask = x | (z << n), 0
        for row, pivot, combo in rows:
            if vec >> pivot & 1:
                vec ^= row
                mask ^= combo
        if vec:
            term = PauliProduct(n, x, z)
            for g in gens:
                if not term.commutes(g):
                    raise ValueError(f"{g.label()} and {term.label()} do not commute")
            rows.append((vec, vec.bit_length() - 1, mask | 1 << len(gens)))
            mask, eta = 1 << len(gens), 1.0
            gens.append(term)
        else:
            prod = PauliProduct.identity(n)
            for i, g in enumerate(gens):
                if mask >> i & 1:
                    prod = prod.mul(g)
            eta = prod.phase.real
        masks.append(mask)
        coeffs.append(eta * c.real)
    idx = np.arange(2**n, dtype=np.uint64)
    branches = state.amplitudes[None, :]
    outcomes = np.zeros(1, dtype=np.int64)
    probs = np.ones(1)
    for i, g in enumerate(gens):
        src = idx ^ np.uint64(g.x_bits)
        signs = np.bitwise_count(src & np.uint64(g.z_bits)) & np.uint64(1)
        factor = np.array([1.0 * (1j) ** ((g.x_bits & g.z_bits).bit_count() % 4)])
        flipped = (factor[:, None] * (1.0 - 2.0 * signs.astype(float)))[0] * branches[
            :, src
        ]
        branches = 0.5 * np.concatenate([branches + flipped, branches - flipped])
        outcomes = np.concatenate([outcomes, outcomes | 1 << i])
        probs = np.einsum("ij,ij->i", branches.conj(), branches).real
        live = probs > 1e-15
        branches, outcomes, probs = branches[live], outcomes[live], probs[live]
    signs = np.bitwise_count(outcomes[:, None] & np.array(masks, dtype=np.int64)) & 1
    values = (1.0 - 2.0 * signs) @ np.array(coeffs)
    probs = probs / probs.sum()
    mean = float(values @ probs)
    return SimpleNamespace(
        values=values,
        probs=probs,
        mean=mean,
        variance=float((values - mean) ** 2 @ probs),
    )


def per_state_sampler(state, fragment):
    """A fragment's outcome distribution on one state, branched on its orbit.

    Elimination and eta phases as ``dense_branch_sampler``, branches kept
    on the orbit of this state's support under the generators' X flips.
    Returns values, probs, mean and variance, and the outcomes (bit i set
    when generator i reads -1) with the eliminated masks and coefficients
    that give the values.
    """
    from types import SimpleNamespace

    from senqse.simulator import _product_sign, _term_arrays, _term_table

    n = fragment.n_qubits
    gens, rows, masks, coeffs = [], [], [], []
    for (x, z), c in fragment.items():
        vec, mask = x | (z << n), 0
        for row, pivot, combo in rows:
            if vec >> pivot & 1:
                vec ^= row
                mask ^= combo
        if vec:
            rows.append((vec, vec.bit_length() - 1, mask | 1 << len(gens)))
            mask, eta = 1 << len(gens), 1.0
            gens.append((x, z))
        else:
            eta = _product_sign(gens, mask)
        masks.append(mask)
        coeffs.append(eta * c.real)
    index = np.arange(2**n, dtype=np.uint64)
    inside = state.amplitudes != 0
    for x, _ in gens:
        inside |= inside[index ^ np.uint64(x)]
    orbit = index[inside]
    pos = np.zeros(len(index), dtype=np.intp)
    pos[orbit] = np.arange(len(orbit))
    src, coef = _term_table(*_term_arrays([(g, 1.0) for g in gens]), orbit)
    cols = pos[src]
    branches = state.amplitudes[orbit][None, :]
    outcomes = np.zeros(1, dtype=np.int64)
    probs = np.ones(1)
    for i in range(len(gens)):
        flipped = coef[i] * branches[:, cols[i]]
        branches = 0.5 * np.concatenate([branches + flipped, branches - flipped])
        outcomes = np.concatenate([outcomes, outcomes | 1 << i])
        probs = np.einsum("ij,ij->i", branches.conj(), branches).real
        live = probs > 1e-15
        branches, outcomes, probs = branches[live], outcomes[live], probs[live]
    masks, coeffs = np.array(masks, dtype=np.int64), np.array(coeffs)
    signs = np.bitwise_count(outcomes[:, None] & masks) & 1
    values = (1.0 - 2.0 * signs) @ coeffs
    probs = probs / probs.sum()
    mean = float(values @ probs)
    return SimpleNamespace(
        values=values,
        probs=probs,
        mean=mean,
        variance=float((values - mean) ** 2 @ probs),
        outcomes=outcomes,
        masks=masks,
        coeffs=coeffs,
    )


def distinct_values(probs, values):
    """(probs, values) of the distinct values of one outcome distribution,
    the most likely first: ``np.unique``, each value's probability summed
    in outcome order by ``np.bincount``, then a stable sort by decreasing
    probability.  The row-by-row rule that ``simulator.draw_table`` applies
    to all rows at once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    merged = np.bincount(inverse, weights=probs)
    order = np.argsort(-merged, kind="stable")
    return merged[order], distinct[order]


def per_state_variance(state, fragment):
    """<F^2> - <F>^2 on one state, F applied by ``term_by_term_apply``."""
    f_psi = term_by_term_apply(state.amplitudes, state.n_qubits, fragment)
    mean = np.vdot(state.amplitudes, f_psi)
    var = np.vdot(f_psi, f_psi).real - mean.real**2
    return max(var, 0.0)


def per_element_plan(engine):
    """The sampling plan built one element and one fragment at a time.

    Each non-classical element (mu <= nu, in order) builds its own
    operator, swap-test or diagonal, with a same-config constant shift
    reading ``element_exact`` afresh, sorts it into fragments, and measures
    each fragment with one ``per_state_sampler``, its deviation the square
    root of one ``FragmentSampler``'s outcome variance on that state alone.
    Returns {element: (samplers, sigmas)}, the layout of
    ``SubspaceEngine.sampling_plan``.
    """
    from senqse.measure import build_swap_operator, shift_constant, sorted_insertion
    from senqse.simulator import FragmentSampler, prepare_swap_state

    plan = {}
    for mu in range(engine.size):
        for nu in range(mu, engine.size):
            if engine.is_classical(mu, nu):
                continue
            if mu == nu:
                state, op = engine.state(mu), engine.xop(mu, mu)
            else:
                swap = build_swap_operator(engine.xop(mu, nu))
                if engine.constant_shift and engine.config(mu) == engine.config(nu):
                    swap = shift_constant(
                        swap, engine.element_exact(mu, mu), engine.element_exact(nu, nu)
                    )
                state = prepare_swap_state(engine.state(mu), engine.state(nu))
                op = swap.op
            frags = sorted_insertion(op)
            plan[mu, nu] = (
                [per_state_sampler(state, f) for f in frags],
                [np.sqrt(FragmentSampler(state, f).variance) for f in frags],
            )
    return plan


def vdot_element(kernel, bra_bits, bra, ket_bits, ket) -> float:
    """One exact element on its own: 0.0 when no term links the two
    configs, else the real part of the vdot of the bra amplitudes with the
    config pair's operator (``kernel.xop``) applied to the ket alone."""
    from senqse.simulator import apply_pauli_sum

    op = kernel.xop(bra_bits, ket_bits)
    if not op:
        return 0.0
    return float(np.vdot(bra, apply_pauli_sum(ket, op)).real)


def reconstruct(fragments):
    """The sum of a nonempty fragment tuple, added fragment by fragment."""
    total = PauliSum(fragments[0].n_qubits)
    for frag in fragments:
        total = total + as_sum(frag)
    return total


def reference_sorted_insertion(op):
    """Sorted-insertion grouping by pairwise ``PauliProduct.commutes`` checks.

    Terms in decreasing coefficient magnitude, ties on the symplectic key;
    each joins the first fragment all of whose members it commutes with, or
    opens a new one.  Returns the fragments as lists of ((x, z), c).
    """
    n = op.n_qubits
    ordered = sorted(op.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    fragments, members = [], []
    for (xb, zb), c in ordered:
        p = PauliProduct(n, xb, zb)
        for frag, mem in zip(fragments, members):
            if all(p.commutes(q) for q in mem):
                frag.append(((xb, zb), c))
                mem.append(p)
                break
        else:
            fragments.append([((xb, zb), c)])
            members.append([p])
    return fragments


def reference_build_swap_operator(op):
    """``measure.build_swap_operator`` as one ``PauliSum.add_term`` per
    term of ``op`` and a ``simplify``: x (x) P with the real part, or
    y (x) P with minus the imaginary part."""
    from senqse.measure import MIXED_COEFF_TOL, MeasureError, SwapTestOperator

    n = op.n_qubits
    anc = 1 << n
    out = PauliSum(n + 1)
    c_x = 0.0
    for (xb, zb), c in op.items():
        scale = max(1.0, abs(c))
        if abs(c.imag) <= MIXED_COEFF_TOL * scale:
            out.add_term(xb | anc, zb, c.real)
            if xb == 0 and zb == 0:
                c_x = c.real
        elif abs(c.real) <= MIXED_COEFF_TOL * scale:
            out.add_term(xb | anc, zb | anc, -c.imag)
        else:
            raise MeasureError(f"coefficient {c} is neither real nor imaginary")
    return SwapTestOperator(op=out.simplify(DROP_TOL), c_x=c_x)


def reference_shift_constant(s, h_mm, h_nn):
    """``measure.shift_constant`` on a ``PauliSum`` swap operator: a copy,
    one ``add_term`` on x (x) 1 and a ``simplify``."""
    from senqse.measure import SwapTestOperator

    new_cx = s.c_x - 0.5 * (h_mm + h_nn)
    op = s.op.copy()
    op.add_term(1 << s.ancilla, 0, new_cx - s.c_x)
    return SwapTestOperator(op=op.simplify(DROP_TOL), c_x=new_cx)


def tensordot_trig_family(fourier, coeffs):
    """sum_q fourier[..., q] coeffs[q], by np.tensordot."""
    return np.tensordot(fourier, coeffs, axes=1)


def golden_section_line_search(f, th0, e0, xtol=1e-10):
    """Minimum of a pi-periodic f near th0 from function values alone.

    An 8-point grid over one period (th0 itself valued e0), then a golden
    section to xtol in the +-pi/8 bracket of the best grid point; returns
    the best point seen, so never worse than e0.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    grid = [th0 + k * np.pi / 8.0 for k in range(-4, 4)]
    values = [f(t) if abs(t - th0) > 1e-15 else e0 for t in grid]
    k_best = int(np.argmin(values))
    a, b = grid[k_best] - np.pi / 8.0, grid[k_best] + np.pi / 8.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    best = (c, fc) if fc <= fd else (d, fd)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
            if fc < best[1]:
                best = (c, fc)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
            if fd < best[1]:
                best = (d, fd)
    if best[1] <= values[k_best]:
        return float(best[0]), float(best[1])
    return float(grid[k_best]), float(values[k_best])
