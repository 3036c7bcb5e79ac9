"""Seniority-labelled basis states and the VO / PT selection heuristics.

A basis state is a spin-adapted configuration state function (CSF) followed
by an ordered product of electron-pair rotations.  CSFs are built with
exact sparse determinant algebra (a map from occupation bitstrings to
amplitudes) so their Jordan-Wigner images, and therefore all phases, are
reproduced exactly; the tapered image is each determinant's image under
the tapering Clifford (``taper.taper_words``).

Selection proceeds in three steps: create all CSFs reachable with active
window excitations, trim against the ground eigenvector of that CSF-only
subspace, then grow each survivor with the pair excitations whose rank-one
subspace enlargement shifts the energy beyond a threshold.  VO turns those
pairs into variational rotation slots; PT folds internal pairs into new
CSFs and fixes external rotation amplitudes perturbatively.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from senqse.fermion import FermionIntegrals, mp2_pair_amplitude
from senqse.pauli import PauliArrays
from senqse.simulator import StateVector
from senqse.taper import (
    SectorHamiltonian,
    real_support,
    taper_words,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class BasisError(ValueError):
    """Invalid CSF specification or basis-state structure."""


class SelectionError(RuntimeError):
    """Basis selection produced an unusable set."""


class CsfKind(Enum):
    HF = "HF"
    SINGLE_SINGLET = "SINGLE_SINGLET"
    DOUBLE_SINGLET = "DOUBLE_SINGLET"
    TRIPLET_PAIR_SINGLET = "TRIPLET_PAIR_SINGLET"


def _net_moves(moves) -> tuple:
    """Canonical pair relocations: net occupation change of a move chain.

    Every valid application order of commuting pair moves produces the same
    state with sign +1, so only the set of emptied sources and filled
    destinations matters; transient orbitals cancel.
    """
    srcs = [int(s) for s, _ in moves]
    dsts = [int(d) for _, d in moves]
    for orb in sorted(set(srcs) & set(dsts)):
        while orb in srcs and orb in dsts:
            srcs.remove(orb)
            dsts.remove(orb)
    if len(set(srcs)) != len(srcs) or len(set(dsts)) != len(dsts):
        raise BasisError(f"pair moves {tuple(moves)} revisit an orbital")
    return tuple(zip(sorted(srcs), sorted(dsts)))


_KIND_INDICES = {
    CsfKind.HF: 0,
    CsfKind.SINGLE_SINGLET: 2,
    CsfKind.DOUBLE_SINGLET: 4,
    CsfKind.TRIPLET_PAIR_SINGLET: 4,
}


@dataclass(frozen=True)
class CsfSpec:
    """A CSF family member plus optional folded-in pair relocations.

    ``indices`` are HF-relative: (i, a) for one open-shell singlet pair or
    (i, j, a, b) for the double-excitation singlets, with i, j occupied and
    a, b virtual.  The double-excitation family admits degenerate index
    pairs: i == j empties one orbital and leaves the open-shell pair on
    (a, b); a == b fills one virtual and leaves it on (i, j).  Both are
    two-unpaired-electron singlets.  The triplet-pair member needs four
    distinct orbitals.  ``pair_moves`` relocate whole electron pairs
    (src, dst) and never touch the singly occupied orbitals.
    """

    kind: CsfKind
    indices: tuple = ()
    pair_moves: tuple = ()
    # the fields' hash, taken once; a pickled spec is rebuilt, so it
    # carries the hash of the process that loads it
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(q) for q in self.indices))
        if len(self.indices) != _KIND_INDICES[self.kind]:
            raise BasisError(f"{self.kind.value} needs {_KIND_INDICES[self.kind]} indices")
        if self.kind is CsfKind.SINGLE_SINGLET:
            if self.indices[0] == self.indices[1]:
                raise BasisError(f"repeated orbital in {self.indices}")
        elif self.kind is CsfKind.TRIPLET_PAIR_SINGLET:
            if len(set(self.indices)) != 4:
                raise BasisError(f"repeated orbital in {self.indices}")
        elif self.kind is CsfKind.DOUBLE_SINGLET:
            i, j, a, b = self.indices
            if {i, j} & {a, b}:
                raise BasisError(f"occupied/virtual collision in {self.indices}")
            if i == j and a == b:
                raise BasisError("fully degenerate double is a plain pair move")
        object.__setattr__(self, "pair_moves", _net_moves(self.pair_moves))
        touched = set(self.singly_occupied)
        for src, dst in self.pair_moves:
            if src in touched or dst in touched:
                raise BasisError("pair move touches a singly occupied orbital")
        object.__setattr__(self, "_hash", hash((self.kind, self.indices, self.pair_moves)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return CsfSpec, (self.kind, self.indices, self.pair_moves)

    @property
    def singly_occupied(self) -> tuple:
        if self.kind is CsfKind.HF:
            return ()
        if self.kind is CsfKind.SINGLE_SINGLET:
            return self.indices
        i, j, a, b = self.indices
        out = []
        if i != j:
            out.extend((i, j))
        if a != b:
            out.extend((a, b))
        return tuple(out)

    @property
    def omega(self) -> int:
        return len(self.singly_occupied)

    @property
    def emptied_occupied(self) -> tuple:
        """Occupied orbitals both of whose electrons were excited away."""
        if self.kind is CsfKind.DOUBLE_SINGLET and self.indices[0] == self.indices[1]:
            return (self.indices[0],)
        return ()

    @property
    def filled_virtual(self) -> tuple:
        """Virtual orbitals that received a complete electron pair."""
        if self.kind is CsfKind.DOUBLE_SINGLET and self.indices[2] == self.indices[3]:
            return (self.indices[2],)
        return ()

    def moved(self, src: int, dst: int) -> "CsfSpec":
        return CsfSpec(self.kind, self.indices, self.pair_moves + ((src, dst),))


@dataclass(frozen=True)
class BasisState:
    """One subspace basis function: a CSF and its ordered pair rotations.

    ``rotations`` entries are (r, s, theta): the rotation moving an electron
    pair from orbital s toward orbital r, applied to the state in list
    order (entry 0 first).
    """

    csf: CsfSpec
    rotations: tuple = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(
            self,
            "rotations",
            tuple((int(r), int(s), float(th)) for r, s, th in self.rotations),
        )
        single = set(self.csf.singly_occupied)
        for r, s, _ in self.rotations:
            if r == s:
                raise BasisError("pair rotation needs two distinct orbitals")
            if r in single or s in single:
                raise BasisError(
                    f"rotation ({r},{s}) touches a singly occupied orbital"
                )

    def with_thetas(self, thetas) -> "BasisState":
        """The state with new rotation angles, one per rotation, in order.

        A list of another length, or an angle whose 2*theta is not finite,
        is a BasisError (``parse_basis``'s rule); the pairs were checked
        when the state was built, so they are not checked again.
        """
        thetas = [float(th) for th in thetas]
        if len(thetas) != len(self.rotations):
            raise BasisError(
                f"{len(thetas)} angles for {len(self.rotations)} rotations"
            )
        if not all(math.isfinite(2.0 * th) for th in thetas):
            raise BasisError("rotation angle 2*theta is not finite")
        state = object.__new__(BasisState)
        rots = tuple((r, s, th) for (r, s, _), th in zip(self.rotations, thetas))
        for name, value in (("csf", self.csf), ("rotations", rots), ("label", self.label)):
            object.__setattr__(state, name, value)
        return state

    def dedup_key(self):
        return (
            self.csf.kind,
            self.csf.indices,
            self.csf.pair_moves,
            tuple(sorted((r, s, th) for r, s, th in self.rotations)),
        )


def config_bits(spec: CsfSpec, n_orb: int) -> int:
    """Seniority config of the CSF as a bit mask: bit q set iff orbital q is
    singly occupied.  Rotations never change it."""
    bits = 0
    for q in spec.singly_occupied:
        if not 0 <= q < n_orb:
            raise BasisError(
                f"open-shell orbital {q} out of range for {n_orb} orbitals"
            )
        bits |= 1 << q
    return bits


# ---------------------------------------------------------------------------
# Sparse determinant algebra (occupation bitstring -> amplitude)
# ---------------------------------------------------------------------------


def _ladder(dets: dict, mode: int, dagger: bool) -> dict:
    out = {}
    below = (1 << mode) - 1
    for occ, amp in dets.items():
        if ((occ >> mode) & 1) == dagger:
            continue
        sign = -1.0 if (occ & below).bit_count() % 2 else 1.0
        key = occ ^ (1 << mode)
        out[key] = out.get(key, 0.0) + sign * amp
    return out


def _apply_ops(dets: dict, ops) -> dict:
    """Apply a ladder string, rightmost operator first."""
    for mode, dagger in reversed(ops):
        dets = _ladder(dets, mode, dagger)
    return dets


def _merge(*weighted):
    out = {}
    for w, dets in weighted:
        for occ, amp in dets.items():
            out[occ] = out.get(occ, 0.0) + w * amp
    return {k: v for k, v in out.items() if abs(v) > 1e-15}


# spherical tensor components of the excitation i -> a, each a sum of
# weight * a+_(a, spin) a_(i, spin') over (weight, spin, spin'), spin 0 up
_SINGLET_00 = ((1 / SQRT2, 1, 1), (1 / SQRT2, 0, 0))
_TRIPLET_10 = ((1 / SQRT2, 1, 1), (-1 / SQRT2, 0, 0))
_TRIPLET_1P = ((1.0, 0, 1),)
_TRIPLET_1M = ((1.0, 1, 0),)


def _excitation(dets, i, a, component):
    """The tensor component ``component`` of i -> a on a determinant dictionary."""
    images = []
    for w, sa, si in component:
        images.append((w, _apply_ops(dets, [(2 * a + sa, True), (2 * i + si, False)])))
    return _merge(*images)


def _pair_excitation(dets, dst, src):
    """a+_dst_up a+_dst_dn a_src_dn a_src_up applied to the dictionary state."""
    return _apply_ops(
        dets,
        [(2 * dst, True), (2 * dst + 1, True), (2 * src + 1, False), (2 * src, False)],
    )


def csf_determinants(spec: CsfSpec, n_orb: int, n_elec: int) -> dict:
    """Exact normalized determinant expansion of the CSF."""
    for q in spec.indices + tuple(q for mv in spec.pair_moves for q in mv):
        if not 0 <= q < n_orb:
            raise BasisError(f"orbital {q} out of range for {n_orb} orbitals")
    n_occ = n_elec // 2
    if spec.kind is not CsfKind.HF:
        occ_part = spec.indices[: len(spec.indices) // 2]
        virt_part = spec.indices[len(spec.indices) // 2 :]
        if any(q >= n_occ for q in occ_part) or any(q < n_occ for q in virt_part):
            raise BasisError(
                f"{spec.kind.value}{spec.indices}: occupied/virtual split violated"
            )
    # interleaved spins: HF fills both spin-orbitals of orbitals 0..n_occ-1
    dets = {(1 << n_elec) - 1: 1.0}
    if spec.kind is CsfKind.SINGLE_SINGLET:
        i, a = spec.indices
        dets = _excitation(dets, i, a, _SINGLET_00)
    elif spec.kind is CsfKind.DOUBLE_SINGLET:
        i, j, a, b = spec.indices
        dets = _excitation(_excitation(dets, i, a, _SINGLET_00), j, b, _SINGLET_00)
    elif spec.kind is CsfKind.TRIPLET_PAIR_SINGLET:
        # Singlet coupling of two triplet pair excitations.  With these
        # component definitions the Condon-Shortley tensor is T^{1,-1} =
        # -E^{1,-1}, which forces the minus on the m=0 term; the all-plus
        # variant is a spin-contaminated state, not a CSF.
        i, j, a, b = spec.indices
        dets = _merge(
            (-1 / SQRT3, _excitation(_excitation(dets, i, a, _TRIPLET_1M), j, b, _TRIPLET_1P)),
            (-1 / SQRT3, _excitation(_excitation(dets, i, a, _TRIPLET_10), j, b, _TRIPLET_10)),
            (-1 / SQRT3, _excitation(_excitation(dets, i, a, _TRIPLET_1P), j, b, _TRIPLET_1M)),
        )
    # pair relocations act on the finished CSF (descendants are pair
    # excitations of it), which matters when a move sources a structure-
    # filled orbital
    for src, dst in spec.pair_moves:
        dets = _pair_excitation(dets, dst, src)
        if not dets:
            raise BasisError(f"pair move {src}->{dst} annihilates the state")
    norm = math.sqrt(sum(a * a for a in dets.values()))
    # degenerate-index doubles come out at 1/sqrt(2); all others at 1
    return {k: v / norm for k, v in dets.items()}


def _rotate_determinants(dets: dict, r: int, s: int, theta: float) -> dict:
    """Exact pair-rotation action on a determinant dictionary.

    Matches the tapered rotation exp(i theta (X_r Y_s - Y_r X_s)): the
    component with the pair on s rotates toward r with transfer angle
    2*theta; all other occupation patterns are untouched.
    """
    c, sn = math.cos(2.0 * theta), math.sin(2.0 * theta)
    pair_r = (1 << (2 * r)) | (1 << (2 * r + 1))
    pair_s = (1 << (2 * s)) | (1 << (2 * s + 1))
    mask = pair_r | pair_s
    out = {}

    def add(key, amp):
        if abs(amp) > 1e-15:
            out[key] = out.get(key, 0.0) + amp

    for occ, amp in dets.items():
        at_r = occ & pair_r
        at_s = occ & pair_s
        if at_s == pair_s and at_r == 0:
            add(occ, c * amp)
            add(occ ^ mask, sn * amp)
        elif at_r == pair_r and at_s == 0:
            add(occ, c * amp)
            add(occ ^ mask, -sn * amp)
        else:
            add(occ, amp)
    return out


def state_determinants(b: BasisState, n_orb: int, n_elec: int) -> dict:
    dets = csf_determinants(b.csf, n_orb, n_elec)
    for r, s, theta in b.rotations:
        if theta != 0.0:
            dets = _rotate_determinants(dets, r, s, theta)
    return dets


def full_state(b: BasisState, n_orb: int, n_elec: int) -> StateVector:
    """Dense 2*n_orb-qubit Jordan-Wigner image of the basis state."""
    amps = np.zeros(2 ** (2 * n_orb), dtype=complex)
    for occ, amp in state_determinants(b, n_orb, n_elec).items():
        amps[occ] = amp
    return StateVector(amps, 2 * n_orb)


def make_csf_tapered(spec: CsfSpec, n_orb: int, n_elec: int) -> StateVector:
    """Tapered n_orb-qubit image of the CSF (doubly occupied orbitals at |1>).

    The tapering Clifford sends each determinant |occ> to |x>, x the X word
    of ``taper_words`` on X^occ, with no sign: the low n_orb bits of x are
    the config and the high bits the remainder index.
    """
    amps = np.zeros(2**n_orb, dtype=complex)
    for occ, amp in csf_determinants(spec, n_orb, n_elec).items():
        amps[taper_words(occ, 0, n_orb)[0] >> n_orb] += amp
    return StateVector(amps, n_orb)


_ROTATION_INDEX_CACHE: dict = {}


def _rotation_indices(n: int, r: int, s: int):
    """Read-only (i, j) index arrays of the (r, s) pair-transfer block.

    i runs over the indices with qubit r at 0 and qubit s at 1, and j is i
    with both bits flipped.
    """
    pair = _ROTATION_INDEX_CACHE.get((n, r, s))
    if pair is None:
        idx = np.arange(2**n)
        i_idx = idx[((idx >> r) & 1 == 0) & ((idx >> s) & 1 == 1)]
        j_idx = i_idx ^ ((1 << r) | (1 << s))
        i_idx.flags.writeable = False
        j_idx.flags.writeable = False
        pair = _ROTATION_INDEX_CACHE[(n, r, s)] = (i_idx, j_idx)
    return pair


def rotate_pair_inplace(amps: np.ndarray, r: int, s: int, theta: float) -> None:
    """The pair rotation of ``apply_pair_rotation``, in place on raw amplitudes.

    ``amps`` holds 2^n amplitudes on its last axis; leading axes are a
    stack of states, each rotated alike.  No state is built or validated,
    so a chain of rotations wraps its result in one ``StateVector``.
    """
    n = amps.shape[-1].bit_length() - 1
    if not (0 <= r < n and 0 <= s < n) or r == s:
        raise BasisError(f"bad rotation qubits ({r}, {s}) on {n} qubits")
    i_idx, j_idx = _rotation_indices(n, r, s)
    c, sn = math.cos(2.0 * theta), math.sin(2.0 * theta)
    ai, aj = amps[..., i_idx], amps[..., j_idx]
    amps[..., i_idx] = c * ai - sn * aj
    amps[..., j_idx] = sn * ai + c * aj


def pair_rotation_terms(amps: np.ndarray, r: int, s: int) -> np.ndarray:
    """(u, v, w) with the pair rotation of amps by theta = u + cos 2theta v + sin 2theta w.

    Stacked on a new axis before the amplitude axis: u is amps with the
    (r, s) block zeroed, v the block alone and w the block swapped with the
    sign ``rotate_pair_inplace`` gives it.  The dtype is that of amps.
    """
    n = amps.shape[-1].bit_length() - 1
    i_idx, j_idx = _rotation_indices(n, r, s)
    out = np.zeros(amps.shape[:-1] + (3, amps.shape[-1]), dtype=amps.dtype)
    out[..., 0, :] = amps
    out[..., 0, i_idx] = out[..., 0, j_idx] = 0.0
    out[..., 1, i_idx], out[..., 1, j_idx] = amps[..., i_idx], amps[..., j_idx]
    out[..., 2, i_idx], out[..., 2, j_idx] = -amps[..., j_idx], amps[..., i_idx]
    return out


def rotate_chain(state: StateVector, rotations) -> StateVector:
    """``state`` after each (r, s, theta) of ``rotations`` in turn."""
    amps = state.amplitudes.copy()
    for r, s, theta in rotations:
        rotate_pair_inplace(amps, r, s, theta)
    return StateVector(amps, state.n_qubits)


def apply_pair_rotation(state: StateVector, r: int, s: int, theta: float) -> StateVector:
    """Exact two-qubit rotation exp(i theta (X_r Y_s - Y_r X_s)) on the register.

    The pair-transfer block rotates by angle 2*theta: a pair at s acquires
    amplitude sin(2 theta) at r.
    """
    return rotate_chain(state, [(r, s, theta)])


def paired_occupied(spec: CsfSpec, n_orb: int, n_elec: int) -> set:
    """Orbitals holding an electron pair in the CSF."""
    occ = set(range(n_elec // 2))
    occ -= set(spec.singly_occupied)
    occ -= set(spec.emptied_occupied)
    occ |= set(spec.filled_virtual)
    for src, dst in spec.pair_moves:
        occ.discard(src)
        occ.add(dst)
    return occ


def empty_orbitals(spec: CsfSpec, n_orb: int, n_elec: int) -> set:
    return (
        set(range(n_orb)) - paired_occupied(spec, n_orb, n_elec) - set(spec.singly_occupied)
    )


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


# the accepted range of each selection setting: (test, the rule it states)
SETTING_RANGES = {
    "eps1": (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "eps2": (lambda v: v > 0.0, "must be positive"),
    "root_window": (lambda v: v >= 0.0, "must be nonnegative"),
    "n_active_occ": (lambda v: v >= 1, "must be >= 1"),
    "n_active_virt": (lambda v: v >= 1, "must be >= 1"),
}
# the default of each selection setting
SETTING_DEFAULTS = {
    "eps1": 1e-4,
    "eps2": 1e-5,
    "root_window": 0.1,
    "n_active_occ": 3,
    "n_active_virt": 3,
}


def check_setting(name: str, value) -> None:
    """Raise BasisError when selection setting ``name`` is out of its range."""
    test, rule = SETTING_RANGES[name]
    if not test(value):
        raise BasisError(f"{name} {rule}, got {value!r}")


@dataclass(frozen=True)
class SelectionParams:
    """Active window and thresholds steering basis selection.

    ``root_window`` (Hartree) makes trimming track every CSF-subspace root
    within that energy of the lowest: at stretched geometries the lowest
    rotation-free roots can be near-degenerate states of different spatial
    character, and committing to a single one starves the final variational
    stage of the span it needs.
    """

    active_occ: frozenset
    active_virt: frozenset
    eps1: float = SETTING_DEFAULTS["eps1"]
    eps2: float = SETTING_DEFAULTS["eps2"]
    root_window: float = SETTING_DEFAULTS["root_window"]

    def __post_init__(self):
        object.__setattr__(self, "active_occ", frozenset(self.active_occ))
        object.__setattr__(self, "active_virt", frozenset(self.active_virt))
        if self.active_occ & self.active_virt:
            raise BasisError("active occupied/virtual sets overlap")
        for name in ("eps1", "eps2", "root_window"):
            check_setting(name, getattr(self, name))

    @property
    def active(self) -> frozenset:
        return self.active_occ | self.active_virt


def default_selection_params(
    ints: FermionIntegrals,
    eps1: float = SETTING_DEFAULTS["eps1"],
    eps2: float = SETTING_DEFAULTS["eps2"],
    n_active_occ: int = SETTING_DEFAULTS["n_active_occ"],
    n_active_virt: int = SETTING_DEFAULTS["n_active_virt"],
    root_window: float = SETTING_DEFAULTS["root_window"],
) -> SelectionParams:
    """Energy window around the Fermi level: highest occupied, lowest virtual."""
    check_setting("n_active_occ", n_active_occ)
    check_setting("n_active_virt", n_active_virt)
    n_occ = ints.n_occ
    occ = frozenset(range(max(0, n_occ - n_active_occ), n_occ))
    virt = frozenset(range(n_occ, min(ints.n_orb, n_occ + n_active_virt)))
    return SelectionParams(occ, virt, eps1=eps1, eps2=eps2, root_window=root_window)


class CsfElementEngine:
    """The exact element kernel of one geometry's qubit Hamiltonian ``hq``.

    It holds the geometry's sector table (``hq`` conjugated once by the
    tapering Clifford into H', effective operators memoised per config
    pair, for sampling and the slot models), the tapered states and
    config bit masks of rotation-free CSFs, and the one rule for exact
    matrix elements, ``matrix``: <bras|H'|kets> of tapered states given
    as (config bits, amplitudes) pairs (``csf`` gives a CSF's).  A state
    of config c is |c> (x) |psi> on the whole tapered register, so the
    rule reads each state's nonzero amplitudes at the indices c | k <<
    n_orb and takes every entry from one pass of H' over the states'
    joint support (``taper.SupportOperator``); H' links two configs
    only through the terms whose seniority-register X word is their XOR.
    Selection, ``vo_optimize``, ``build_subspace`` and ``tapering_stats``
    share the table and the CSF states.  ``element`` is the 1x1 matrix of
    two CSFs; ``border`` adds the bras' diagonal to one ``matrix`` call.
    """

    def __init__(self, hq: PauliArrays, n_elec: int):
        self.hq = hq
        self.sectors = SectorHamiltonian(hq)
        self.n_orb = self.sectors.n_orb
        self.n_elec = n_elec
        self._states = {}
        self._bits = {}

    def state(self, spec: CsfSpec) -> StateVector:
        if spec not in self._states:
            self._states[spec] = make_csf_tapered(spec, self.n_orb, self.n_elec)
        return self._states[spec]

    def bits(self, spec: CsfSpec) -> int:
        """``config_bits`` of the CSF, memoised per CSF."""
        if spec not in self._bits:
            self._bits[spec] = config_bits(spec, self.n_orb)
        return self._bits[spec]

    def csf(self, spec: CsfSpec) -> tuple:
        """The CSF as ``matrix`` takes it: (config bits, tapered amplitudes)."""
        return self.bits(spec), self.state(spec).amplitudes

    def xop(self, bra_bits: int, ket_bits: int) -> PauliArrays:
        return self.sectors.op(bra_bits, ket_bits)

    def _real(self, states) -> list:
        """``real_support`` of (config bits, amplitudes) states."""
        return [real_support(amps, bits, self.n_orb) for bits, amps in states]

    def matrix(self, bras, kets=None) -> np.ndarray:
        """<bras|H'|kets> (see the class docstring); with kets None, the
        symmetric matrix of bras (``SupportOperator.matrix``)."""
        return self.sectors.support.matrix(
            self._real(bras), None if kets is None else self._real(kets)
        )

    def border(self, bras, kets) -> tuple:
        """``matrix(bras, kets)`` and the bras' diagonal <b|H'|b>, from one
        pass over their joint support (``SupportOperator.border``)."""
        return self.sectors.support.border(self._real(bras), self._real(kets))

    def element(self, a: CsfSpec, b: CsfSpec) -> float:
        return float(self.matrix([self.csf(a)], [self.csf(b)])[0, 0])


def element_kernel(kernel, hq: PauliArrays, n_elec: int) -> CsfElementEngine:
    """``kernel`` when it was built for this ``hq`` and n_elec; a new one for None."""
    if kernel is None:
        return CsfElementEngine(hq, n_elec)
    if kernel.hq is not hq or kernel.n_elec != n_elec:
        raise BasisError("element kernel was built for another Hamiltonian")
    return kernel


def create_csfs(params: SelectionParams, n_orb: int, n_elec: int) -> list:
    """All CSF families reachable with active-window excitations.

    The first step of selection, and its one check of the window: one with
    no occupied or no virtual orbital (an empty set, or an electron count
    of 0 or 2 * n_orb) is a SelectionError naming NELEC and NORB.
    """
    n_occ = n_elec // 2
    occ = sorted(q for q in params.active_occ if q < n_occ)
    virt = sorted(q for q in params.active_virt if q >= n_occ)
    if not occ or not virt:
        raise SelectionError(
            f"active window holds no {'occupied' if not occ else 'virtual'} orbital "
            f"(NELEC={n_elec}, NORB={n_orb})"
        )
    occ_pairs = list(itertools.combinations(occ, 2))
    virt_pairs = list(itertools.combinations(virt, 2))
    specs = [CsfSpec(CsfKind.HF)]
    for i, a in itertools.product(occ, virt):
        specs.append(CsfSpec(CsfKind.SINGLE_SINGLET, (i, a)))
    for ij, ab in itertools.product(occ_pairs, virt_pairs):
        specs.append(CsfSpec(CsfKind.DOUBLE_SINGLET, ij + ab))
        specs.append(CsfSpec(CsfKind.TRIPLET_PAIR_SINGLET, ij + ab))
    # degenerate-index doubles: open-shell pair on two virtuals (source
    # orbital emptied) or on two occupieds (target virtual filled)
    for i, ab in itertools.product(occ, virt_pairs):
        specs.append(CsfSpec(CsfKind.DOUBLE_SINGLET, (i, i) + ab))
    for ij, a in itertools.product(occ_pairs, virt):
        specs.append(CsfSpec(CsfKind.DOUBLE_SINGLET, ij + (a, a)))
    # fully degenerate member: a whole electron pair promoted, i.e. the
    # seniority-zero pair-moved reference
    for i, a in itertools.product(occ, virt):
        specs.append(CsfSpec(CsfKind.HF, (), ((i, a),)))
    return specs


def trim_csfs(engine: CsfElementEngine, specs: list, eps1: float, root_window: float):
    """Keep CSFs whose weight in a low-lying root exceeds eps1.

    With root_window = 0 only the subspace ground state counts (the
    dominant CSF always stays).  A positive window also retains the
    contributors of every root within that energy of the lowest.  Returns
    the survivors and their block of the CSF matrix.
    """
    h = engine.matrix([engine.csf(s) for s in specs])
    vals, vecs = np.linalg.eigh(h)
    weights0 = np.abs(vecs[:, 0]) ** 2
    keep = set()
    for root in range(len(vals)):
        if vals[root] - vals[0] > root_window and root > 0:
            break
        w = np.abs(vecs[:, root]) ** 2
        keep.update(k for k in range(len(specs)) if w[k] > eps1)
    keep.add(int(np.argmax(weights0)))
    keep = sorted(keep)
    return [specs[k] for k in keep], h[np.ix_(keep, keep)]


def structure_class(spec: CsfSpec):
    """Identity of the open-shell coupling factor.

    The singlet space on two unpaired electrons is one-dimensional, so all
    omega <= 2 states in a config share the class; with four unpaired
    electrons the space is two-dimensional and the family plus pairing
    distinguishes the two orthogonal couplings.
    """
    return (spec.kind.value, spec.indices) if spec.omega == 4 else ()


def physical_csf_key(spec: CsfSpec, n_orb: int, n_elec: int):
    """Occupation-level identity of a CSF.

    Two specifications with the same open-shell set, the same paired
    occupation, and the same coupling structure describe the same state up
    to sign, however they were reached.
    """
    open_ = tuple(sorted(spec.singly_occupied))
    paired = tuple(sorted(paired_occupied(spec, n_orb, n_elec)))
    return (open_, paired, structure_class(spec))


def rotation_group_key(spec: CsfSpec, n_orb: int):
    """States that must carry one common rotation unitary.

    Same seniority config and same open-shell coupling class: their mutual
    orthogonality rests on the rotated (paired) factors, so the rotations
    must match.  Different coupling classes stay orthogonal through the
    open-shell factor, which rotations never touch.
    """
    return (config_bits(spec, n_orb), structure_class(spec))


def extension_pairs(
    engine: CsfElementEngine,
    survivors: list,
    h_surv: np.ndarray,
    eps2: float,
    root_window: float,
):
    """Rank-one subspace enlargements: pairs whose energy shift exceeds eps2.

    Returns, per survivor, the list of ((a, i), dE) sorted by decreasing
    |dE|, where adding the pair-excited CSF i->a shifts a tracked subspace
    eigenvalue by dE; with a positive root window every low-lying root is
    tracked, so candidates correlating a shadowed branch still score.
    Candidates that physically coincide with an existing survivor are
    skipped; they would make the enlarged basis linearly dependent.
    """
    n = len(survivors)
    base_vals = np.linalg.eigvalsh(h_surv)
    k_track = max(1, int(np.sum(base_vals - base_vals[0] <= root_window)))
    survivor_keys = {
        physical_csf_key(s, engine.n_orb, engine.n_elec) for s in survivors
    }
    owners, pairs, cands = [], [], []
    for mu, spec in enumerate(survivors):
        for i in sorted(paired_occupied(spec, engine.n_orb, engine.n_elec)):
            for a in sorted(empty_orbitals(spec, engine.n_orb, engine.n_elec)):
                cand = spec.moved(i, a)
                if physical_csf_key(cand, engine.n_orb, engine.n_elec) not in survivor_keys:
                    owners.append(mu)
                    pairs.append((a, i))
                    cands.append(engine.csf(cand))
    found = [[] for _ in survivors]
    if cands:
        # each candidate bordering the survivors' matrix, one stacked eigensolve
        rows, diagonal = engine.border(cands, [engine.csf(s) for s in survivors])
        border = np.zeros((len(cands), n + 1, n + 1))
        border[:, :n, :n] = h_surv
        border[:, n, :n] = border[:, :n, n] = rows
        border[:, n, n] = diagonal
        drops = np.linalg.eigvalsh(border)[:, :k_track] - base_vals[:k_track]
        for mu, pair, de in zip(owners, pairs, drops.min(axis=1).tolist()):
            if abs(de) > eps2:
                found[mu].append((pair, de))
    return [sorted(f, key=lambda item: (-abs(item[1]), item[0])) for f in found]


def merge_config_pairs(survivors, ext, n_orb: int) -> dict:
    """Per rotation-group plans: pairs merged across group members.

    States in one rotation group must carry the same rotation unitary,
    otherwise their mutual orthogonality (which rests on the rotated
    factors) would be lost; each pair keeps the strongest energy shift seen.
    """
    merged: dict = {}
    for spec, pairs in zip(survivors, ext):
        key = rotation_group_key(spec, n_orb)
        plan = merged.setdefault(key, {})
        for pair, de in pairs:
            if pair not in plan or abs(de) > abs(plan[pair]):
                plan[pair] = de
    return {
        key: sorted(plan.items(), key=lambda item: (-abs(item[1]), item[0]))
        for key, plan in merged.items()
    }


def _ordered_rotations(pairs, thetas):
    """Rotation tuple in plan order: the largest |dE| is applied first."""
    return tuple((a, i, t) for ((a, i), _), t in zip(pairs, thetas))


def _trimmed_and_extended(ints, hq, params, kernel):
    """The trimmed CSFs and their extension pairs, the first two steps of
    both selections."""
    engine = element_kernel(kernel, hq, ints.n_elec)
    specs = create_csfs(params, ints.n_orb, ints.n_elec)
    survivors, h = trim_csfs(engine, specs, params.eps1, params.root_window)
    return survivors, extension_pairs(engine, survivors, h, params.eps2, params.root_window)


def select_basis_vo(
    ints: FermionIntegrals, hq: PauliArrays, params: SelectionParams, kernel=None
) -> list:
    """VO basis: trimmed CSFs with zero-initialized rotation slots.

    ``kernel`` is the geometry's element kernel (a ``CsfElementEngine`` of
    ``hq``); without one the selection builds its own.
    """
    survivors, ext = _trimmed_and_extended(ints, hq, params, kernel)
    plans = merge_config_pairs(survivors, ext, ints.n_orb)
    basis = []
    for mu, spec in enumerate(survivors):
        pairs = plans[rotation_group_key(spec, ints.n_orb)]
        rots = _ordered_rotations(pairs, [0.0] * len(pairs))
        basis.append(BasisState(spec, rots, label=f"s{mu}"))
    return _deduplicate(basis, ints.n_orb, ints.n_elec)


def select_basis_pt(
    ints: FermionIntegrals, hq: PauliArrays, params: SelectionParams, kernel=None
) -> list:
    """PT basis: internal pairs become new CSFs, external pairs carry MP2 angles.

    ``kernel`` is the geometry's element kernel (a ``CsfElementEngine`` of
    ``hq``); without one the selection builds its own.
    """
    survivors, ext = _trimmed_and_extended(ints, hq, params, kernel)
    active, n_occ = params.active, ints.n_occ
    # perturbative angles exist only for canonical occupied -> virtual pairs
    external_ext = [
        [((a, i), de) for (a, i), de in pairs if not {a, i} <= active and i < n_occ <= a]
        for pairs in ext
    ]
    plans = merge_config_pairs(survivors, external_ext, ints.n_orb)
    basis = []
    for mu, (spec, pairs) in enumerate(zip(survivors, ext)):
        external = plans[rotation_group_key(spec, ints.n_orb)]
        thetas = [mp2_pair_amplitude(ints, i, b) for (b, i), _ in external]
        rots = _ordered_rotations(external, thetas)
        basis.append(BasisState(spec, rots, label=f"s{mu}"))
        for (a, i), _ in pairs:
            if {a, i} <= active:
                basis.append(BasisState(spec.moved(i, a), rots, label=f"s{mu}x{a}.{i}"))
    return _deduplicate(basis, ints.n_orb, ints.n_elec)


def _deduplicate(basis: list, n_orb: int, n_elec: int) -> list:
    """Drop states that coincide physically, whatever route produced them."""
    first: dict = {}
    for b in basis:
        first.setdefault(physical_csf_key(b.csf, n_orb, n_elec), b)
    return list(first.values())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_basis(basis) -> str:
    """Structured text records for reproducibility; ``parse_basis`` reads them."""
    lines = []
    for b in basis:
        idx = ",".join(str(q) for q in b.csf.indices)
        moves = ";".join(f"{s}->{d}" for s, d in b.csf.pair_moves)
        rots = "".join(f"({r},{s},{th!r})" for r, s, th in b.rotations)
        lines.append(
            f"state {b.label} kind={b.csf.kind.value} idx=[{idx}] "
            f"moves=[{moves}] rot={rots}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


_STATE_RE = re.compile(
    r"state (?P<label>\S+) kind=(?P<kind>\S+) idx=\[(?P<idx>[^\]]*)\] "
    r"moves=\[(?P<moves>[^\]]*)\] rot=(?P<rot>.*)"
)
_ROT_RE = re.compile(r"\(([^,]+),([^,]+),([^)]+)\)")
_ROTS_RE = re.compile(f"(?:{_ROT_RE.pattern})*")


def parse_basis(text: str) -> list:
    """Basis states from ``serialize_basis`` records, one per line.

    Any record that does not parse in full, names an invalid state or
    holds an angle theta whose 2*theta is not finite raises BasisError
    quoting the record.
    """
    basis = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        m = _STATE_RE.fullmatch(line)
        if m is None or not _ROTS_RE.fullmatch(m.group("rot")):
            raise BasisError(f"bad basis record {line!r}")
        try:
            indices = tuple(int(v) for v in m.group("idx").split(",") if v)
            moves = tuple(
                (int(a), int(b))
                for a, b in (mv.split("->") for mv in m.group("moves").split(";") if mv)
            )
            rots = tuple(
                (int(r), int(s), float(th))
                for r, s, th in _ROT_RE.findall(m.group("rot"))
            )
            if not all(math.isfinite(2.0 * th) for _, _, th in rots):
                raise ValueError("rotation angle 2*theta is not finite")
            spec = CsfSpec(CsfKind(m.group("kind")), indices, moves)
            basis.append(BasisState(spec, rots, m.group("label")))
        except ValueError as exc:
            raise BasisError(f"bad basis record {line!r}: {exc}") from None
    return basis
