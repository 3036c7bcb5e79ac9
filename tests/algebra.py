"""The scalar Pauli algebra and the state helpers that only the tests use.

The program holds every operator as ``senqse.pauli.PauliArrays``.  The
tests build their operators and references with the exact forms here: a
``PauliProduct`` with a quarter-turn phase, a ``PauliSum`` dict of
phase-free products, the conjugation of one product by a ``CliffordMap``
and the inverse of such a map.  The products' phases, commutation and
labels are the package's own rules (``pauli.product_phase``,
``pauli.anticommute``, ``pauli.label``), so the tests that check this
algebra against dense matrices check those rules too.

The state helpers build computational and normalised states, exact
expectation values and matrix elements, the tapering of a full-register
seniority eigenstate and its inverse, a basis state's tapered state and an
element's measured state and fragments.  ``StateVector`` and
``SubspaceEngine`` are the package classes with those helpers added.
"""

import re
from dataclasses import dataclass

import numpy as np

from senqse import simulator, solver
from senqse.csfbasis import make_csf_tapered, rotate_chain
from senqse.pauli import CliffordMap, PauliError, anticommute, label, product_phase
from senqse.simulator import apply_pauli_sum
from senqse.taper import TaperError, build_clifford

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}

# largest cross-sector weight of a state that taper_check accepts
PRODUCT_TOL = 1e-10


@dataclass(frozen=True)
class PauliProduct:
    """P = i**phase_exp sigma(x_bits, z_bits), exact."""

    n_qubits: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n_qubits < 0:
            raise PauliError(f"negative qubit count {self.n_qubits}")
        mask = (1 << self.n_qubits) - 1
        if (self.x_bits & ~mask) or (self.z_bits & ~mask):
            raise PauliError("bitstring exceeds qubit count")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliProduct":
        return cls(n_qubits, 0, 0, 0)

    @classmethod
    def single(cls, letter: str, qubit: int, n_qubits: int) -> "PauliProduct":
        xb, zb = _BITS[letter.upper()]
        return cls(n_qubits, xb << qubit, zb << qubit)

    @classmethod
    def from_label(cls, text: str, n_qubits: int) -> "PauliProduct":
        """Parse a label like ``"X0 Z3 Y5"`` (``"I"`` for the identity)."""
        text = text.strip()
        x = z = 0
        if text and text != "I":
            for tok in text.split():
                m = re.fullmatch(r"([IXYZ])(\d+)", tok)
                if m is None:
                    raise PauliError(f"bad Pauli token {tok!r}")
                letter, q = m.group(1), int(m.group(2))
                if (x >> q) & 1 or (z >> q) & 1:
                    raise PauliError(f"qubit {q} referenced twice in {text!r}")
                xb, zb = _BITS[letter]
                x |= xb << q
                z |= zb << q
        return cls(n_qubits, x, z)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_exp]

    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def y_count(self) -> int:
        return (self.x_bits & self.z_bits).bit_count()

    def mul(self, other: "PauliProduct") -> "PauliProduct":
        """Exact product self * other (self acts on the left)."""
        if self.n_qubits != other.n_qubits:
            raise PauliError(f"qubit count mismatch: {self.n_qubits} vs {other.n_qubits}")
        g = product_phase(self.x_bits, self.z_bits, other.x_bits, other.z_bits)
        return PauliProduct(
            self.n_qubits,
            self.x_bits ^ other.x_bits,
            self.z_bits ^ other.z_bits,
            self.phase_exp + other.phase_exp + g,
        )

    __mul__ = mul

    def commutes(self, other: "PauliProduct") -> bool:
        return not anticommute(self.x_bits, self.z_bits, other.x_bits, other.z_bits)

    def label(self) -> str:
        return label(self.x_bits, self.z_bits)


def conjugate(cmap: CliffordMap, p: PauliProduct) -> PauliProduct:
    """U p U^dagger, from ``cmap.conjugate_words`` on p's words."""
    x, z, sign = cmap.conjugate_words(p.x_bits, p.z_bits)
    return PauliProduct(cmap.n_qubits, x, z, p.phase_exp + 2 * sign)


def inverse(cmap: CliffordMap) -> CliffordMap:
    """The gates reversed, each permutation replaced by its argsort."""
    gates = [
        g if g[0] == "cnot" else ("perm", tuple(sorted(range(cmap.n_qubits), key=g[1].__getitem__)))
        for g in reversed(cmap.gates)
    ]
    return CliffordMap(cmap.n_qubits, tuple(gates))


class PauliSum:
    """A complex-weighted sum of phase-free Pauli products: a map from the
    key (x_bits, z_bits) to a coefficient, product phases folded in."""

    __slots__ = ("n_qubits", "_terms")

    def __init__(self, n_qubits: int, terms: dict | None = None):
        self.n_qubits = n_qubits
        self._terms: dict[tuple[int, int], complex] = dict(terms) if terms else {}

    @classmethod
    def from_label(cls, text: str, coeff: complex, n_qubits: int) -> "PauliSum":
        out = cls(n_qubits)
        out.add_product(PauliProduct.from_label(text, n_qubits), coeff)
        return out

    def copy(self) -> "PauliSum":
        return PauliSum(self.n_qubits, self._terms)

    def add_term(self, x_bits: int, z_bits: int, coeff: complex) -> None:
        key = (x_bits, z_bits)
        self._terms[key] = self._terms.get(key, 0.0) + coeff

    def add_product(self, p: PauliProduct, coeff: complex = 1.0) -> None:
        if p.n_qubits != self.n_qubits:
            raise PauliError(f"qubit count mismatch: {p.n_qubits} vs {self.n_qubits}")
        self.add_term(p.x_bits, p.z_bits, coeff * p.phase)

    def __len__(self) -> int:
        return len(self._terms)

    n_terms = property(__len__)

    def __iter__(self):
        """Yield (PauliProduct with phase +1, coefficient) pairs."""
        for (x, z), c in self._terms.items():
            yield PauliProduct(self.n_qubits, x, z), c

    def items(self):
        """Yield ((x_bits, z_bits), coefficient) pairs."""
        return self._terms.items()

    def coefficient(self, p: PauliProduct) -> complex:
        return self._terms.get((p.x_bits, p.z_bits), 0.0) * p.phase.conjugate()

    def identity_coefficient(self) -> complex:
        return self._terms.get((0, 0), 0.0)

    def max_imag(self) -> float:
        return max((abs(c.imag) for c in self._terms.values()), default=0.0)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise PauliError("qubit count mismatch in sum")
        out = self.copy()
        for key, c in other._terms.items():
            out._terms[key] = out._terms.get(key, 0.0) + c
        return out

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + other.scaled(-1.0)

    def scaled(self, factor: complex) -> "PauliSum":
        return PauliSum(self.n_qubits, {k: factor * c for k, c in self._terms.items()})

    def __mul__(self, other: "PauliSum") -> "PauliSum":
        """One ``PauliProduct.mul`` per pair of terms, added in order."""
        out = PauliSum(self.n_qubits)
        for p, c1 in self:
            for q, c2 in other:
                out.add_product(p * q, c1 * c2)
        return out

    def simplify(self, tol: float = 1e-12) -> "PauliSum":
        """Drop terms with |coefficient| < tol (duplicates are always merged)."""
        return PauliSum(self.n_qubits, {k: c for k, c in self._terms.items() if abs(c) >= tol})

    def commutes_with(self, other: "PauliSum", tol: float = 1e-12) -> bool:
        """Exact algebraic check that [self, other] vanishes."""
        return (self * other - other * self).simplify(tol).n_terms == 0


class StateVector(simulator.StateVector):
    """The package state with the constructors that only tests use."""

    @classmethod
    def computational(cls, index: int, n_qubits: int) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps, n_qubits)

    @classmethod
    def from_amplitudes(cls, amps, n_qubits: int, normalize: bool = False):
        amps = np.asarray(amps, dtype=complex)
        if normalize:
            amps = amps / np.linalg.norm(amps)
        return cls(amps, n_qubits)


def matrix_element_exact(bra, op, ket) -> complex:
    """<bra|op|ket> from ``simulator.apply_pauli_sum``."""
    if not (bra.n_qubits == ket.n_qubits == op.n_qubits):
        raise simulator.SimulatorError("qubit count mismatch in matrix element")
    return complex(np.vdot(bra.amplitudes, apply_pauli_sum(ket.amplitudes, op)))


def expectation(state, op) -> complex:
    """Exact <psi|op|psi>; real to 1e-12 when op is Hermitian."""
    return matrix_element_exact(state, op, state)


def apply_clifford(state, cmap: CliffordMap) -> StateVector:
    """A CNOT/permutation Clifford on a statevector: it sends |k> to |f(k)>,
    where f acts on the index bits as conjugation acts on X words."""
    if cmap.n_qubits != state.n_qubits:
        raise simulator.SimulatorError("Clifford qubit count mismatch")
    idx = np.arange(2**state.n_qubits, dtype=np.uint64)
    targets, _, _ = cmap.conjugate_words(idx, np.zeros_like(idx))
    amps = np.empty_like(state.amplitudes)
    amps[targets] = state.amplitudes
    return StateVector(amps, state.n_qubits)


def seniority_symmetries(n_orb: int) -> list[PauliProduct]:
    """[Z0 Z1, Z2 Z3, ...] on 2*n_orb qubits."""
    return [PauliProduct(2 * n_orb, 0, 3 << (2 * i)) for i in range(n_orb)]


def taper_check(full_state) -> tuple[int, StateVector]:
    """Split U_c|phi> into (config bit mask, n_orb-qubit remainder state).

    Raises TaperError when the rotated state is not an exact product of a
    computational seniority register and a remainder factor.
    """
    if full_state.n_qubits % 2 != 0:
        raise TaperError("state must live on the full 2*n_orb register")
    n_orb = full_state.n_qubits // 2
    rotated = apply_clifford(full_state, build_clifford(n_orb))
    # index = (remainder bits << n_orb) | seniority bits
    table = rotated.amplitudes.reshape(2**n_orb, 2**n_orb)
    col_norms = np.linalg.norm(table, axis=0)
    bits = int(np.argmax(col_norms))
    residual = np.sqrt(max(np.sum(col_norms**2) - col_norms[bits] ** 2, 0.0))
    if residual > PRODUCT_TOL:
        raise TaperError(f"not a seniority eigenstate: cross-sector weight {residual:.3e}")
    column = table[:, bits]
    return bits, StateVector(column / np.linalg.norm(column), n_orb)


def untaper_state(bits: int, remainder) -> StateVector:
    """Inverse of taper_check: rebuild the full 2*n_orb-qubit state."""
    n_orb = remainder.n_qubits
    if not 0 <= bits < 1 << n_orb:
        raise TaperError(f"config bits {bits} outside n_orb={n_orb}")
    full = np.zeros(2 ** (2 * n_orb), dtype=complex)
    full[(np.arange(2**n_orb) << n_orb) | bits] = remainder.amplitudes
    return apply_clifford(StateVector(full, 2 * n_orb), inverse(build_clifford(n_orb)))


def tapered_state(b, n_orb: int, n_elec: int) -> simulator.StateVector:
    """Basis state b on the tapered register: its CSF, then its rotations."""
    return rotate_chain(make_csf_tapered(b.csf, n_orb, n_elec), b.rotations)


class SubspaceEngine(solver.SubspaceEngine):
    """The package engine with one element's measured state and fragments."""

    def element_measurables(self, mu: int, nu: int):
        """(state, fragments) realizing the element as expectation values:
        the effective operator on the basis state for a diagonal element,
        the swap-test operator on the two-state superposition otherwise."""
        [(_, prepare, frags)] = self._measurables([(mu, nu)], self.exact_matrix())
        return prepare(), frags


def total_shots(sampler) -> int:
    """Shots of a ``MatrixSampler``'s table, summed over every element."""
    return sum(sum(v) for v in sampler.shots.values())
