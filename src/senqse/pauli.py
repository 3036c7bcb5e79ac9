"""Exact Pauli algebra in a symplectic binary encoding.

A Pauli product on n qubits is stored as two Python integers ``x_bits`` and
``z_bits`` (bit q set means the factor on qubit q has an X / Z component;
both set means Y) together with a global phase from {+1, +i, -1, -i}.
Python integers act as packed bit words, so multiplication and commutation
checks cost O(n/64) machine words.

Operator value convention::

    P = i**phase_exp * prod_q sigma(x_q, z_q)

with sigma(0,0)=I, sigma(1,0)=X, sigma(0,1)=Z, sigma(1,1)=Y, and qubit q
mapped to bit q of the basis-state index (little endian).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

DROP_TOL = 1e-12

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


class PauliError(ValueError):
    """Invalid Pauli operand (dimension mismatch, bad index, bad text)."""


def product_phase(x1: int, z1: int, x2: int, z2: int) -> int:
    """Quarter turns g, in 0..3, of the product sigma(x1, z1) sigma(x2, z2).

    sigma(x1, z1) sigma(x2, z2) = i**g sigma(x1 ^ x2, z1 ^ z2), from
    composing sigma(x, z) = i**|x & z| X^x Z^z factors and commuting Z^z1
    past X^x2 (Aaronson and Gottesman 2004, PRA 70, 052328).
    """
    g = (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        - ((x1 ^ x2) & (z1 ^ z2)).bit_count()
        + 2 * (z1 & x2).bit_count()
    )
    return g % 4


def anticommute(x1: int, z1: int, x2: int, z2: int) -> bool:
    """True iff sigma(x1, z1) and sigma(x2, z2) anticommute: the symplectic
    form |x1 & z2| + |z1 & x2| is odd."""
    return bool(((x1 & z2).bit_count() + (z1 & x2).bit_count()) & 1)


@dataclass(frozen=True)
class PauliProduct:
    """A single Pauli string with an exact quarter-turn phase."""

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

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliProduct":
        return cls(n_qubits, 0, 0, 0)

    @classmethod
    def single(cls, letter: str, qubit: int, n_qubits: int) -> "PauliProduct":
        if not 0 <= qubit < n_qubits:
            raise PauliError(f"qubit {qubit} out of range for {n_qubits} qubits")
        xb, zb = _BITS[letter.upper()]
        return cls(n_qubits, xb << qubit, zb << qubit)

    @classmethod
    def from_label(cls, label: str, n_qubits: int) -> "PauliProduct":
        """Parse a label like ``"X0 Z3 Y5"`` (``"I"`` for the identity)."""
        label = label.strip()
        x = z = 0
        if label and label != "I":
            for tok in label.split():
                m = re.fullmatch(r"([IXYZ])(\d+)", tok)
                if m is None:
                    raise PauliError(f"bad Pauli token {tok!r}")
                letter, q = m.group(1), int(m.group(2))
                if q >= n_qubits:
                    raise PauliError(f"qubit {q} out of range for {n_qubits} qubits")
                if (x >> q) & 1 or (z >> q) & 1:
                    raise PauliError(f"qubit {q} referenced twice in {label!r}")
                xb, zb = _BITS[letter]
                x |= xb << q
                z |= zb << q
        return cls(n_qubits, x, z)

    # -- basic queries -----------------------------------------------------

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_exp]

    @property
    def key(self) -> tuple[int, int]:
        """Phase-free symplectic key (x_bits, z_bits)."""
        return (self.x_bits, self.z_bits)

    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def y_count(self) -> int:
        return (self.x_bits & self.z_bits).bit_count()

    # -- algebra -----------------------------------------------------------

    def mul(self, other: "PauliProduct") -> "PauliProduct":
        """Exact product self * other (self acts on the left)."""
        if self.n_qubits != other.n_qubits:
            raise PauliError(
                f"qubit count mismatch: {self.n_qubits} vs {other.n_qubits}"
            )
        g = product_phase(self.x_bits, self.z_bits, other.x_bits, other.z_bits)
        return PauliProduct(
            self.n_qubits,
            self.x_bits ^ other.x_bits,
            self.z_bits ^ other.z_bits,
            self.phase_exp + other.phase_exp + g,
        )

    __mul__ = mul

    def commutes(self, other: "PauliProduct") -> bool:
        """True iff the symplectic form <x1,z2> + <z1,x2> is even."""
        if self.n_qubits != other.n_qubits:
            raise PauliError(
                f"qubit count mismatch: {self.n_qubits} vs {other.n_qubits}"
            )
        return not anticommute(self.x_bits, self.z_bits, other.x_bits, other.z_bits)

    def label(self) -> str:
        if self.is_identity():
            return "I"
        parts = []
        bits = self.x_bits | self.z_bits
        q = 0
        while bits:
            if bits & 1:
                parts.append(
                    f"{_LETTER[(self.x_bits >> q) & 1, (self.z_bits >> q) & 1]}{q}"
                )
            bits >>= 1
            q += 1
        return " ".join(parts)

    def __repr__(self):
        pre = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self.phase_exp]
        return f"PauliProduct({pre}{self.label()} on {self.n_qubits})"


@dataclass(frozen=True)
class CliffordMap:
    """A Clifford unitary built from CNOTs and qubit permutations.

    ``gates`` entries are ``("cnot", control, target)`` or
    ``("perm", p)`` where ``p[q]`` is the new position of qubit q.  Gates
    act on states in list order; ``conjugate`` returns U P U^dagger, and
    ``conjugate_words`` does so for whole arrays of (x, z) words.
    """

    n_qubits: int
    gates: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for g in self.gates:
            if g[0] == "cnot":
                _, c, t = g
                if not (0 <= c < self.n_qubits and 0 <= t < self.n_qubits) or c == t:
                    raise PauliError(f"bad cnot gate {g}")
            elif g[0] == "perm":
                p = g[1]
                if sorted(p) != list(range(self.n_qubits)):
                    raise PauliError(f"bad permutation {p}")
            else:
                raise PauliError(f"unknown gate kind {g[0]!r}")

    def conjugate_words(self, x, z):
        """U sigma(x, z) U^dagger = (-1)^s sigma(x', z'), as (x', z', s).

        ``x`` and ``z`` are Python ints or arrays of integer words (such as
        uint64), one phase-free product per word; s is 0 or 1 per word.  A
        CNOT(c -> t) copies the X bit of c onto t and the Z bit of t onto
        c, and flips the sign where x_c z_t (x_t XOR z_c XOR 1) is set; a
        permutation moves bit q to bit p[q] (Dehaene and De Moor 2003, PRA
        68, 042318; Aaronson and Gottesman 2004, PRA 70, 052328).
        """
        sign = x & 0  # a zero of the words' type
        for g in self.gates:
            if g[0] == "cnot":
                _, c, t = g
                xc, zt = (x >> c) & 1, (z >> t) & 1
                sign = sign ^ (xc & zt & ((x >> t) ^ (z >> c) ^ 1))
                x, z = x ^ (xc << t), z ^ (zt << c)
            else:
                x, z = _permute_words(x, g[1]), _permute_words(z, g[1])
        return x, z, sign

    def conjugate(self, p: PauliProduct) -> PauliProduct:
        """Return U p U^dagger (``conjugate_words`` on p's words)."""
        if p.n_qubits != self.n_qubits:
            raise PauliError(
                f"qubit count mismatch: {p.n_qubits} vs {self.n_qubits}"
            )
        x, z, sign = self.conjugate_words(p.x_bits, p.z_bits)
        return PauliProduct(self.n_qubits, x, z, p.phase_exp + 2 * sign)

    def inverse(self) -> "CliffordMap":
        inv = []
        for g in reversed(self.gates):
            if g[0] == "cnot":
                inv.append(g)
            else:
                # a permutation's inverse is its argsort
                inv.append(("perm", tuple(sorted(range(self.n_qubits), key=g[1].__getitem__))))
        return CliffordMap(self.n_qubits, tuple(inv))


def _permute_words(words, perm):
    """Bit q of each word moved to bit perm[q]."""
    out = words & 0
    for q, new_q in enumerate(perm):
        out = out | ((words >> q) & 1) << new_q
    return out


class PauliSum:
    """A complex-weighted sum of phase-free Pauli products.

    Terms are stored as a map from the symplectic key (x_bits, z_bits) to a
    complex coefficient; product phases are folded into coefficients, so no
    two stored terms share a key.
    """

    __slots__ = ("n_qubits", "_terms")

    def __init__(self, n_qubits: int, terms: dict | None = None):
        self.n_qubits = n_qubits
        self._terms: dict[tuple[int, int], complex] = dict(terms) if terms else {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_products(cls, pairs, n_qubits: int) -> "PauliSum":
        """Build from an iterable of (PauliProduct, coefficient) pairs."""
        s = cls(n_qubits)
        for p, c in pairs:
            s.add_product(p, c)
        return s

    @classmethod
    def from_label(cls, label: str, coeff: complex, n_qubits: int) -> "PauliSum":
        return cls.from_products(
            [(PauliProduct.from_label(label, n_qubits), coeff)], n_qubits
        )

    def copy(self) -> "PauliSum":
        return PauliSum(self.n_qubits, self._terms)

    def add_term(self, x_bits: int, z_bits: int, coeff: complex) -> None:
        key = (x_bits, z_bits)
        self._terms[key] = self._terms.get(key, 0.0) + coeff

    def add_product(self, p: PauliProduct, coeff: complex = 1.0) -> None:
        if p.n_qubits != self.n_qubits:
            raise PauliError(
                f"qubit count mismatch: {p.n_qubits} vs {self.n_qubits}"
            )
        self.add_term(p.x_bits, p.z_bits, coeff * p.phase)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        """Yield (PauliProduct with phase +1, coefficient) pairs."""
        for (x, z), c in self._terms.items():
            yield PauliProduct(self.n_qubits, x, z), c

    def items(self):
        """Yield ((x_bits, z_bits), coefficient) pairs."""
        return self._terms.items()

    def coefficient(self, p: PauliProduct) -> complex:
        return self._terms.get(p.key, 0.0) * p.phase.conjugate()

    def identity_coefficient(self) -> complex:
        return self._terms.get((0, 0), 0.0)

    def max_imag(self) -> float:
        return max((abs(c.imag) for c in self._terms.values()), default=0.0)

    def one_norm(self, include_identity: bool = False) -> float:
        """Sum of coefficient magnitudes, identity excluded unless flagged."""
        total = sum(abs(c) for c in self._terms.values())
        if not include_identity:
            total -= abs(self._terms.get((0, 0), 0.0))
        return float(total)

    def _check_bits(self) -> None:
        """PauliError unless every term fits in n_qubits qubits."""
        if self.n_qubits < 0:
            raise PauliError(f"negative qubit count {self.n_qubits}")
        used = 0
        for x, z in self._terms:
            used |= x | z
        if used >> self.n_qubits:
            raise PauliError("bitstring exceeds qubit count")

    # -- algebra -----------------------------------------------------------

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
        return PauliSum(
            self.n_qubits, {k: factor * c for k, c in self._terms.items()}
        )

    def __mul__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise PauliError("qubit count mismatch in product")
        self._check_bits()
        other._check_bits()
        out: dict[tuple[int, int], complex] = {}
        for (x1, z1), c1 in self._terms.items():
            for (x2, z2), c2 in other._terms.items():
                key = (x1 ^ x2, z1 ^ z2)
                phase = _PHASES[product_phase(x1, z1, x2, z2)]
                out[key] = out.get(key, 0.0) + c1 * c2 * phase
        return PauliSum(self.n_qubits, out)

    def simplify(self, tol: float = DROP_TOL) -> "PauliSum":
        """Drop terms with |coefficient| < tol (duplicates are always merged)."""
        if tol < 0:
            raise PauliError("tolerance must be nonnegative")
        return PauliSum(
            self.n_qubits,
            {k: c for k, c in self._terms.items() if abs(c) >= tol},
        )

    def commutes_with(self, other: "PauliSum", tol: float = DROP_TOL) -> bool:
        """Exact algebraic check that [self, other] vanishes."""
        comm = self * other - other * self
        return comm.simplify(tol).n_terms == 0

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    # -- text format -------------------------------------------------------

    def to_text(self) -> str:
        """One term per line in the dump format ``coeff * X0 Z3 Y5``."""
        lines = []
        for (x, z) in sorted(self._terms):
            c = self._terms[(x, z)]
            cs = repr(c) if c.imag != 0.0 else repr(c.real)
            lines.append(f"{cs} * {PauliProduct(self.n_qubits, x, z).label()}")
        return "\n".join(lines)

    def __repr__(self):
        return f"PauliSum({self.n_terms} terms on {self.n_qubits} qubits)"


class PauliArrays:
    """A Pauli sum held as arrays, the one operator form of the program:
    the qubit Hamiltonian, effective and swap-test operators, fragments.

    ``keys`` is a (terms, 2) uint64 array of distinct (x, z) words and
    ``coeffs`` a complex array, in term order.  ``len`` is the term count,
    so an empty sum is falsy.
    """

    __slots__ = ("n_qubits", "keys", "coeffs")

    def __init__(self, n_qubits: int, keys, coeffs):
        self.n_qubits, self.keys, self.coeffs = n_qubits, keys, coeffs

    def __len__(self) -> int:
        return len(self.coeffs)

    n_terms = property(__len__)

    def items(self) -> list:
        """((x_bits, z_bits), coefficient) pairs as Python ints and complex."""
        return list(zip(map(tuple, self.keys.tolist()), self.coeffs.tolist()))


def parse_pauli_sum(text: str, n_qubits: int | None = None) -> PauliSum:
    """Parse the ``to_text`` dump format back into a PauliSum."""
    entries = []
    max_q = -1
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if "*" not in line:
            raise PauliError(f"bad term line {line!r}")
        cs, label = line.split("*", 1)
        coeff = complex(cs.strip())
        label = label.strip() or "I"
        entries.append((coeff, label))
        for tok in label.split():
            if tok != "I":
                max_q = max(max_q, int(tok[1:]))
    if n_qubits is None:
        n_qubits = max_q + 1 if max_q >= 0 else 1
    out = PauliSum(n_qubits)
    for coeff, label in entries:
        out.add_product(PauliProduct.from_label(label, n_qubits), coeff)
    return out
