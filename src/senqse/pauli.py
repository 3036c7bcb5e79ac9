"""Pauli products in a symplectic binary encoding.

A phase-free Pauli product on n qubits is the pair of bit words (x, z):
bit q set means the factor on qubit q has an X / Z component, both set
means Y, and qubit q is bit q of the basis-state index (little endian)::

    sigma(x, z) = prod_q sigma(x_q, z_q)

with sigma(0,0)=I, sigma(1,0)=X, sigma(0,1)=Z, sigma(1,1)=Y.  The rules on
one pair of products take Python integers, so they hold on any width;
``PauliArrays`` holds a whole sum as arrays of 64-bit words, and
``CliffordMap.conjugate_words`` conjugates such arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DROP_TOL = 1e-12


class PauliError(ValueError):
    """Invalid Pauli operand (a register too wide, a bad Clifford gate)."""


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


def label(x: int, z: int) -> str:
    """The label of sigma(x, z), such as ``"X0 Z3 Y5"``; ``"I"`` for the identity."""
    support = x | z
    letters = [
        f"{'IXZY'[(x >> q & 1) + 2 * (z >> q & 1)]}{q}"
        for q in range(support.bit_length())
        if support >> q & 1
    ]
    return " ".join(letters) or "I"


@dataclass(frozen=True)
class CliffordMap:
    """A Clifford unitary built from CNOTs and qubit permutations.

    ``gates`` entries are ``("cnot", control, target)`` or
    ``("perm", p)`` where ``p[q]`` is the new position of qubit q.  Gates
    act on states in list order; ``conjugate_words`` returns U P U^dagger
    for Python ints or whole arrays of (x, z) words.
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


def _permute_words(words, perm):
    """Bit q of each word moved to bit perm[q]."""
    out = words & 0
    for q, new_q in enumerate(perm):
        out = out | ((words >> q) & 1) << new_q
    return out


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
