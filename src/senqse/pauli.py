"""Pauli products in a symplectic binary encoding.

A phase-free Pauli product on n qubits is the pair of bit words (x, z):
bit q set means the factor on qubit q has an X / Z component, both set
means Y, and qubit q is bit q of the basis-state index (little endian)::

    sigma(x, z) = prod_q sigma(x_q, z_q)

with sigma(0,0)=I, sigma(1,0)=X, sigma(0,1)=Z, sigma(1,1)=Y.  The rules on
one pair of products take Python integers, so they hold on any width;
``PauliArrays`` holds a whole sum as arrays of 64-bit words.  The one
Clifford the program applies, the tapering map, is ``taper.taper_words``,
which acts on such words directly.
"""

from __future__ import annotations

DROP_TOL = 1e-12


class PauliError(ValueError):
    """Invalid Pauli operand, such as a register too wide for its words."""


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
