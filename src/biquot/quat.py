"""Quaternion component arrays: the product table and its broadcasting helpers.

Quaternions are stored as (re, i, j, k) component vectors and that order is
fixed everywhere, including serialized output.  `qmul`, `qconj` and
`qnorm_sq` broadcast over leading axes so the matrix layer can run batched.
The scalar `Quaternion` is kept for the `quaternion-algebra` property check
and as the tests' independent oracle; the library itself works on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MUL_TABLE",
    "Quaternion",
    "qconj",
    "qmul",
    "qnorm_sq",
]


def _build_mul_table() -> np.ndarray:
    """table[p, q, c] is component c of the basis product e_p * e_q."""
    table = np.zeros((4, 4, 4))
    products = {
        (0, 0): (0, 1.0), (0, 1): (1, 1.0), (0, 2): (2, 1.0), (0, 3): (3, 1.0),
        (1, 0): (1, 1.0), (1, 1): (0, -1.0), (1, 2): (3, 1.0), (1, 3): (2, -1.0),
        (2, 0): (2, 1.0), (2, 1): (3, -1.0), (2, 2): (0, -1.0), (2, 3): (1, 1.0),
        (3, 0): (3, 1.0), (3, 1): (2, 1.0), (3, 2): (1, -1.0), (3, 3): (0, -1.0),
    }
    for (p, q), (c, sign) in products.items():
        table[p, q, c] = sign
    return table


MUL_TABLE = _build_mul_table()


@dataclass(frozen=True)
class Quaternion:
    """Scalar quaternion re + ci*i + cj*j + ck*k over binary64 floats."""

    re: float = 0.0
    ci: float = 0.0
    cj: float = 0.0
    ck: float = 0.0

    def __post_init__(self) -> None:
        for name in ("re", "ci", "cj", "ck"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"quaternion component {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        re, ci, cj, ck = np.asarray(a, dtype=float)
        return cls(re, ci, cj, ck)

    @property
    def array(self) -> np.ndarray:
        return np.array([self.re, self.ci, self.cj, self.ck])

    def conj(self) -> "Quaternion":
        return Quaternion(self.re, -self.ci, -self.cj, -self.ck)

    def norm_sq(self) -> float:
        return self.re * self.re + self.ci * self.ci + self.cj * self.cj + self.ck * self.ck

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.re + other.re, self.ci + other.ci,
                          self.cj + other.cj, self.ck + other.ck)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.re - other.re, self.ci - other.ci,
                          self.cj - other.cj, self.ck - other.ck)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.re, -self.ci, -self.cj, -self.ck)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b = self, other
            return Quaternion(
                a.re * b.re - a.ci * b.ci - a.cj * b.cj - a.ck * b.ck,
                a.re * b.ci + a.ci * b.re + a.cj * b.ck - a.ck * b.cj,
                a.re * b.cj - a.ci * b.ck + a.cj * b.re + a.ck * b.ci,
                a.re * b.ck + a.ci * b.cj - a.cj * b.ci + a.ck * b.re,
            )
        if isinstance(other, (int, float)):
            k = float(other)
            return Quaternion(self.re * k, self.ci * k, self.cj * k, self.ck * k)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component-array quaternion product; broadcasts over leading axes."""
    return np.einsum("...p,...q,pqc->...c", a, b, MUL_TABLE)


def qconj(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def qnorm_sq(a: np.ndarray) -> np.ndarray:
    return np.sum(np.square(a), axis=-1)
