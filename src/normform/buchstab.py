"""The Buchstab identity as an exact combinatorial check on integer sets.

Convention: S(A, z) counts elements whose least prime factor exceeds z
(|a| = 1 counts always); the subtracted terms count, for each prime p in
(z1, z2], the elements of A_p = {a/p : a in A, p | a} whose least prime
factor is >= p.  With this pairing the identity holds exactly, repeated
factors included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .primes import factorize


def _lpf(fac: dict[int, int]) -> float:
    return min(fac) if fac else float("inf")


@dataclass
class BuchstabReport:
    size: int
    z1: float
    z2: float
    s_z1: int
    s_z2: int
    middle_sum: int
    residual: int

    def to_json_dict(self) -> dict:
        return self.__dict__.copy()


def buchstab_report(values, z1, z2) -> BuchstabReport:
    """Both sides of the identity for the values; residual must be 0.

    residual = S(A, z2) - [S(A, z1) - sum_(z1 < p <= z2) S_>=(A_p, p)].
    Factorization failures (a composite cofactor above factorize's default
    size limit, 2^64) raise FactorizationBudget, a value 0 ValidationError.
    """
    vals = [abs(int(v)) for v in values]
    if 0 in vals:
        raise ValidationError("0 has no least prime factor")
    facs = [factorize(v) for v in vals]
    s2 = sum(1 for f in facs if _lpf(f) > z2)
    s1 = sum(1 for f in facs if _lpf(f) > z1)
    lo, hi = max(2, int(z1) + 1), int(z2)
    middle = 0
    # each value meets only its own primes in (z1, z2]: no sieve up to z2
    for f in facs:
        for p, e in f.items():
            if lo <= p <= hi:
                g = dict(f)
                if e == 1:
                    del g[p]
                else:
                    g[p] -= 1
                if _lpf(g) >= p:
                    middle += 1
    return BuchstabReport(size=len(vals), z1=z1, z2=z2, s_z1=s1, s_z2=s2,
                          middle_sum=middle, residual=s2 - (s1 - middle))


def buchstab_residual(values, z1, z2) -> int:
    """The residual of buchstab_report for nonzero integer values."""
    return buchstab_report(values, z1, z2).residual
