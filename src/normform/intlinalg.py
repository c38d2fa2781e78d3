"""Exact integer/rational linear algebra: kernels, Gram determinants, LLL.

Everything here works on plain Python ints / Fractions so results are
exact; matrices are lists of row lists.  Desk scale: dimensions <= ~12.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import BudgetExceeded, DependentRows, RankTooLarge

Matrix = list[list[int]]


def gram_matrix(basis: Matrix) -> Matrix:
    return [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]


def det_bareiss(mat) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [list(map(int, row)) for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i]:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[-1][-1]


def gram_det(basis: Matrix) -> int:
    """det(B B^T): the squared covolume of the lattice spanned by the rows."""
    return det_bareiss(gram_matrix(basis))


def _row_reduce(mat):
    """Reduced row echelon form over Q: (rows, pivot columns).

    Gauss-Jordan with exact Fractions; stops once every row holds a pivot.
    """
    m = [[Fraction(x) for x in row] for row in mat]
    rows = len(m)
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [t * inv for t in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                fac = m[i][c]
                m[i] = [a - fac * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def rank_rational(mat) -> int:
    """Rank over Q."""
    return len(_row_reduce(mat)[1])


def solve_rational(rows, rhs):
    """The unique rational x with rows @ x == rhs, or None.

    None when the system is inconsistent or its solution is not unique
    (for a square system: singular).
    """
    n = len(rows[0]) if rows else 0
    red, pivots = _row_reduce([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return [row[n] for row in red[:n]]


def rank_mod_p(mat, p: int) -> int:
    """Rank over F_p (p prime)."""
    m = [[int(x) % p for x in row] for row in mat]
    rows = len(m)
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [t * inv % p for t in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                fac = m[i][c]
                m[i] = [(a - fac * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


def kernel_oracle(constraints: Matrix, n: int | None = None) -> Matrix:
    """Saturated integer kernel of an r x n constraint matrix.

    Unimodular column reduction (Hermite-style elimination by gcd steps):
    C is transformed to [H | 0] while tracking the column operations on the
    identity; the trailing columns span ker(C) over Z exactly.
    Raises DependentRows if the rows are not linearly independent.
    """
    r = len(constraints)
    if n is None:
        n = len(constraints[0]) if r else 0
    A = [list(map(int, row)) for row in constraints]
    # columns of U: U starts as identity; we store U transposed (rows = columns)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    piv = 0
    for row in range(r):
        j0 = next((j for j in range(piv, n) if A[row][j]), None)
        if j0 is None:
            raise DependentRows(f"row {row} dependent on earlier rows")
        _col_swap(A, U, piv, j0)
        while True:
            j1 = next((j for j in range(piv + 1, n) if A[row][j]), None)
            if j1 is None:
                break
            if abs(A[row][j1]) < abs(A[row][piv]):
                _col_swap(A, U, piv, j1)
            q = A[row][j1] // A[row][piv]
            if q:
                for rr in range(r):
                    A[rr][j1] -= q * A[rr][piv]
                U[j1] = [a - q * b for a, b in zip(U[j1], U[piv])]
            if A[row][j1]:
                _col_swap(A, U, piv, j1)
        piv += 1
    return [U[j] for j in range(piv, n)]


def _col_swap(A, U, i, j):
    if i == j:
        return
    for row in A:
        row[i], row[j] = row[j], row[i]
    U[i], U[j] = U[j], U[i]


def kernel_sequential(constraints: Matrix, n: int) -> Matrix:
    """Saturated integer kernel, one constraint at a time.

    Independent of kernel_oracle: starting from Z^n, each functional c is
    imposed by gcd-combining the current basis so that exactly one basis
    vector carries the residual value c.x = g, which is then dropped.
    """
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for c in constraints:
        vals = [sum(ci * bi for ci, bi in zip(c, b)) for b in basis]
        # gcd-reduce (vals, basis) pairs so only position 0 keeps a nonzero value
        order = [i for i in range(len(basis))]
        carrier = None
        for i in order:
            if vals[i] == 0:
                continue
            if carrier is None:
                carrier = i
                continue
            # combine carrier and i
            a, b = vals[carrier], vals[i]
            g, x, y = _xgcd(a, b)
            # new carrier vector: x*B[carrier] + y*B[i]  (value g)
            # replacement for slot i:  -(b//g)*B[carrier] + (a//g)*B[i]  (value 0)
            bc, bi = basis[carrier], basis[i]
            basis[carrier] = [x * u + y * v for u, v in zip(bc, bi)]
            basis[i] = [-(b // g) * u + (a // g) * v for u, v in zip(bc, bi)]
            vals[carrier], vals[i] = g, 0
        if carrier is None:
            raise DependentRows("constraint dependent on earlier ones")
        basis = [b for i, b in enumerate(basis) if i != carrier]
    return basis


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _gram_schmidt(basis) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data of the rows (Cohen, Alg. 2.6.7, step 2).

    Returns (d, lam): d[0] = 1 and d[i + 1] is the Gram determinant of rows
    0..i, so ||b_i*||^2 = d[i + 1] / d[i]; lam[i][j] = d[j + 1] * mu_ij for
    j < i, where b_i = b_i* + sum_{j<i} mu_ij b_j*, and 0 elsewhere.  All
    are integers and every division is exact.  Raises DependentRows once
    some d[i + 1] is 0, i.e. exactly when the rows are dependent.
    """
    r = len(basis)
    d = [1]
    lam = [[0] * r for _ in range(r)]
    for i, (bi, li) in enumerate(zip(basis, lam)):
        for j in range(i + 1):
            lj = lam[j]
            u = _dot(bi, basis[j])
            for t in range(j):
                u = (d[t + 1] * u - li[t] * lj[t]) // d[t]
            if j < i:
                li[j] = u
            elif u:
                d.append(u)
            else:
                raise DependentRows(f"row {i} dependent on earlier rows")
    return d, lam


def lll_reduce(basis: Matrix) -> Matrix:
    """LLL reduction on integer Gram data; rows span the same lattice.

    Cohen's integral LLL (Alg. 2.6.7; de Weger 1987) on the d and lam of
    _gram_schmidt, updated in place by exact divisions: size-reduces b_k
    against b_{k-1}, ..., b_0 (mu rounded, halves up), then runs the Lovasz
    test with delta = 99/100.  Each test is the rational algorithm's cleared
    of denominators, so the decisions are the same.  Raises DependentRows
    when the rows are linearly dependent.
    """
    b = [list(map(int, row)) for row in basis]
    d, lam = _gram_schmidt(b)
    k = 1
    while k < len(b):
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            if 2 * abs(lk[j]) > dj:
                q = (2 * lk[j] + dj) // (2 * dj)
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lj = lam[j]
                lk[j] -= q * dj
                for i in range(j):
                    lk[i] -= q * lj[i]
        m = lk[k - 1]
        # B_k >= (99/100 - mu^2) B_{k-1}, times 100 d[k] d[k-1]
        if 100 * d[k + 1] * d[k - 1] >= 99 * d[k] * d[k] - 100 * m * m:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        lam[k][:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lam[k][:k - 1]
        B = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, len(b)):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - m * t) // d[k]
            li[k - 1] = (B * t + m * li[k]) // d[k + 1]
        d[k] = B
        k = max(k - 1, 1)
    return b


def near_orthogonality(basis) -> float:
    """c such that ||sum l_i z_i|| >= c sum ||l_i z_i|| for all real l.

    ||sum l_i z_i|| >= |l_i| ||z_i*|| for each i, so c = min_i(||z_i*||/||z_i||)/r
    works; this is the constant we report.  Raises DependentRows when the
    rows are linearly dependent.
    """
    d, _ = _gram_schmidt(basis)
    ratios = [math.sqrt(float(Fraction(d[i + 1], d[i] * _dot(z, z))))
              for i, z in enumerate(basis)]
    return min(ratios) / len(ratios) if ratios else 1.0


def _dot(u, v):
    return sum(map(mul, u, v))


def enumerate_short_vectors(basis: Matrix, radius2: Fraction, limit: int = 10**7):
    """Yield all nonzero lattice vectors v with ||v||^2 <= radius2.

    Fincke-Pohst on an (ideally reduced) basis, in integer arithmetic only:
    the set-up reads the integral Gram-Schmidt data of _gram_schmidt.  Yields
    (coefficients, vector) pairs, each +-v pair once: the one whose last
    nonzero coefficient is positive.  Raises RankTooLarge beyond rank 10 and
    BudgetExceeded once more than limit coefficient choices have been made.
    """
    for tail, partial, lo, stop in _leaf_intervals(basis, radius2, limit):
        for x in range(lo, stop):
            yield [x] + tail, [t + x * y for t, y in zip(partial, basis[0])]


def _leaf_intervals(basis: Matrix, radius2: Fraction, limit: int):
    """The walk of enumerate_short_vectors, one leaf at a time: (coefficients
    above level 0, their vector v, [lo, stop)) stands for v + x * basis[0],
    lo <= x < stop.  Leaves count whole against limit; past it, the
    truncated leaf is yielded, then BudgetExceeded raised.  The set-up reads
    the integral Gram-Schmidt data (Cohen, Alg. 2.6.7), and each interval test
    is the rational one cleared of denominators, so the leaves, their order
    and the limit accounting are those of the rational algorithm."""
    r = len(basis)
    if r == 0:
        return
    if r > 10:
        raise RankTooLarge(f"enumeration limited to rank 10, got {r}")
    d, lam = _gram_schmidt(basis)
    if radius2 < 0:
        return
    # level i: x_i + sum_{j>i} mu_ji x_j = (x_i*den[i] - c) / den[i] with
    # den[i] = d[i+1], c = -sum_{j>i} lam[j][i] x_j and ||b_i*||^2 = d[i+1] / d[i];
    # over one denominator M, x at level i uses w[i] * (x*den[i] - c)**2 of the budget
    radius2 = Fraction(radius2)
    den = d[1:]
    num = list(zip(*lam))
    M = math.lcm(radius2.denominator, *(a * b for a, b in zip(d, den)))
    w = [M // (a * b) for a, b in zip(d, den)]
    coeffs = [0] * r
    count = 0

    def rec(level: int, remaining: int, sign: int, partial: list[int]):
        # sign: that of the last nonzero coefficient above level (0 if none);
        # partial: sum of coeffs[j] * basis[j] over j > level
        nonlocal count
        dn, row, wl = den[level], num[level], w[level]
        # the admissible x are exactly those with |x*dn - c| <= s
        c = -sum(row[j] * coeffs[j] for j in range(level + 1, r))
        s = math.isqrt(remaining // wl)
        lo, hi = -((s - c) // dn), (c + s) // dn
        if level == 0:
            # the leaves: count the whole interval at once; past the budget,
            # yield the leaves it still allows, then raise
            stop = hi + 1
            over = count + stop - lo > limit
            if over:
                stop = lo + limit - count
            count += stop - lo
            if sign >= 0:
                yield coeffs[1:], partial, lo if sign else max(lo, 1), stop
            if over:
                raise BudgetExceeded("short-vector enumeration budget")
            return
        bl = basis[level]
        for x in range(lo, hi + 1):
            count += 1
            if count > limit:
                raise BudgetExceeded("short-vector enumeration budget")
            coeffs[level] = x
            t = x * dn - c
            yield from rec(level - 1, remaining - wl * t * t, sign or (x > 0) - (x < 0),
                           [u + x * y for u, y in zip(partial, bl)])
        coeffs[level] = 0

    yield from rec(r - 1, radius2.numerator * (M // radius2.denominator), 0,
                   [0] * len(basis[0]))


def successive_minima(basis: Matrix, limit: int = 10**7) -> tuple[list[int], Matrix]:
    """Exact successive minima (squared) of the row lattice, rank <= 10.

    LLL-reduces first, enumerates inside the ball of radius = longest
    reduced vector, then greedily picks successively shortest vectors that
    are linearly independent.  Returns (squared minima, achieving vectors).
    A candidate is independent of the vectors chosen so far exactly when it
    is not orthogonal to their integer kernel.
    """
    red = lll_reduce(basis)
    r = len(red)
    radius2 = max(_dot(row, row) for row in red)
    n = len(red[0])
    cands = [(_dot(v, v), v) for _, v in
             enumerate_short_vectors(red, Fraction(radius2), limit=limit)]
    cands.sort(key=lambda t: (t[0], t[1]))
    minima: list[int] = []
    chosen: Matrix = []
    kernel = kernel_sequential([], n)
    for norm2, v in cands:
        if any(_dot(kv, v) for kv in kernel):
            minima.append(norm2)
            chosen.append(v)
            if len(chosen) == r:
                break
            kernel = kernel_sequential(chosen, n)
    return minima, chosen
