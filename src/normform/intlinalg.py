"""Exact integer/rational linear algebra: kernels, Gram determinants, LLL.

Everything here works on plain Python ints / Fractions so results are
exact; matrices are lists of row lists.  Desk scale: dimensions <= ~12.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def _gram_schmidt(basis) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact Gram-Schmidt data of the rows from their Gram matrix.

    Returns (mu, norms): b_i = b_i* + sum_{j<i} mu[i][j] b_j* and
    norms[i] = ||b_i*||^2.
    """
    r = len(basis)
    mu = [[Fraction(0)] * r for _ in range(r)]
    norms: list[Fraction] = []
    for i in range(r):
        for j in range(i):
            s = _dot(basis[i], basis[j]) - sum(mu[j][t] * mu[i][t] * norms[t]
                                               for t in range(j))
            mu[i][j] = s / norms[j] if norms[j] else Fraction(0)
        norms.append(Fraction(_dot(basis[i], basis[i]))
                     - sum(mu[i][t] ** 2 * norms[t] for t in range(i)))
    return mu, norms


LLL_DELTA = Fraction(99, 100)


def lll_reduce(basis: Matrix) -> Matrix:
    """LLL reduction over exact rationals; rows span the same lattice.

    Size-reduces b_k against b_{k-1}, ..., b_0, then runs the Lovasz test
    with LLL_DELTA; mu and the Gram-Schmidt norms are updated in place after
    each step (Cohen, Alg. 2.6.3).  Raises DependentRows when the rows are
    linearly dependent.
    """
    b = [list(map(int, row)) for row in basis]
    mu, norms = _gram_schmidt(b)
    if not all(norms):
        raise DependentRows("LLL basis rows not independent")
    half = Fraction(1, 2)
    k = 1
    while k < len(b):
        mk = mu[k]
        for j in range(k - 1, -1, -1):
            if abs(mk[j]) > half:
                q = _round_frac(mk[j])
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mj = mu[j]
                mk[j] -= q
                for i in range(j):
                    mk[i] -= q * mj[i]
        m = mk[k - 1]
        if norms[k] >= (LLL_DELTA - m * m) * norms[k - 1]:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        mu[k][:k - 1], mu[k - 1][:k - 1] = mu[k - 1][:k - 1], mu[k][:k - 1]
        B = norms[k] + m * m * norms[k - 1]
        mu[k][k - 1] = m * norms[k - 1] / B
        norms[k] = norms[k - 1] * norms[k] / B
        norms[k - 1] = B
        for i in range(k + 1, len(b)):
            mi = mu[i]
            t = mi[k]
            mi[k] = mi[k - 1] - m * t
            mi[k - 1] = t + mu[k][k - 1] * mi[k]
        k = max(k - 1, 1)
    return b


def near_orthogonality(basis) -> float:
    """c such that ||sum l_i z_i|| >= c sum ||l_i z_i|| for all real l.

    ||sum l_i z_i|| >= |l_i| ||z_i*|| for each i, so c = min_i(||z_i*||/||z_i||)/r
    works; this is the constant we report.
    """
    _, norms = _gram_schmidt(basis)
    ratios = [math.sqrt(float(ns / _dot(z, z))) for z, ns in zip(basis, norms)]
    return min(ratios) / len(ratios) if ratios else 1.0


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _round_frac(x: Fraction) -> int:
    # nearest integer, halves rounded up; fine for LLL size reduction
    return math.floor(x + Fraction(1, 2))


def enumerate_short_vectors(basis: Matrix, radius2: Fraction, limit: int = 10**7):
    """Yield all nonzero lattice vectors v with ||v||^2 <= radius2.

    Fincke-Pohst on the Gram matrix of an (ideally reduced) basis: an exact
    rational LDL^T decomposition, then integer arithmetic only.  Yields
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
    truncated leaf is yielded, then BudgetExceeded raised."""
    r = len(basis)
    if r == 0:
        return
    if r > 10:
        raise RankTooLarge(f"enumeration limited to rank 10, got {r}")
    G = [[Fraction(x) for x in row] for row in gram_matrix(basis)]
    # Cholesky-like decomposition: G = R^T diag(d) R with R unit upper triangular
    d = [Fraction(0)] * r
    R = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        R[i][i] = Fraction(1)
        s = G[i][i] - sum(d[j] * R[j][i] ** 2 for j in range(i))
        d[i] = s
        if s <= 0:
            raise DependentRows("basis rows not independent")
        for j in range(i + 1, r):
            R[i][j] = (G[i][j] - sum(d[t] * R[t][i] * R[t][j] for t in range(i))) / s
    if radius2 < 0:
        return
    # row i of R over one integer denominator: R[i][j] == num[i][j] / den[i]
    den = [math.lcm(*(x.denominator for x in row)) for row in R]
    num = [[int(x * dn) for x in row] for row, dn in zip(R, den)]
    # squared lengths as integers over one denominator M: coefficient x at
    # level i with center c/den[i] uses w[i] * (x*den[i] - c)**2 of the budget
    radius2 = Fraction(radius2)
    scale = [di.denominator * dn * dn for di, dn in zip(d, den)]
    M = math.lcm(radius2.denominator, *scale)
    w = [di.numerator * (M // sc) for di, sc in zip(d, scale)]
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
    radius2 = max(sum(x * x for x in row) for row in red)
    n = len(red[0])
    cands = [(sum(x * x for x in v), v) for _, v in
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
