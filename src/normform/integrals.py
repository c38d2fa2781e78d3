"""Slice integrals over exponent polytopes.

The basic object is the (l-1)-dimensional integral of 1/(e_1...e_l) over
the slice sum(e) = s of a product of intervals; l = 1 degenerates to the
point evaluation 1/s.  Quadrature is recursive adaptive with interval
splitting at the points where the inner domain changes shape.  Each piece
is integrated by a port of QUADPACK's 21-point Gauss-Kronrod rule and the
first pass of its adaptive driver (Piessens et al., QUADPACK, Springer
1983, routines dqk21 and dqagse) with the same order of operations, so
the values match QUADPACK's bit for bit wherever its first pass is
accepted; pieces that need bisection are refined without QUADPACK's
epsilon extrapolation.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

log = logging.getLogger("normform")


@dataclass(frozen=True)
class PolytopeSpec:
    """Product-of-intervals polytope for l prime-factor exponents.

    intervals[i] is the closed (lo, hi) range of e_(i+1), in units of
    log X.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.intervals:
            if not (0 < lo <= hi):
                raise ValueError("exponent intervals must satisfy 0 < lo <= hi")

    @property
    def ell(self) -> int:
        return len(self.intervals)

    @classmethod
    def make(cls, intervals) -> "PolytopeSpec":
        return cls(tuple((float(a), float(b)) for a, b in intervals))


# relative tolerance of the outermost quad; each inner level gets 4x looser
REL_TOL = 1e-10


def polytope_integral(spec: PolytopeSpec, target_sum: float) -> float:
    """Integral of 1/(e_1...e_l) over the slice sum(e_i) = target_sum.

    Exactly 1/target_sum for l = 1 when the target lies in the interval;
    0 on an empty slice.
    """
    return _slice_integral(list(spec.intervals), float(target_sum), REL_TOL)


def _slice_integral(intervals, s: float, rel_tol: float) -> float:
    ell = len(intervals)
    if ell == 0:
        return 0.0
    if ell == 1:
        lo, hi = intervals[0]
        return 1.0 / s if lo <= s <= hi else 0.0
    lo1, hi1 = intervals[0]
    rest = intervals[1:]
    rest_lo = rest_hi = 0.0
    for lo, hi in rest:  # left to right: sum() compensates floats on 3.12+
        rest_lo += lo
        rest_hi += hi
    a = max(lo1, s - rest_hi)
    b = min(hi1, s - rest_lo)
    if a > b:
        return 0.0
    if abs(a - b) < 1e-15:
        return 0.0

    def integrand(e1: float) -> float:
        return _slice_integral(rest, s - e1, rel_tol * 4) / e1

    # split at points where the inner slice geometry changes: whenever
    # s - e1 crosses an endpoint sum of a sub-facet; for products of
    # intervals the kinks are at s - e1 = rest_lo + (b_i - a_i) patterns.
    kinks = set()
    for i, (ai, bi) in enumerate(rest):
        for corner in (rest_lo - ai + bi, rest_hi - bi + ai):
            e1 = s - corner
            if a < e1 < b:
                kinks.add(e1)
    pts = sorted({a, b} | kinks)
    total = 0.0
    for x0, x1 in zip(pts, pts[1:]):
        if x1 - x0 < 1e-15:
            continue
        total += _adaptive(integrand, x0, x1, rel_tol)
    return total


# dqk21's abscissae (_XGK[1], _XGK[3], ... are the 10-point Gauss nodes)
# and weights, to QUADPACK's 33 digits; _WGK[10] weighs the centre
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPS = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b].

    The sums run in dqk21's order (centre, Gauss nodes, the other Kronrod
    nodes, then resasc over the 20 off-centre nodes), so the floats are
    QUADPACK's.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in range(5):
        jtw = 2 * j + 1
        absc = hlgth * _XGK[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(5):
        jtwm1 = 2 * j
        absc = hlgth * _XGK[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        abserr = max((_EPS * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _adaptive(f, a: float, b: float, rel_tol: float, limit: int = 200) -> float:
    """Integral of f over [a, b] to relative tolerance rel_tol.

    The first pass and its exit tests are dqagse's with epsabs = 0: accept
    when abserr <= rel_tol*|result| and abserr != resasc (dqagse calls
    dqk21's resasc "resabs"), when abserr == 0, or on round-off, when
    abserr <= 100*eps*resabs but above the tolerance.  Otherwise bisect
    the piece with the largest error, keeping dqagse's list order and
    running sums, until the error sum is <= rel_tol*|area| or limit pieces
    are used (logged as a WARNING).  There is no epsilon extrapolation.
    """
    result, abserr, defabs, resasc = _qk21(f, a, b)
    errbnd = rel_tol * abs(result)
    roundoff = abserr <= 100.0 * _EPS * defabs and abserr > errbnd
    if roundoff or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return result
    pieces = [(a, b, result, abserr)]  # dqagse's alist, blist, rlist, elist
    area, errsum = result, abserr
    while len(pieces) < limit:
        i = max(range(len(pieces)), key=lambda k: pieces[k][3])
        a1, b2, area_i, err_i = pieces[i]
        b1 = 0.5 * (a1 + b2)
        left = (a1, b1, *_qk21(f, a1, b1)[:2])
        right = (b1, b2, *_qk21(f, b1, b2)[:2])
        errsum = errsum + (left[3] + right[3]) - err_i
        area = area + (left[2] + right[2]) - area_i
        # the half with the larger error keeps the slot, as in dqagse
        pieces[i], new = (right, left) if right[3] > left[3] else (left, right)
        pieces.append(new)
        if errsum <= rel_tol * abs(area):
            break
    else:
        log.warning("slice integral on [%r, %r]: %d subintervals used, "
                    "error estimate %.3g above the %.3g target", a, b, limit,
                    errsum, rel_tol * abs(area))
    total = 0.0
    for piece in pieces:  # left to right like dqagse; sum() compensates on 3.12+
        total += piece[2]
    return total


def closed_form_l2(a: float, b: float, s: float = 1.0) -> float:
    """The l = 2 slice integral with e1 in [a, b], e2 unconstrained.

    Over the slice e1 + e2 = s: integral of de1 / (e1 (s - e1)) on [a, b],
    which is log(e1/(s-e1))/s evaluated at the ends.
    """
    if not 0 < a <= b < s:
        raise ValueError("need 0 < a <= b < s")
    return (math.log(b / (s - b)) - math.log(a / (s - a))) / s
