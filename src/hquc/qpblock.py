"""First ADMM block: the convex QP over the relaxed commitments and outputs.

With the binary vector ``z``, the slack ``r`` and the duals ``lam`` frozen,
the block minimizes

    sum_i (a_i y_i + b_i p_i + c_i p_i^2)
    + (beta / 2) * sum_i r_i^2                      (constant in this block)
    + sum_i lam_i * (y_i - z_i + r_i)
    + (rho / 2) * sum_i (y_i - z_i + r_i)^2

subject to ``sum_i p_i = load``, ``p_min_i y_i <= p_i <= p_max_i y_i`` and
``0 <= y_i <= 1``.

The objective is separable across units except for the single balance
constraint, so the solve dualizes the balance with a scalar price ``mu`` and
searches for it.  For a fixed price each unit minimizes a strictly convex
quadratic over the triangle ``{(y, p): 0 <= y <= 1, p_min y <= p <= p_max y}``,
which has a closed form: either the unconstrained stationary point or the
best of the three edges, and for ``c == 0`` the one edge ``p = e y`` that
the price favours.  Everything in it that no ADMM iteration changes (the
capacity, the cold bracket, each unit's costs, limits, edge coefficients
and slopes) is built once per run into a :class:`Block1Constants`; each
solve adds the fields that depend on the iterates (the stationary ``y`` and
whether it can hold) into one tuple per unit (``_unit_constants``), and a
supply evaluation (``_profile``) is one flat loop over those tuples, with
no call per unit; it matches the per-unit oracle ``reference_unit_response``
in ``tests/helpers.py`` bit for bit.  The same pass sums each unit's slope
``dp/dmu`` on the piece it is on.
Strict convexity in ``y`` (rho > 0) makes the per-unit response unique and
continuous whenever ``c > 0``; ``c == 0`` units respond with one flat price
step that a final in-bracket allocation settles.
The supply is therefore piecewise affine and nondecreasing in ``mu``, in
floats too, so the final bracket does not depend on where the search
starts or which trials it prices.  The search steps out from a start price
by Newton steps on the supply's own slope, or by doubling steps where the
slope is 0, until the supply crosses the load or the price leaves the
float range, and the price search (``hquc.ucmodel.bisect_price``) takes
Newton steps from the bracket's ends, safeguarded by interpolation and
bisection, and ends on bisection's bracket: Newton's method on a
nondecreasing piecewise-affine supply is the continuous quadratic knapsack
method of Cominetti, Mascarenhas and Silva (Mathematical Programming
Computation 6, 2014).  From the fleet's cold bracket a solve takes about 6
supply evaluations where plain bisection took 52.  Consecutive ADMM
iterations pose almost the same problem, so ``run_admm`` passes each solve
the previous clearing price as the start, and a solve takes about 5
(warm starting, as in Boyd et al., "Distributed optimization and
statistical learning via ADMM", 2011).  The search and the settle are the
price-clearing kernel of ``hquc.ucmodel``, shared with the economic
dispatch of a fixed commitment.

The returned point is certified a posteriori: the KKT residual is the largest
distance of any per-unit negative gradient from the cone of its (at most three)
active constraint normals, together with the balance gap.  In the plane that
distance is 0 when two of the normals combine nonnegatively to the point
(Caratheodory), else the distance to the nearest normal's ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import InfeasibleRelaxation, InvariantViolation
from .ucmodel import (
    GeneratorParams,
    UCInstance,
    bisect_price,
    fsum_or_sum,
    price_past,
    settle_bracket,
)


@dataclass(frozen=True)
class Block1Solution:
    """Optimal point with its augmented Lagrangian value and KKT certificate."""

    y: tuple[float, ...]
    p: tuple[float, ...]
    objective: float
    kkt_residual: float
    #: The clearing price, the midpoint of the final bracket.
    price: float


def augmented_lagrangian(
    generators: Sequence[GeneratorParams],
    y: Sequence[float],
    p: Sequence[float],
    z: Sequence[float],
    r: Sequence[float],
    lam: Sequence[float],
    rho: float,
    beta: float,
) -> float:
    """The augmented Lagrangian at ``(y, p, z, r, lam)``, summed by one
    exactly rounded ``math.fsum``, so the order of its terms does not matter,
    or past the float range by :func:`~hquc.ucmodel.fsum_or_sum`."""
    half_beta, half_rho = beta / 2.0, rho / 2.0
    terms = []
    for g, yi, pi, zi, ri, li in zip(generators, y, p, z, r, lam):
        slack = yi - zi + ri
        terms += (
            g.a * yi + g.b * pi + g.c * pi * pi,
            half_beta * ri * ri,
            li * slack,
            half_rho * slack * slack,
        )
    return fsum_or_sum(terms)


class Block1Constants:
    """Block 1's constants for one instance and ``rho``: all that no ADMM
    iteration changes, built once per run by :func:`~hquc.admm.admm_steps`
    and passed to every :func:`solve_block1` of the run.

    ``cap`` is the fleet capacity and ``cold`` the cold bracket's ends,
    :func:`~hquc.ucmodel.price_past` the least ``b`` and the greatest
    marginal cost at ``p_max``.  ``a`` holds each unit's ``a``, ``units``
    each unit's :func:`_static_constants`, and ``kkt`` each unit's
    ``(p_min, p_max, 1e-9 max(1, p_max), c, b)`` for :func:`_kkt_residual`.
    """

    __slots__ = ("instance", "rho", "cap", "cold", "a", "units", "kkt")

    def __init__(self, instance: UCInstance, rho: float) -> None:
        gens = instance.generators
        self.instance, self.rho = instance, rho
        self.cap = instance.total_p_max()
        self.cold = (
            price_past(min(g.b for g in gens), -1.0),
            price_past(max(g.marginal_cost(g.p_max) for g in gens), 1.0),
        )
        self.a = tuple(g.a for g in gens)
        self.units = tuple(
            _static_constants(g.b, g.c, g.p_min, g.p_max, rho) for g in gens
        )
        self.kkt = tuple(
            (g.p_min, g.p_max, 1e-9 * max(1.0, g.p_max), g.c, g.b) for g in gens
        )


def _static_constants(
    b: float, c: float, p_min: float, p_max: float, rho: float
) -> tuple:
    """One unit's price-response constants that do not depend on ``g_lin``,
    in :func:`_profile`'s field order: ``b``, ``c``, ``2c``, ``p_min``,
    ``p_max``, ``rho/2``, each edge's ``quad = c edge^2 + rho/2`` and
    ``2 quad``, and the slopes ``1/(2c)`` (0 for c == 0) and each edge's
    ``edge^2 / (2 quad)``."""
    half_rho = rho / 2.0
    quad_lo = c * p_min * p_min + half_rho
    quad_hi = c * p_max * p_max + half_rho
    quad2_lo, quad2_hi = 2.0 * quad_lo, 2.0 * quad_hi
    return (
        b, c, 2.0 * c, p_min, p_max, half_rho,
        quad_lo, quad2_lo, quad_hi, quad2_hi,
        1.0 / (2.0 * c) if c > 0.0 else 0.0,
        p_min * p_min / quad2_lo, p_max * p_max / quad2_hi,
    )


def _unit_constants(g_lin: float, static: tuple, rho: float) -> tuple:
    """One unit's :func:`_profile` tuple: ``g_lin``, the stationary
    ``y0 = -g_lin/rho``, whether it can hold (c > 0 and ``y0`` in [0, 1]),
    ``p_min*y0`` and ``p_max*y0``, then the unit's ``static`` constants."""
    y0 = -g_lin / rho
    return (
        g_lin, y0, static[1] > 0.0 and 0.0 <= y0 <= 1.0,
        static[3] * y0, static[4] * y0,
    ) + static


def _profile(units, mu: float) -> tuple[list[float], list[float], float]:
    """Each unit's minimizing ``(y, p)`` of
    ``c p^2 + (b - mu) p + (rho/2) y^2 + g_lin y`` over its triangle, and
    the sum of every unit's ``dp/dmu`` on the piece it is on.

    For c > 0, either the stationary point, or the best of the edges
    ``y = 1``, ``p = p_min y`` and ``p = p_max y`` (earliest on a tie).  For
    c == 0, the edge ``p = e y`` with ``e = p_max`` above ``b`` and ``p_min``
    at or below it (the low end of the flat segment at the price step): the
    minimum lies on it, so no rounded comparison can pick another edge, and
    the output is nondecreasing in ``mu``.  Every float is
    computed by the same expression, in the same order, as in the per-unit
    oracle ``reference_unit_response`` of ``tests/helpers.py``: reordering
    any sum or product would move last bits and so the ADMM trajectory.
    The clamps are written as the conditionals ``max`` and ``min`` evaluate.

    A unit's slope is ``1/(2c)`` at the stationary point or strictly inside
    the ``y = 1`` edge's range, ``e^2/(2 quad)`` on the edge ``p = e y``
    with ``0 < y < 1`` (``e^2/rho`` for c == 0), and 0 where it is clamped.
    """
    ys, ps = [], []
    slope = 0.0
    # The fields of _unit_constants, then those of _static_constants.
    for (
        g_lin, y0, interior, p_min_y0, p_max_y0,
        b, c, c2, p_min, p_max, half_rho,
        quad_lo, quad2_lo, quad_hi, quad2_hi,
        slope_c, slope_lo, slope_hi,
    ) in units:
        if c > 0.0:
            p0 = (mu - b) / c2
            if interior and p_min_y0 <= p0 <= p_max_y0:
                ys.append(y0)
                ps.append(p0)
                slope += slope_c
                continue
            p1 = p_min if p_min > p0 else p0
            p1 = p_max if p_max < p1 else p1
        else:
            # Both edges' 2 quad are rho here.  (b - mu) * 0 is NaN where
            # b - mu overflows; the term is 0.
            if mu > b:
                e, d = p_max, slope_hi
            else:
                e, d = p_min, slope_lo
            lin = (b - mu) * e + g_lin if e else g_lin
            ye = -lin / quad2_lo
            ye = 0.0 if 0.0 > ye else ye
            ye = 1.0 if 1.0 < ye else ye
            ys.append(ye)
            ps.append(e * ye)
            if 0.0 < ye < 1.0:
                slope += d
            continue
        b_mu = b - mu
        best_y, best_p = 1.0, p1
        best_val = c * p1 * p1 + b_mu * p1 + half_rho + g_lin
        d = slope_c if p_min < p0 < p_max else 0.0

        lin = b_mu * p_min + g_lin
        ye = -lin / quad2_lo
        ye = 0.0 if 0.0 > ye else ye
        ye = 1.0 if 1.0 < ye else ye
        val = quad_lo * ye * ye + lin * ye
        if val < best_val:
            best_y, best_p, best_val = ye, p_min * ye, val
            d = slope_lo if 0.0 < ye < 1.0 else 0.0

        lin = b_mu * p_max + g_lin
        ye = -lin / quad2_hi
        ye = 0.0 if 0.0 > ye else ye
        ye = 1.0 if 1.0 < ye else ye
        if quad_hi * ye * ye + lin * ye < best_val:
            best_y, best_p = ye, p_max * ye
            d = slope_hi if 0.0 < ye < 1.0 else 0.0
        ys.append(best_y)
        ps.append(best_p)
        slope += d
    return ys, ps, slope


def _kkt_residual(
    constants: Block1Constants,
    y: Sequence[float],
    p: Sequence[float],
    g_lin: Sequence[float],
    mu: float,
) -> float:
    """Distance of the gradient from the active-constraint normal cone.

    A ray's distance is taken as ``|w x n| / |n|``: ``|w - t n|`` cancels.
    Once two normals certify that the gradient is in the cone, the unit's
    distance is exactly 0, and its other pairs and rays are not tested.
    """
    rho = constants.rho
    worst = 0.0
    for (p_min, p_max, scale, c, b), yi, pi, gi in zip(constants.kkt, y, p, g_lin):
        # The per-unit closed forms land exactly on their active constraints,
        # so a tight activity window (scale = 1e-9 max(1, p_max)) keeps
        # complementarity honest.
        normals = []
        if abs(p_min * yi - pi) <= scale:
            normals.append((p_min, -1.0))
        if abs(pi - p_max * yi) <= scale:
            normals.append((-p_max, 1.0))
        if yi <= 1e-12:
            normals.append((-1.0, 0.0))
        if yi >= 1.0 - 1e-12:
            normals.append((1.0, 0.0))
        wy, wp = -(rho * yi + gi), -(2.0 * c * pi + b - mu)
        for (ay, ap), (by, bp) in combinations(normals, 2):
            det = ay * bp - ap * by
            if det != 0.0:
                s, t = (wy * bp - wp * by) / det, (ay * wp - ap * wy) / det
                if s >= 0.0 and t >= 0.0:
                    break
        else:
            res = math.hypot(wy, wp)
            for u, v in normals:
                if wy * u + wp * v > 0.0:
                    res = min(res, abs(wy * v - wp * u) / math.hypot(u, v))
            worst = max(worst, res)
    balance = abs(math.fsum(p) - constants.instance.load)
    return max(worst, balance)


def solve_block1(
    instance: UCInstance | Block1Constants,
    z: Sequence[float],
    r: Sequence[float],
    lam: Sequence[float],
    rho: float,
    beta: float,
    start: float | None = None,
) -> Block1Solution:
    """Solve the first block at the frozen iterates ``z``, ``r`` and ``lam``
    by a price search; the result carries its KKT residual and its
    :func:`augmented_lagrangian` value.

    ``instance`` is the instance, or its :class:`Block1Constants` for this
    ``rho``, which :func:`~hquc.admm.admm_steps` builds once per run.
    Nothing is checked here.  That caller passes a finite
    ``rho > beta > 0`` from :class:`~hquc.admm.AdmmConfig`, and ``z``,
    ``r`` and ``lam`` of the instance's length.

    The clearing price is bracketed and narrowed by
    :func:`hquc.ucmodel.bisect_price` to adjacent floats; the outputs at the
    two ends are settled to close the balance exactly.

    The cold bracket is :func:`~hquc.ucmodel.price_past` the fleet's least
    ``b`` and greatest marginal cost at ``p_max``.  ``start``, when given,
    is a price to start from, the previous ADMM iteration's clearing price
    in :func:`~hquc.admm.run_admm`.  The search starts there, wherever it
    lies, with a step of ``2e-3 (1 + |start|)``; with no start, or at full
    load, it starts at the cold low end with a step of ``1 + (hi - lo)``.
    It prices the start, then steps outward until the supply crosses the
    load: above it going up, or at the capacity, which no price exceeds; at
    or below it going down.  Where the supply's slope is positive the step
    is Newton's, ``mu + (load - supply) / slope``, moved on toward the load
    by a nudge of 1 ulp that grows 4x a step.  Elsewhere, and at full load,
    it is the doubling step: a step that would pass the cold end ahead
    lands on that end and is not doubled, and every other doubles the
    next.  The two end supplies and the slope go to the search.  The
    supply is nondecreasing, so every start gives the same floats, but at
    full load the result is the high end itself, so the search starts cold
    there and takes no Newton step out.  The price is the final bracket's
    midpoint, halved before the sum where ``lo + hi`` overflows.

    Raises InfeasibleRelaxation when the load exceeds the fleet capacity; then
    the original binary problem is infeasible as well and the caller should stop.
    Raises InvariantViolation, naming the load, when no float price clears
    it.  ``start`` is the previous clearing price, which is finite.
    """
    if isinstance(instance, Block1Constants):
        constants, instance = instance, instance.instance
    else:
        constants = Block1Constants(instance, rho)
    load, cap = instance.load, constants.cap
    if load > cap:
        raise InfeasibleRelaxation(
            f"load {load} outside [0, {cap}]: relaxed block infeasible"
        )

    g_lin = [a + li + rho * (ri - zi) for a, zi, ri, li in zip(constants.a, z, r, lam)]
    units = [_unit_constants(gl, st, rho) for gl, st in zip(g_lin, constants.units)]

    # Every final bracket end has been passed to supply, so its profile is
    # read back from here.  No trial price is -0.0, which would share 0.0's key.
    profiles = {}

    def supply(mu: float) -> float:
        profile = profiles[mu] = _profile(units, mu)
        return math.fsum(profile[1])

    def slope(mu: float) -> float:
        return profiles[mu][2]

    lo, hi = constants.cold
    if start is None or load == cap:
        price, step = lo, 1.0 + (hi - lo)
    else:
        price, step = start, 2e-3 * (1.0 + abs(start))
    near = price, supply(price)
    side = 1.0 if near[1] <= load else -1.0
    ahead = hi if side > 0.0 else lo
    nudge = 1.0
    while True:
        d = slope(near[0]) if load < cap else 0.0
        trial = math.nan
        if 0.0 < d < math.inf:
            trial = near[0] + (load - near[1]) / d
            trial += side * nudge * math.ulp(trial)
            nudge *= 4.0
        if not math.isfinite(trial):
            trial = near[0] + side * step
            if min(near[0], trial) < ahead < max(near[0], trial):
                trial = ahead
            else:
                step *= 2.0
            if not math.isfinite(trial):
                raise InvariantViolation(f"no float price clears load {load} in block 1")
        s = supply(trial)
        # No price lifts the supply above the capacity: at full load,
        # reaching it crosses the load.
        if (s > load or s == cap) if side > 0.0 else s <= load:
            break
        near = trial, s
    (lo, s_lo), (hi, s_hi) = (near, (trial, s)) if side > 0.0 else ((trial, s), near)
    lo, hi = bisect_price(supply, load, lo, hi, s_lo, s_hi, slope)

    y, p_lo, _ = profiles[lo]
    p_hi = profiles[hi][1]
    p = settle_bracket(p_lo, p_hi, load)

    mu = 0.5 * (lo + hi)
    if math.isinf(mu):  # lo + hi overflowed
        mu = 0.5 * lo + 0.5 * hi
    return Block1Solution(
        y=tuple(y),
        p=tuple(p),
        objective=augmented_lagrangian(instance.generators, y, p, z, r, lam, rho, beta),
        kkt_residual=_kkt_residual(constants, y, p, g_lin, mu),
        price=mu,
    )
