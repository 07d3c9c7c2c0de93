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
best of the three edges.  Everything in it that does not depend on the price
(the stationary ``y``, whether it can hold, each edge's quadratic
coefficient) is computed once per solve into one tuple per unit
(``_unit_constants``), and a supply evaluation (``_profile``) is one flat
loop over those tuples, with no call per unit; it matches the per-unit
oracle ``reference_unit_response`` in ``tests/helpers.py`` bit for bit.
Strict convexity in ``y`` (rho > 0) makes the per-unit response unique and
continuous whenever ``c > 0``; ``c == 0`` units respond with one flat price
step that a final in-bracket allocation settles.
The supply is therefore piecewise affine in ``mu``.  Its bracket grows by
doubling steps, with no cap, until it holds the clearing price or leaves the
float range, and the price search (``hquc.ucmodel.bisect_price``)
interpolates the supply between the bracket ends, so a solve takes about 10
supply evaluations where plain bisection took 52, and ends on bisection's
bracket.  The search and the settle are the price-clearing kernel of
``hquc.ucmodel``, shared with the economic dispatch of a fixed commitment.

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

from .errors import InfeasibleRelaxation, InvariantViolation, LengthMismatch
from .ucmodel import UCInstance, bisect_price, price_past, settle_bracket


@dataclass(frozen=True)
class Block1Problem:
    """Frozen data for one first-block solve."""

    instance: UCInstance
    z: tuple[float, ...]
    r: tuple[float, ...]
    lam: tuple[float, ...]
    rho: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", tuple(float(v) for v in self.z))
        object.__setattr__(self, "r", tuple(float(v) for v in self.r))
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))
        n = self.instance.n
        for name, seq in (("z", self.z), ("r", self.r), ("lam", self.lam)):
            if len(seq) != n:
                raise LengthMismatch(f"{name} has length {len(seq)}, expected {n}")
        if self.rho <= 0.0:
            raise InvariantViolation(f"rho {self.rho} <= 0")


@dataclass(frozen=True)
class Block1Solution:
    """Optimal point with its augmented Lagrangian value and KKT certificate."""

    y: tuple[float, ...]
    p: tuple[float, ...]
    objective: float
    kkt_residual: float


def block1_objective(
    problem: Block1Problem, y: Sequence[float], p: Sequence[float]
) -> float:
    """Full augmented Lagrangian value at ``(y, p)`` with the frozen iterates."""
    n = problem.instance.n
    if len(y) != n or len(p) != n:
        raise LengthMismatch(f"y/p lengths {len(y)}/{len(p)}, expected {n}")
    gens = problem.instance.generators
    terms = []
    for i, g in enumerate(gens):
        slack = y[i] - problem.z[i] + problem.r[i]
        terms.append(g.a * y[i] + g.b * p[i] + g.c * p[i] * p[i])
        terms.append((problem.beta / 2.0) * problem.r[i] * problem.r[i])
        terms.append(problem.lam[i] * slack)
        terms.append((problem.rho / 2.0) * slack * slack)
    return math.fsum(terms)


def _unit_constants(
    g_lin: float, b: float, c: float, p_min: float, p_max: float, rho: float
) -> tuple:
    """One unit's price-response constants, in :func:`_profile`'s field order."""
    half_rho = rho / 2.0
    y0 = -g_lin / rho
    quad_lo = c * p_min * p_min + half_rho
    quad_hi = c * p_max * p_max + half_rho
    return (
        g_lin, b, c, 2.0 * c, p_min, p_max, half_rho,
        y0, c > 0.0 and 0.0 <= y0 <= 1.0, p_min * y0, p_max * y0,
        quad_lo, 2.0 * quad_lo, quad_hi, 2.0 * quad_hi,
    )


def _profile(units, mu: float) -> tuple[list[float], list[float]]:
    """Each unit's minimizing ``(y, p)`` of
    ``c p^2 + (b - mu) p + (rho/2) y^2 + g_lin y`` over its triangle.

    Either the stationary point, or the best of the edges ``y = 1``,
    ``p = p_min y`` and ``p = p_max y`` (earliest on a tie; a flat segment
    in ``p`` at a c == 0 price step gives its low end).  Every float is
    computed by the same expression, in the same order, as in the per-unit
    oracle ``reference_unit_response`` of ``tests/helpers.py``: reordering
    any sum or product would move last bits and so the ADMM trajectory.
    The clamps are written as the conditionals ``max`` and ``min`` evaluate.
    """
    ys, ps = [], []
    # One unit's constants: g_lin, b, c, 2c, p_min, p_max, rho/2; the
    # stationary y0 = -g_lin/rho, whether it can hold (c > 0 and y0 in
    # [0, 1]), p_min*y0, p_max*y0; each edge's quad = c*edge^2 + rho/2, 2*quad.
    for (
        g_lin, b, c, c2, p_min, p_max, half_rho,
        y0, interior, p_min_y0, p_max_y0,
        quad_lo, quad2_lo, quad_hi, quad2_hi,
    ) in units:
        if c > 0.0:
            p0 = (mu - b) / c2
            if interior and p_min_y0 <= p0 <= p_max_y0:
                ys.append(y0)
                ps.append(p0)
                continue
            p1 = p_min if p_min > p0 else p0
            p1 = p_max if p_max < p1 else p1
        else:
            p1 = p_max if mu > b else p_min
        b_mu = b - mu
        best_y, best_p = 1.0, p1
        best_val = c * p1 * p1 + b_mu * p1 + half_rho + g_lin

        lin = b_mu * p_min + g_lin
        ye = -lin / quad2_lo
        ye = 0.0 if 0.0 > ye else ye
        ye = 1.0 if 1.0 < ye else ye
        val = quad_lo * ye * ye + lin * ye
        if val < best_val:
            best_y, best_p, best_val = ye, p_min * ye, val

        lin = b_mu * p_max + g_lin
        ye = -lin / quad2_hi
        ye = 0.0 if 0.0 > ye else ye
        ye = 1.0 if 1.0 < ye else ye
        if quad_hi * ye * ye + lin * ye < best_val:
            best_y, best_p = ye, p_max * ye
        ys.append(best_y)
        ps.append(best_p)
    return ys, ps


def _kkt_residual(
    problem: Block1Problem,
    y: Sequence[float],
    p: Sequence[float],
    g_lin: Sequence[float],
    mu: float,
) -> float:
    """Distance of the gradient from the active-constraint normal cone.

    A ray's distance is taken as ``|w x n| / |n|``: ``|w - t n|`` cancels.
    """
    gens = problem.instance.generators
    rho = problem.rho
    worst = 0.0
    for i, g in enumerate(gens):
        # The per-unit closed forms land exactly on their active constraints,
        # so a tight activity window keeps complementarity honest.
        scale = 1e-9 * max(1.0, g.p_max)
        normals = []
        if abs(g.p_min * y[i] - p[i]) <= scale:
            normals.append((g.p_min, -1.0))
        if abs(p[i] - g.p_max * y[i]) <= scale:
            normals.append((-g.p_max, 1.0))
        if y[i] <= 1e-12:
            normals.append((-1.0, 0.0))
        if y[i] >= 1.0 - 1e-12:
            normals.append((1.0, 0.0))
        wy, wp = -(rho * y[i] + g_lin[i]), -(2.0 * g.c * p[i] + g.b - mu)
        res = math.hypot(wy, wp)
        for (ay, ap), (by, bp) in combinations(normals, 2):
            det = ay * bp - ap * by
            if det != 0.0:
                s, t = (wy * bp - wp * by) / det, (ay * wp - ap * wy) / det
                if s >= 0.0 and t >= 0.0:
                    res = 0.0
        for u, v in normals:
            if wy * u + wp * v > 0.0:
                res = min(res, abs(wy * v - wp * u) / math.hypot(u, v))
        worst = max(worst, res)
    balance = abs(math.fsum(p) - problem.instance.load)
    return max(worst, balance)


def solve_block1(problem: Block1Problem) -> Block1Solution:
    """Solve the first block by a price search; the result carries its KKT residual.

    The clearing price is bracketed, expanding geometrically as needed, and
    narrowed by :func:`hquc.ucmodel.bisect_price` to adjacent floats; the
    outputs at the two ends are settled to close the balance exactly.

    Raises InfeasibleRelaxation when the load exceeds the fleet capacity; then
    the original binary problem is infeasible as well and the caller should stop.
    Raises InvariantViolation, naming the load, when no float price clears it.
    """
    inst = problem.instance
    load = inst.load
    cap = inst.total_p_max()
    if load > cap:
        raise InfeasibleRelaxation(
            f"load {load} outside [0, {cap}]: relaxed block infeasible"
        )

    gens = inst.generators
    rho = problem.rho
    g_lin = [
        g.a + problem.lam[i] + rho * (problem.r[i] - problem.z[i])
        for i, g in enumerate(gens)
    ]
    units = [
        _unit_constants(g_lin[i], g.b, g.c, g.p_min, g.p_max, rho)
        for i, g in enumerate(gens)
    ]

    # Every final bracket end has been passed to supply, so its profile is
    # read back from here.  No trial price is -0.0, which would share 0.0's key.
    profiles = {}

    def supply(mu: float) -> float:
        profile = profiles[mu] = _profile(units, mu)
        return math.fsum(profile[1])

    def widen(end: float, side: float, step: float) -> float:
        # Double the step until supply(end) - load has the sign of side.
        while math.isfinite(end):
            if side * (supply(end) - load) >= 0.0:
                return end
            end += side * step
            step *= 2.0
        raise InvariantViolation(f"no float price clears load {load} in block 1")

    lo = price_past(min(g.b for g in gens), -1.0)
    hi = price_past(max(g.marginal_cost(g.p_max) for g in gens), 1.0)
    lo = widen(lo, -1.0, 1.0 + (hi - lo))
    hi = widen(hi, 1.0, 1.0 + (hi - lo))

    lo, hi = bisect_price(supply, load, lo, hi)
    y, p_lo = profiles[lo]
    p_hi = profiles[hi][1]
    p = settle_bracket(p_lo, p_hi, load)

    mu = 0.5 * (lo + hi)
    return Block1Solution(
        y=tuple(y),
        p=tuple(p),
        objective=block1_objective(problem, y, p),
        kkt_residual=_kkt_residual(problem, y, p, g_lin, mu),
    )
