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
best of the three edges.  Strict convexity in ``y`` (rho > 0) makes the
per-unit response unique and continuous whenever ``c > 0``; ``c == 0`` units
respond with one flat price step that a final in-bracket allocation settles.
The supply is therefore piecewise affine in ``mu``, and the price search
(``hquc.ucmodel.bisect_price``) interpolates it between the bracket ends, so
a solve takes about 10 supply evaluations where plain bisection took 52, and
ends on bisection's bracket.  The search and the settle are the
price-clearing kernel of ``hquc.ucmodel``, shared with the economic dispatch
of a fixed commitment.

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
from .ucmodel import UCInstance, _step_output, bisect_price, settle_bracket


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


def _unit_response(
    g_lin: float,
    b: float,
    c: float,
    pmin: float,
    pmax: float,
    rho: float,
    mu: float,
) -> tuple[float, float]:
    """Minimize ``c p^2 + (b - mu) p + (rho/2) y^2 + g_lin y`` over the triangle.

    Returns the minimizing ``(y, p)``; when the minimum in ``p`` is a flat
    segment (c == 0 at its price step) the low end is returned.
    """
    if c > 0.0:
        y0 = -g_lin / rho
        p0 = (mu - b) / (2.0 * c)
        if 0.0 <= y0 <= 1.0 and pmin * y0 <= p0 <= pmax * y0:
            return y0, p0

    # Edge y = 1.
    p1 = _step_output(b, c, pmin, pmax, mu)
    best_y, best_p = 1.0, p1
    best_val = c * p1 * p1 + (b - mu) * p1 + rho / 2.0 + g_lin

    # Edges p = pmin * y and p = pmax * y (cover the apex (0, 0) via clamping).
    for edge in (pmin, pmax):
        quad = c * edge * edge + rho / 2.0
        lin = (b - mu) * edge + g_lin
        ye = min(max(-lin / (2.0 * quad), 0.0), 1.0)
        pe = edge * ye
        val = quad * ye * ye + lin * ye
        if val < best_val:
            best_y, best_p, best_val = ye, pe, val
    return best_y, best_p


def _profile(problem_data, mu: float) -> tuple[list[float], list[float]]:
    ys, ps = [], []
    for g_lin, b, c, pmin, pmax, rho in problem_data:
        y, p = _unit_response(g_lin, b, c, pmin, pmax, rho, mu)
        ys.append(y)
        ps.append(p)
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
    data = [
        (g_lin[i], g.b, g.c, g.p_min, g.p_max, rho) for i, g in enumerate(gens)
    ]

    def supply(mu: float) -> float:
        return math.fsum(_profile(data, mu)[1])

    # Bracket the clearing price, expanding geometrically as needed.
    lo = min(g.b for g in gens) - 1.0
    hi = max(g.b + 2.0 * g.c * g.p_max for g in gens) + 1.0
    step = 1.0 + (hi - lo)
    for _ in range(200):
        if supply(lo) <= load:
            break
        lo -= step
        step *= 2.0
    else:
        raise InvariantViolation("failed to bracket the clearing price from below")
    step = 1.0 + (hi - lo)
    for _ in range(200):
        if supply(hi) >= load:
            break
        hi += step
        step *= 2.0
    else:
        raise InvariantViolation("failed to bracket the clearing price from above")

    lo, hi = bisect_price(supply, load, lo, hi)
    y, p_lo = _profile(data, lo)
    _, p_hi = _profile(data, hi)
    p = settle_bracket(p_lo, p_hi, load)

    mu = 0.5 * (lo + hi)
    return Block1Solution(
        y=tuple(y),
        p=tuple(p),
        objective=block1_objective(problem, y, p),
        kkt_residual=_kkt_residual(problem, y, p, g_lin, mu),
    )
