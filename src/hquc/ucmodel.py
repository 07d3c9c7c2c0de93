"""Single-period unit commitment: data model, cost and feasibility semantics,
an exact economic dispatch kernel, an exact branch-and-bound solve and the
brute-force enumeration oracle it is tested against.

The problem is the classic one: pick on/off states ``y_i`` and outputs ``p_i``
minimizing ``sum_i (a_i y_i + b_i p_i + c_i p_i^2)`` subject to the power
balance ``sum_i p_i = load`` and box limits ``p_min_i y_i <= p_i <= p_max_i y_i``.

Dispatch uses marginal-price bisection: for a trial price ``mu`` each committed
unit produces ``clamp((mu - b) / (2 c), p_min, p_max)``; the price is bisected
until the balance closes.  Units with ``c == 0`` respond with a step at
``mu == b`` and are settled by a final greedy allocation inside the last
bisection bracket, which keeps the kernel exact for them too.  The bisection
(:func:`bisect_price`) and the settle (:func:`settle_bracket`) are the one
price-clearing kernel of the package: the first ADMM block (``hquc.qpblock``)
clears its price with them too, over its own per-unit response.

:func:`solve_uc_exact` searches the commitments depth first and prunes with
the Lagrangian dual of the balance constraint, whose price is bisected by the
same kernel; it prices leaves as :func:`enumerate_uc` does and returns the
same answer, tie rule and cost float included, without the 2**N walk.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TextIO

from .errors import (
    DuplicateId,
    Infeasible,
    InfeasibleCommitment,
    InvariantViolation,
    LengthMismatch,
    MalformedRow,
    TooLarge,
)

GENERATOR_CSV_HEADER = ("id", "a", "b", "c", "p_min", "p_max")

#: Hard cap on exhaustive enumeration (2**24 commitments).
ENUMERATION_LIMIT = 24


@dataclass(frozen=True)
class GeneratorParams:
    """Cost and capacity data for one generating unit.

    Committing unit ``i`` costs ``a`` per period; generation costs
    ``b * p + c * p**2`` for output ``p`` in MW.  Output must stay in
    ``[p_min, p_max]`` while the unit is on and is zero otherwise.  The cost
    at full output, ``a + b p_max + c p_max^2``, must be finite.
    """

    id: int
    a: float
    b: float
    c: float
    p_min: float
    p_max: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "p_min", "p_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvariantViolation(f"unit {self.id}: {name}={value} is not finite")
        if not (0.0 <= self.p_min <= self.p_max):
            raise InvariantViolation(
                f"unit {self.id}: need 0 <= p_min <= p_max, "
                f"got p_min={self.p_min}, p_max={self.p_max}"
            )
        if self.c < 0.0:
            raise InvariantViolation(f"unit {self.id}: quadratic cost c={self.c} < 0")
        if not math.isfinite(self.full_output_cost):
            raise InvariantViolation(
                f"unit {self.id}: cost a + b*p_max + c*p_max^2 overflows"
            )

    @property
    def full_output_cost(self) -> float:
        """``a + b p_max + c p_max^2``, summed as :func:`evaluate_cost` does."""
        return self.a + self.b * self.p_max + self.c * self.p_max * self.p_max

    def generation_cost(self, p: float) -> float:
        """Variable cost of producing ``p`` MW (commitment cost excluded)."""
        return self.b * p + self.c * p * p

    def marginal_cost(self, p: float) -> float:
        return self.b + 2.0 * self.c * p


@dataclass(frozen=True)
class UCInstance:
    """An immutable unit commitment instance: generator fleet plus load."""

    generators: tuple[GeneratorParams, ...]
    load: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        if len(self.generators) < 1:
            raise InvariantViolation("instance needs at least one generator")
        if not math.isfinite(self.load):
            raise InvariantViolation(f"load {self.load} is not finite")
        if self.load < 0.0:
            raise InvariantViolation(f"load {self.load} < 0")
        ids = [g.id for g in self.generators]
        if ids != list(range(1, len(ids) + 1)):
            raise InvariantViolation(f"unit ids must be 1..N without gaps, got {ids}")
        # Magnitudes, so that the outcome does not depend on the unit order.
        if not math.isfinite(sum(abs(g.full_output_cost) for g in self.generators)):
            raise InvariantViolation(
                "fleet cost: a + b*p_max + c*p_max^2, summed over units, overflows"
            )

    @property
    def n(self) -> int:
        return len(self.generators)

    def total_p_max(self) -> float:
        return math.fsum(g.p_max for g in self.generators)


@dataclass(frozen=True)
class Commitment:
    """On/off status per unit; ``bits[i-1]`` is the status of unit ``i``."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if any(b not in (0, 1) for b in self.bits):
            raise InvariantViolation(f"commitment bits must be 0/1, got {self.bits}")

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def bitstring(self) -> str:
        """Most-significant-unit-first rendering, e.g. units (1,1,0,1) -> '1011'."""
        return "".join(str(b) for b in reversed(self.bits))

    @classmethod
    def from_bitstring(cls, s: str) -> "Commitment":
        return cls(tuple(int(ch) for ch in reversed(s)))

    def on_units(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, b in enumerate(self.bits) if b)


@dataclass(frozen=True)
class UCSolution:
    """A commitment with its dispatch and total cost."""

    commitment: Commitment
    dispatch: tuple[float, ...]
    cost: float


@dataclass(frozen=True)
class Violation:
    """One violated constraint with the amount by which it is missed."""

    constraint: str
    unit: int | None
    slack: float


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[Violation, ...]


def parse_generators(source: str | TextIO) -> tuple[GeneratorParams, ...]:
    """Parse generator data from CSV with header ``id,a,b,c,p_min,p_max``.

    Returns units ordered by id (ids must be 1..N with no duplicates or gaps).
    Raises MalformedRow, DuplicateId or InvariantViolation with the offending
    line number in the message.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    reader = csv.reader(io.StringIO(text))
    rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    if not rows:
        raise MalformedRow("line 1: missing header row")
    header_line, header = rows[0]
    if tuple(col.strip() for col in header) != GENERATOR_CSV_HEADER:
        raise MalformedRow(
            f"line {header_line}: expected header {','.join(GENERATOR_CSV_HEADER)}, "
            f"got {','.join(header)}"
        )
    units: dict[int, GeneratorParams] = {}
    for lineno, row in rows[1:]:
        if len(row) != 6:
            raise MalformedRow(f"line {lineno}: expected 6 columns, got {len(row)}")
        try:
            uid = int(row[0])
            a, b, c, p_min, p_max = (float(v) for v in row[1:])
        except ValueError as exc:
            raise MalformedRow(f"line {lineno}: {exc}") from exc
        if uid in units:
            raise DuplicateId(f"line {lineno}: duplicate unit id {uid}")
        try:
            units[uid] = GeneratorParams(uid, a, b, c, p_min, p_max)
        except InvariantViolation as exc:
            raise InvariantViolation(f"line {lineno}: {exc}") from exc
    if not units:
        raise InvariantViolation("no generator rows: an instance needs N >= 1 units")
    ordered = [units[k] for k in sorted(units)]
    if [g.id for g in ordered] != list(range(1, len(ordered) + 1)):
        raise InvariantViolation(
            f"unit ids must be 1..N without gaps, got {sorted(units)}"
        )
    return tuple(ordered)


def _require_length(instance: UCInstance, seq: Sequence, what: str) -> None:
    if len(seq) != instance.n:
        raise LengthMismatch(f"{what} has length {len(seq)}, expected {instance.n}")


def evaluate_cost(
    instance: UCInstance, commitment: Commitment, dispatch: Sequence[float]
) -> float:
    """Total cost ``sum_i (a_i y_i + b_i p_i + c_i p_i^2)``."""
    _require_length(instance, commitment.bits, "commitment")
    _require_length(instance, dispatch, "dispatch")
    return math.fsum(
        g.a * y + g.b * p + g.c * p * p
        for g, y, p in zip(instance.generators, commitment.bits, dispatch)
    )


def check_feasible(
    instance: UCInstance,
    commitment: Commitment,
    dispatch: Sequence[float],
    tol: float = 1e-6,
) -> FeasibilityReport:
    """Check power balance and per-unit output limits within ``tol``."""
    _require_length(instance, commitment.bits, "commitment")
    _require_length(instance, dispatch, "dispatch")
    if tol < 0.0:
        raise InvariantViolation(f"tol {tol} < 0")
    violations: list[Violation] = []
    balance_gap = math.fsum(dispatch) - instance.load
    if abs(balance_gap) > tol:
        violations.append(Violation("balance", None, abs(balance_gap)))
    for g, y, p in zip(instance.generators, commitment.bits, dispatch):
        lo = g.p_min * y
        hi = g.p_max * y
        if p < lo - tol:
            violations.append(Violation("p_min", g.id, lo - p))
        if p > hi + tol:
            violations.append(Violation("p_max", g.id, p - hi))
    return FeasibilityReport(not violations, tuple(violations))


def _step_output(b: float, c: float, lo: float, hi: float, mu: float) -> float:
    """Single-unit response to price mu: argmin of b*p + c*p^2 - mu*p on [lo, hi]."""
    if c > 0.0:
        return min(max((mu - b) / (2.0 * c), lo), hi)
    return hi if mu > b else lo


def bisect_price(
    supply: Callable[[float], float], load: float, lo: float, hi: float
) -> tuple[float, float]:
    """Narrow a clearing-price bracket until no float lies strictly inside.

    ``supply(mu)`` must be nondecreasing in ``mu`` and the caller's bracket
    must hold ``supply(lo) <= load <= supply(hi)``; the invariant is kept.
    A finite bracket takes at most about 2100 halvings (2072 on
    ``[-1e300, 1e300]`` around 0); a NaN or infinite midpoint ends the loop.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if supply(mid) <= load:
            lo = mid
        else:
            hi = mid
    return lo, hi


def settle_bracket(
    p_lo: Sequence[float], p_hi: Sequence[float], load: float
) -> list[float]:
    """Close the balance gap left between the outputs at the bracket ends.

    Starts from ``p_lo`` and raises units toward ``p_hi`` greedily in unit
    order.  For smooth units the gap is a few ulps; for ``c == 0`` units
    sitting exactly at their price step this allocates across the flat
    segment.
    """
    need = load - math.fsum(p_lo)
    out = list(p_lo)
    for i in range(len(out)):
        if need <= 0.0:
            break
        room = p_hi[i] - p_lo[i]
        if room <= 0.0:
            continue
        add = min(need, room)
        out[i] += add
        need -= add
    return out


def _dispatch(instance: UCInstance, bits: Sequence[int]) -> list[float] | None:
    """Exact dispatch of the load over the units ``bits`` commits.

    Returns ``None`` when the load falls outside the committed capacity
    range ``[sum p_min, sum p_max]``.
    """
    on = [g for g, y in zip(instance.generators, bits) if y]
    load = instance.load
    p_min_sum = math.fsum(g.p_min for g in on)
    p_max_sum = math.fsum(g.p_max for g in on)
    if not (p_min_sum <= load <= p_max_sum):
        return None
    if load == p_min_sum:
        on_p = [g.p_min for g in on]
    elif load == p_max_sum:
        on_p = [g.p_max for g in on]
    else:

        def profile(mu: float) -> list[float]:
            return [_step_output(g.b, g.c, g.p_min, g.p_max, mu) for g in on]

        # Every unit sits at p_min at lo and at p_max at hi.
        lo, hi = bisect_price(
            lambda mu: math.fsum(profile(mu)),
            load,
            min(g.b + 2.0 * g.c * g.p_min for g in on) - 1.0,
            max(g.b + 2.0 * g.c * g.p_max for g in on) + 1.0,
        )
        on_p = settle_bracket(profile(lo), profile(hi), load)
    dispatch = [0.0] * instance.n
    for g, p in zip(on, on_p):
        dispatch[g.id - 1] = p
    return dispatch


def economic_dispatch(
    instance: UCInstance, commitment: Commitment
) -> tuple[float, ...]:
    """Minimum-cost dispatch of the load over the committed units.

    Raises InfeasibleCommitment when the load falls outside the committed
    capacity range ``[sum p_min, sum p_max]``.
    """
    _require_length(instance, commitment.bits, "commitment")
    dispatch = _dispatch(instance, commitment.bits)
    if dispatch is None:
        on = [g for g, y in zip(instance.generators, commitment.bits) if y]
        raise InfeasibleCommitment(
            f"load {instance.load} outside committed range "
            f"[{math.fsum(g.p_min for g in on)}, {math.fsum(g.p_max for g in on)}] "
            f"of units {[g.id for g in on]}"
        )
    return tuple(dispatch)


def cheapest_servable(
    instance: UCInstance, candidates: Iterable[tuple[int, ...]]
) -> UCSolution | None:
    """Cheapest candidate bits tuple that can serve the load, else ``None``.

    Ties in cost break toward the lexicographically smallest bits tuple
    (unit 1 first).
    """
    best: UCSolution | None = None
    for bits in candidates:
        dispatch = _dispatch(instance, bits)
        if dispatch is None:
            continue
        commitment = Commitment(bits)
        cost = evaluate_cost(instance, commitment, dispatch)
        if best is None or (cost, commitment.bits) < (best.cost, best.commitment.bits):
            best = UCSolution(commitment, tuple(dispatch), cost)
    return best


def enumerate_uc(instance: UCInstance) -> UCSolution:
    """Exhaustive ground-truth solve over all 2**N commitments.

    Ties in cost break toward the lexicographically smallest bits tuple
    (unit 1 first).  Raises TooLarge above the enumeration guard and
    Infeasible when no commitment can serve the load.
    """
    n = instance.n
    if n > ENUMERATION_LIMIT:
        raise TooLarge(f"N={n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    best = cheapest_servable(
        instance,
        (tuple((mask >> i) & 1 for i in range(n)) for mask in range(1 << n)),
    )
    if best is None:
        raise Infeasible(f"no commitment can serve load {instance.load}")
    return best


def _dual_term(g: GeneratorParams, mu: float) -> tuple[float, float]:
    """``phi(mu) = a + min over p in [p_min, p_max] of (b p + c p^2 - mu p)``
    for unit ``g``, with the minimizing output ``p``."""
    p = _step_output(g.b, g.c, g.p_min, g.p_max, mu)
    return g.a + g.b * p + g.c * p * p - mu * p, p


def _dual_bound(
    on: Sequence[GeneratorParams], free: Sequence[GeneratorParams], load: float
) -> tuple[float, float]:
    """Lagrangian lower bound on every commitment that keeps ``on`` on and
    may add any of ``free``, with the price ``mu`` it was taken at.

    Dualizing the balance with a price ``mu`` gives the bound
    ``mu * load + sum_on phi_i(mu) + sum_free min(0, phi_i(mu))`` (see
    :func:`_dual_term`).  It is concave in ``mu`` and its supergradient is
    ``load`` minus the output of the on units and of the free units with
    ``phi_i < 0``; that output is nondecreasing in ``mu``, so
    :func:`bisect_price` brackets the maximizer, and the bound is taken at
    the bracket's low end.  By weak duality every ``mu`` gives a valid bound.
    """

    def supply(mu: float) -> float:
        total = 0.0
        for g in on:
            total += _step_output(g.b, g.c, g.p_min, g.p_max, mu)
        for g in free:
            phi, p = _dual_term(g, mu)
            if phi < 0.0:
                total += p
        return total

    def value(mu: float) -> float:
        terms = [mu * load]
        terms.extend(_dual_term(g, mu)[0] for g in on)
        terms.extend(min(0.0, _dual_term(g, mu)[0]) for g in free)
        return math.fsum(terms)

    units = (*on, *free)
    # Below every b each unit sits at p_min and, for a >= 0, phi_i >= 0; above
    # every marginal and average cost at p_max each sits at p_max, phi_i < 0.
    lo, hi = bisect_price(
        supply,
        load,
        min(g.b for g in units) - 1.0,
        max(
            max(g.b + 2.0 * g.c * g.p_max, g.a / g.p_max + g.b + g.c * g.p_max)
            if g.p_max > 0.0
            else g.b
            for g in units
        )
        + 1.0,
    )
    return lo, value(lo)


#: Relative margin by which a node's bound must exceed the incumbent's cost
#: before the node is pruned; it absorbs the rounding of bound and leaf costs.
_PRUNE_RTOL = 1e-9


def solve_uc_exact(instance: UCInstance) -> UCSolution:
    """Exact solve by depth-first branch and bound: the answer of
    :func:`enumerate_uc`, without its size limit.

    Branches on the units in id order, the off branch first, so leaves are
    met in the order of :func:`enumerate_uc`'s tie rule and an incumbent is
    replaced only by a strictly cheaper leaf.  A node is pruned when its
    committed capacity range cannot hold the load, or when a Lagrangian
    bound on its leaves (:func:`_dual_bound`) exceeds the incumbent's cost by
    more than a relative ``1e-9``.  A node's bound at its parent's price is
    tried first, since it costs one unit's term.  Leaves are priced by
    :func:`cheapest_servable`, so the returned cost is the float
    :func:`enumerate_uc` returns.  Raises Infeasible when no commitment can
    serve the load.
    """
    gens = instance.generators
    load = instance.load
    best: UCSolution | None = None

    def pruned(bound: float) -> bool:
        return best is not None and bound > best.cost + _PRUNE_RTOL * abs(best.cost)

    # Each entry is the bits of units 1..k with a lower bound on its leaves.
    # The off child is pushed last, so it is searched first.
    stack: list[tuple[tuple[int, ...], float]] = [((), -math.inf)]
    while stack:
        bits, floor = stack.pop()
        if pruned(floor):
            continue
        k = len(bits)
        if k == instance.n:
            leaf = cheapest_servable(instance, (bits,))
            if leaf is not None and (best is None or leaf.cost < best.cost):
                best = leaf
            continue
        on = [g for g, y in zip(gens, bits) if y]
        free = gens[k:]
        # One fsum per side, as in _dispatch, so a prune never drops a leaf
        # that _dispatch would accept.
        if math.fsum(g.p_min for g in on) > load:
            continue
        if math.fsum(g.p_max for g in (*on, *free)) < load:
            continue
        floor_off = floor_on = -math.inf
        if best is not None:
            mu, bound = _dual_bound(on, free, load)
            if pruned(bound):
                continue
            # At the same mu, fixing unit k off drops min(0, phi_k) from the
            # bound and fixing it on adds max(0, phi_k).
            phi = _dual_term(gens[k], mu)[0]
            floor_off = bound - min(0.0, phi)
            floor_on = bound + max(0.0, phi)
        stack.append((bits + (1,), floor_on))
        stack.append((bits + (0,), floor_off))
    if best is None:
        raise Infeasible(f"no commitment can serve load {instance.load}")
    return best


def solution_to_csv(solution: UCSolution) -> str:
    """Render a solution as ``unit,committed,p_mw`` rows plus a cost comment."""
    lines = ["unit,committed,p_mw"]
    for i, (y, p) in enumerate(zip(solution.commitment.bits, solution.dispatch)):
        lines.append(f"{i + 1},{y},{p!r}")
    lines.append(f"# cost={solution.cost!r}")
    return "\n".join(lines) + "\n"


def solution_from_csv(text: str) -> UCSolution:
    """Parse the output of :func:`solution_to_csv`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "unit,committed,p_mw":
        raise MalformedRow("line 1: expected header unit,committed,p_mw")
    cost: float | None = None
    bits: list[int] = []
    dispatch: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("#"):
            if "cost=" not in line:
                raise MalformedRow(f"line {lineno}: expected '# cost=<value>'")
            cost = float(line.split("cost=", 1)[1])
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise MalformedRow(f"line {lineno}: expected 3 columns, got {len(parts)}")
        try:
            unit = int(parts[0])
            bits.append(int(parts[1]))
            dispatch.append(float(parts[2]))
        except ValueError as exc:
            raise MalformedRow(f"line {lineno}: {exc}") from exc
        if unit != len(bits):
            raise MalformedRow(f"line {lineno}: units out of order")
    if cost is None:
        raise MalformedRow("missing trailing '# cost=<value>' line")
    return UCSolution(Commitment(tuple(bits)), tuple(dispatch), cost)
