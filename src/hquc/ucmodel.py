"""Single-period unit commitment: data model, cost and feasibility semantics,
an exact economic dispatch kernel, an exact branch-and-bound solve and the
brute-force enumeration oracle it is tested against.

The problem is the classic one: pick on/off states ``y_i`` and outputs ``p_i``
minimizing ``sum_i (a_i y_i + b_i p_i + c_i p_i^2)`` subject to the power
balance ``sum_i p_i = load`` and box limits ``p_min_i y_i <= p_i <= p_max_i y_i``.

Dispatch clears a marginal price: for a trial price ``mu`` each committed
unit produces ``clamp((mu - b) / (2 c), p_min, p_max)``, and the price bracket
is narrowed until no float lies inside it.  The supply is affine between
known prices, its breakpoints: ``b + 2 c p_min`` and ``b + 2 c p_max`` of a
unit with ``c > 0``, where it leaves ``p_min`` and reaches ``p_max``, and
``b`` of a ``c == 0`` unit, whose output steps there.
:func:`clear_on_breakpoints` finds the load's piece by binary search over
the sorted breakpoints, and :func:`bisect_price` clears the price inside it:
it interpolates the supply between the bracket ends, with midpoint
safeguards, and ends on plain bisection's bracket, which is unique, so the
floats are those of a bisection over the whole price range.  A ``c == 0``
unit at its step is settled by a final greedy allocation inside the last
bracket (:func:`settle_bracket`), which keeps the kernel exact for it too.
Each unit's constants for this (``a``, ``b``, ``c``, ``2 c``, ``p_min``,
``p_max`` and its least average cost) are built once per unit
(:attr:`GeneratorParams.price_constants`), and the dispatch's supply, the
Lagrangian dual's supply and the dual's terms are flat loops over those
tuples, with no call per unit.  The breakpoint search, the price search and
the settle are the one price-clearing kernel of the package: the dispatch
and the dual clear their prices with :func:`clear_on_breakpoints`, and the
first ADMM block (``hquc.qpblock``) clears its own per-unit response with
:func:`bisect_price` and :func:`settle_bracket`.  Every bracket end is a
breakpoint, or :func:`price_past` a price read from the fleet's costs.

:func:`solve_uc_exact` searches the commitments depth first and prunes with
the Lagrangian dual of the balance constraint (Muckstadt and Koenig,
Operations Research 25(3), 1977), whose supply jumps only at known prices
and is cleared by the same kernel.  It takes the bound with every unit free
once, for its first incumbent and for its root.  The first incumbent is the
:func:`polish` of the classic Lagrangian-relaxation commitment
(:func:`lagrangian_commitment`), and the polish dispatches its candidates
in order of their Lagrangian value at the root's price, stopping at the
first that cannot win.  Nodes on the incumbent's path take no bound of
their own.  It prices leaves as :func:`enumerate_uc` does and returns the
same answer, tie rule and cost float included, without the 2**N walk.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .errors import (
    DuplicateId,
    Infeasible,
    InfeasibleCommitment,
    InvariantViolation,
    MalformedRow,
    TooLarge,
    require_finite,
    require_length,
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
    at full output, ``a + b p_max + c p_max^2``, must be finite, and so must
    the marginal cost there, ``b + 2 c p_max``, which prices the unit's
    output in every dispatch.
    """

    id: int
    a: float
    b: float
    c: float
    p_min: float
    p_max: float

    def __post_init__(self) -> None:
        try:
            for name in ("a", "b", "c", "p_min", "p_max"):
                require_finite(name, getattr(self, name))
        except InvariantViolation as exc:
            # Named here, not in each message: parsing builds many units.
            raise InvariantViolation(f"unit {self.id}: {exc}") from None
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
        if not math.isfinite(self.marginal_cost(self.p_max)):
            raise InvariantViolation(
                f"unit {self.id}: marginal cost b + 2*c*p_max overflows"
            )

    @property
    def full_output_cost(self) -> float:
        """``a + b p_max + c p_max^2``, summed as :func:`evaluate_cost` does."""
        return self.a + self.b * self.p_max + self.c * self.p_max * self.p_max

    def marginal_cost(self, p: float) -> float:
        return self.b + 2.0 * self.c * p

    @cached_property
    def min_average_cost(self) -> float:
        """Least cost per MW, ``(a + b p + c p^2) / p`` minimized over the
        positive outputs in ``[p_min, p_max]`` (an infimum where ``p`` may
        approach 0).  Committing the unit pays for itself at a price ``mu``,
        ``phi(mu) < 0`` in :func:`_dual_bound`, when ``mu`` exceeds it.  The
        dual's supply and :func:`lagrangian_commitment` test it this way, as
        near it the float sign of ``phi`` can disagree.
        ``-inf`` for ``a < 0`` with ``p_min == 0``, ``inf`` for ``p_max == 0``
        otherwise.  Built once per unit, since the branch and bound reads it
        at every node.
        """
        if self.a < 0.0 and self.p_min == 0.0:
            return -math.inf
        if self.p_max == 0.0:
            return math.inf
        # a / p + c p is least at p = sqrt(a / c) for a >= 0, and increasing
        # in p for a < 0.
        p = self.p_min
        if self.a > 0.0:
            p = self.p_max if self.c == 0.0 else math.sqrt(self.a / self.c)
            p = min(max(p, self.p_min), self.p_max)
        if p == 0.0:  # a == 0 and p_min == 0: the infimum b + c p at p -> 0
            return self.b
        return self.a / p + self.b + self.c * p

    @cached_property
    def price_constants(self) -> tuple[float, ...]:
        """``(a, b, c, 2c, p_min, p_max, min_average_cost)``: the unit's
        constants for pricing it at a trial price, unpacked in this order by
        the flat loops of :func:`_outputs`, :func:`_phis` and
        :func:`_dual_supply`.  Built once per unit, like
        :attr:`min_average_cost`.
        """
        return (
            self.a, self.b, self.c, 2.0 * self.c, self.p_min, self.p_max,
            self.min_average_cost,
        )


def _require_unit_ids(ids: list[int]) -> None:
    """Raise InvariantViolation unless the unit ids, in fleet order, are 1..N."""
    if ids != list(range(1, len(ids) + 1)):
        raise InvariantViolation(f"unit ids must be 1..N without gaps, got {ids}")


@dataclass(frozen=True)
class UCInstance:
    """An immutable unit commitment instance: generator fleet plus load."""

    generators: tuple[GeneratorParams, ...]
    load: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        if len(self.generators) < 1:
            raise InvariantViolation("instance needs at least one generator")
        require_finite("load", self.load)
        if self.load < 0.0:
            raise InvariantViolation(f"load {self.load} < 0")
        _require_unit_ids([g.id for g in self.generators])
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
        bits = tuple(self.bits)
        # Tested before int(), which would truncate 0.5 to 0.
        if any(b not in (0, 1) for b in bits):
            raise InvariantViolation(f"commitment bits must be 0/1, got {bits}")
        object.__setattr__(self, "bits", tuple(map(int, bits)))

    @property
    def bitstring(self) -> str:
        """Most-significant-unit-first rendering, e.g. units (1,1,0,1) -> '1011'."""
        return "".join(str(b) for b in reversed(self.bits))

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
    _require_unit_ids([g.id for g in ordered])
    return tuple(ordered)


def evaluate_cost(
    instance: UCInstance, commitment: Commitment, dispatch: Sequence[float]
) -> float:
    """Total cost ``sum_i (a_i y_i + b_i p_i + c_i p_i^2)``."""
    require_length("commitment", commitment.bits, instance.n)
    require_length("dispatch", dispatch, instance.n)
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
    """Check per-unit output limits within ``tol``, and power balance within
    ``tol`` or four ulps of the load, whichever is more: at loads of 1e10 MW
    and up, the rounded sum of an exact dispatch can miss the load by an ulp,
    which exceeds the default ``tol``; with that default the floor changes
    nothing below 2**31 MW.
    A NaN output fails every test, and a non-finite one misses the balance
    by inf."""
    require_length("commitment", commitment.bits, instance.n)
    require_length("dispatch", dispatch, instance.n)
    require_finite("tol", tol)
    if tol < 0.0:
        raise InvariantViolation(f"tol {tol} < 0")
    violations: list[Violation] = []
    balance_gap = math.inf
    if all(math.isfinite(p) for p in dispatch):
        balance_gap = abs(math.fsum(dispatch) - instance.load)
    if not balance_gap <= max(tol, 4.0 * math.ulp(instance.load)):
        violations.append(Violation("balance", None, balance_gap))
    for g, y, p in zip(instance.generators, commitment.bits, dispatch):
        lo = g.p_min * y
        hi = g.p_max * y
        if not p >= lo - tol:
            violations.append(Violation("p_min", g.id, lo - p))
        if not p <= hi + tol:
            violations.append(Violation("p_max", g.id, p - hi))
    return FeasibilityReport(not violations, tuple(violations))


def price_past(end: float, side: float) -> float:
    """``end`` moved to ``side`` (+1 or -1) by 1.0, or by 2**-50 |end| if more."""
    return end + side * max(1.0, abs(end) * 2.0**-50)


#: Cap on the nudge of an interpolated trial, in ulps (4**26).
_NUDGE_MAX_ULPS = 2.0**52

#: Newton trials one search may take that do not halve its bracket.
_NEWTON_MISSES = 6


def bisect_price(
    supply: Callable[[float], float],
    load: float,
    lo: float,
    hi: float,
    s_lo: float = math.nan,
    s_hi: float = math.nan,
    slope: Callable[[float], float] | None = None,
) -> tuple[float, float]:
    """Narrow a clearing-price bracket until no float lies strictly inside.

    ``supply(mu)`` must be nondecreasing in ``mu`` and the caller's bracket
    must hold ``supply(lo) <= load <= supply(hi)``, with ends breakpoints or
    :func:`price_past` the extreme prices (:func:`clear_on_breakpoints`), or
    stepped out to by :func:`hquc.qpblock.solve_block1`; the invariant is
    kept, with ``supply(hi) > load`` once ``hi`` has moved.  For such a
    supply the final bracket is unique: the largest float ``lo`` in
    ``[lo0, hi0)`` with ``supply(lo) <= load``, and the next float.  So the
    trial prices may be chosen freely inside the bracket, and the result is
    plain bisection's.

    The trials are those of a safeguarded regula falsi (after Dowell and
    Jarratt, BIT 11, 1971).  Once both ends have a known supply, the trial
    is the linear interpolation of ``load`` between them, which is exact on
    an affine piece of a piecewise-affine supply.  The trial is nudged away
    from the end that the last interpolated trial moved, by 1 ulp, growing 4x
    each time an interpolated trial moves the same end again (at most 2**52
    ulps), so that the other end moves too.  A plain midpoint is taken while
    an end's supply is unknown, when the nudged trial is not inside the
    bracket, and after every interpolated step that did not halve the
    bracket.  So every step but the last either halves the bracket or is
    followed by one that does: the search takes at most twice plain
    bisection's supply evaluations plus 2, and plain bisection takes at most
    about 2100 on a finite bracket (2072 on ``[-1e300, 1e300]`` around 0).
    The midpoint is ``0.5 * (lo + hi)``, or ``0.5 * lo + 0.5 * hi`` where
    the sum overflows; the loop ends when neither lies strictly inside.

    ``slope(mu)``, when given, is the supply's slope on its piece at a
    price ``supply`` has priced.  Then the trial is first a Newton step
    from the end that moved last (at first, the end whose supply is nearer
    the load): ``mu + (load - supply(mu)) / slope(mu)``, which lands on
    the clearing price when the step stays on one affine piece (the
    continuous quadratic knapsack method of Cominetti, Mascarenhas and
    Silva, Mathematical Programming Computation 6, 2014).  It counts as an
    interpolated trial for the nudge, moves toward the other end by a
    quarter of the nudge once the nudge has grown, and always reaches at
    least the next float.  Where the slope is 0 or not finite, the end's
    supply is unknown, or the step is not strictly inside the bracket, the
    trial is the interpolated one or the midpoint, as above.  A Newton step
    that does not halve the bracket spends one of six; with none left, the
    search takes no more.  Every step but the last then halves the bracket,
    is followed by one that does, or is one of those six or the
    interpolated step before one: at most twice plain bisection's
    evaluations plus 14.

    ``s_lo`` and ``s_hi`` are ``supply(lo)`` and ``supply(hi)`` when the
    caller has already priced the ends (NaN when not); then the first trial
    interpolates instead of taking the midpoint, and the loop, its bound and
    its result are as above.  An ``s_hi`` at the load counts as unknown, so
    no interpolation divides by zero on a plateau at the load.  Block 1
    always passes them, since its search has priced both ends on the way
    out, and :func:`clear_on_breakpoints` passes them for a piece between
    two breakpoints.
    """
    # s_lo and s_hi are the supply at each end, NaN until evaluated; once
    # both are known, s_hi > load >= s_lo.
    if not s_hi > load:
        s_hi = math.nan
    side = 0.0  # +1 after an interpolated or Newton trial moved lo, -1 after hi
    nudge = 0.0  # in ulps of the trial
    may_interpolate = True
    last = -1.0 if s_hi - load < load - s_lo else 1.0  # the end that moved last
    misses = 0 if slope is None else _NEWTON_MISSES
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            mid = 0.5 * lo + 0.5 * hi  # lo + hi may have overflowed
            if not lo < mid < hi:
                break
        width = hi - lo
        trial, newton = math.nan, False
        if misses:
            mu, s = (lo, s_lo) if last > 0.0 else (hi, s_hi)
            d = slope(mu) if s == s else 0.0  # s is NaN while unknown
            if 0.0 < d < math.inf:
                trial = mu + (load - s) / d
                if side == last and nudge > 1.0:
                    trial += last * 0.25 * nudge * math.ulp(trial)
                if not (trial - mu) * last > 0.0:
                    trial = math.nextafter(mu, last * math.inf)
                newton = lo < trial < hi
        if not newton and may_interpolate:
            # NaN, and so a midpoint, while an end's supply is unknown.
            trial = lo + width * ((load - s_lo) / (s_hi - s_lo))
            trial += side * nudge * math.ulp(trial)
        interpolated = lo < trial < hi
        if interpolated:
            mid = trial
        s = supply(mid)
        last = 1.0 if s <= load else -1.0
        if interpolated:
            nudge = min(4.0 * nudge, _NUDGE_MAX_ULPS) if last == side else 1.0
            side = last
        if last > 0.0:
            lo, s_lo = mid, s
        else:
            hi, s_hi = mid, s
        halved = hi - lo <= 0.5 * width
        if newton and not halved:
            misses -= 1
        may_interpolate = not interpolated or halved
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


def clear_on_breakpoints(
    supply: Callable[[float], float],
    load: float,
    breakpoints: Iterable[float],
    below: Callable[[], float],
    above: Callable[[], float],
) -> tuple[float, float]:
    """The final bracket of :func:`bisect_price` for a nondecreasing
    ``supply`` that is continuous between its ``breakpoints``, found by
    locating the load's piece first.

    The finite breakpoints are sorted, with -0.0 read as 0.0 so that no
    trial price is -0.0.  A binary search over them finds the piece that
    holds the load: the breakpoints before it have supply at most ``load``
    and the rest more.  If the supply already exceeds the load one float
    above the piece's low breakpoint, the load falls inside that
    breakpoint's jump and the bracket is that float pair.  Otherwise
    :func:`bisect_price` clears the price inside the piece, given both end
    supplies.  ``below()`` and ``above()`` are the price range's ends,
    outside every breakpoint, read only when the load's piece reaches them.

    For a nondecreasing supply the final bracket on the whole range is
    unique (see :func:`bisect_price`), and every breakpoint lies inside the
    range, so this is the bracket that a search over the whole range ends
    on.  :func:`_dispatch` and :func:`_dual_bound` clear their prices here.
    """
    breaks = sorted({x + 0.0 for x in breakpoints if math.isfinite(x)})
    # Binary search for i, the first breakpoint whose supply exceeds the
    # load, keeping that supply.
    i, j = 0, len(breaks)
    s_lo = s_hi = math.nan
    while i < j:
        mid = (i + j) // 2
        s = supply(breaks[mid])
        if s > load:
            j, s_hi = mid, s
        else:
            i = mid + 1
    if i == 0:
        lo = below()
    else:
        lo = breaks[i - 1]
        up = math.nextafter(lo, math.inf)
        s_lo = supply(up)
        if s_lo > load:
            return lo, up
        lo = up
    hi = breaks[i] if i < len(breaks) else above()
    return bisect_price(supply, load, lo, hi, s_lo, s_hi)


def _outputs(units: Sequence[tuple[float, ...]], mu: float) -> list[float]:
    """Each unit's output at price ``mu``, the argmin of ``b p + c p^2 - mu p``
    over ``[p_min, p_max]``, for units given by their
    :attr:`~GeneratorParams.price_constants`.

    A ``c == 0`` unit steps from ``p_min`` to ``p_max`` for ``mu`` strictly
    above ``b``.  The clamps are written as the conditionals ``max`` and
    ``min`` evaluate, and every flat loop over the constants prices a unit
    by these same expressions, so all of them return the floats of the
    per-unit oracles ``_step_output`` and ``_dual_term`` in ``tests/helpers.py``.
    """
    out = []
    for _, b, c, c2, p_min, p_max, _ in units:
        if c > 0.0:
            p = (mu - b) / c2
            p = p_min if p_min > p else p
            out.append(p_max if p_max < p else p)
        else:
            out.append(p_max if mu > b else p_min)
    return out


def _dispatch(instance: UCInstance, bits: Sequence[int]) -> list[float] | None:
    """Exact dispatch of the load over the units ``bits`` commits.

    Returns ``None`` when the load falls outside the committed capacity
    range ``[sum p_min, sum p_max]``.  Inside it, the price is cleared by
    :func:`clear_on_breakpoints` over the committed units' breakpoints: a
    unit with ``c > 0`` leaves ``p_min`` at ``b + 2 c p_min`` and reaches
    ``p_max`` at ``b + 2 c p_max``, and a ``c == 0`` unit steps at ``b``.
    Between them the supply is affine, so the price search is handed one
    affine piece with both end supplies known, and its first interpolation
    lands within ulps of the price.  The floats are those of
    :func:`bisect_price` on the whole price range, since that search's
    final bracket is unique.
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
        # Settling reads the final bracket ends' profiles from the search's;
        # an end it never priced is priced here.  As in solve_block1, no
        # trial price is -0.0, which would share 0.0's key.
        profiles = {}
        units = [g.price_constants for g in on]

        def profile(mu: float) -> list[float]:
            if mu not in profiles:
                profiles[mu] = _outputs(units, mu)
            return profiles[mu]

        # Below the range every unit sits at p_min and above it at p_max:
        # past each end's marginal cost b + 2c p.
        lo, hi = clear_on_breakpoints(
            lambda mu: math.fsum(profile(mu)),
            load,
            (
                x
                for _, b, c, c2, p_min, p_max, _ in units
                for x in ((b + c2 * p_min, b + c2 * p_max) if c > 0.0 else (b,))
            ),
            lambda: price_past(
                min(b + c2 * p_min for _, b, _, c2, p_min, _, _ in units), -1.0
            ),
            lambda: price_past(
                max(b + c2 * p_max for _, b, _, c2, _, p_max, _ in units), 1.0
            ),
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
    require_length("commitment", commitment.bits, instance.n)
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
    instance: UCInstance,
    candidates: Iterable[tuple[int, ...]],
    best: UCSolution | None = None,
) -> UCSolution | None:
    """Cheapest of ``best`` and the candidate bits tuples that can serve the
    load, else ``None``.

    Ties in cost break toward the lexicographically smallest bits tuple
    (unit 1 first).  Every choice between commitments goes through here.
    """
    for bits in candidates:
        dispatch = _dispatch(instance, bits)
        if dispatch is None:
            continue
        commitment = Commitment(bits)
        cost = evaluate_cost(instance, commitment, dispatch)
        if best is None or (cost, commitment.bits) < (best.cost, best.commitment.bits):
            best = UCSolution(commitment, tuple(dispatch), cost)
    return best


def one_flips(bits: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The bits tuples one bit flip away from ``bits``, unit 1's flip first."""
    return (_flip(bits, i) for i in range(len(bits)))


def _flip(bits: tuple[int, ...], i: int) -> tuple[int, ...]:
    return bits[:i] + (1 - bits[i],) + bits[i + 1 :]


def polish(instance: UCInstance, bits: tuple[int, ...]) -> UCSolution | None:
    """Cheapest servable commitment among ``bits`` and its one-flip
    neighbours (:func:`cheapest_servable`), else ``None``.

    The polish step of relax-round-polish (Takapoui, Moehle, Boyd and
    Bemporad, arXiv:1509.08416), with its search limited to the one-flip
    neighbourhood.  It dispatches only the candidates that might win.  At
    any price ``mu`` a commitment's Lagrangian value
    ``mu * load + sum_on phi_i(mu)`` (see :func:`_phis`) is a lower bound on
    its cost, and a one-flip neighbour's value is ``bits``'s plus
    ``phi_j`` when it turns unit ``j`` on and minus ``phi_j`` when it turns
    it off.  The candidates are dispatched in order of value, and the
    search stops at the first whose value exceeds the cheapest cost found
    by more than the prune margin (:func:`_beaten`), as every later one
    does too.  The result of :func:`cheapest_servable` does not depend on
    the order of its candidates, so it is the answer of dispatching all
    ``n + 1``.  The price is that of the balance's dual with every unit
    free (:func:`_dual_bound`); :func:`solve_uc_exact` passes the one its
    root has taken.
    """
    require_length("bits", bits, instance.n)
    mu, _ = _dual_bound((), instance.generators, instance.load)
    return _polish_at(instance, bits, mu)


def _polish_at(
    instance: UCInstance, bits: tuple[int, ...], mu: float
) -> UCSolution | None:
    """:func:`polish`, screened at the price ``mu``."""
    phis = _phis([g.price_constants for g in instance.generators], mu)
    seed = _bound_sum([mu * instance.load, *(phi for phi, y in zip(phis, bits) if y)])
    flips = (seed - phi if y else seed + phi for phi, y in zip(phis, bits))
    # A value past the float range bounds nothing; -inf never screens.
    values = [v if math.isfinite(v) else -math.inf for v in (seed, *flips)]
    best = None
    for j in sorted(range(len(values)), key=values.__getitem__):
        if _beaten(values[j], best):
            break
        candidate = bits if j == 0 else _flip(bits, j - 1)
        best = cheapest_servable(instance, (candidate,), best)
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


def _phis(units: Sequence[tuple[float, ...]], mu: float) -> list[float]:
    """``phi(mu) = a + min over p in [p_min, p_max] of (b p + c p^2 - mu p)``
    of each unit, given by its :attr:`~GeneratorParams.price_constants`, at
    the output :func:`_outputs` gives it."""
    return [
        a + b * p + c * p * p - mu * p
        for (a, b, c, _, _, _, _), p in zip(units, _outputs(units, mu))
    ]


def _dual_supply(
    on: Sequence[tuple[float, ...]], free: Sequence[tuple[float, ...]], mu: float
) -> float:
    """Output at price ``mu`` of the ``on`` units and of the ``free`` units
    that pay for themselves there (``mu`` above their
    :attr:`~GeneratorParams.min_average_cost`): the supply whose crossing
    with the load is the price of :func:`_dual_bound`.  Units are given by
    their :attr:`~GeneratorParams.price_constants` and priced as
    :func:`_outputs` prices them, inline, since this is the bound's hot loop.
    """
    total = 0.0
    for _, b, c, c2, p_min, p_max, _ in on:
        if c > 0.0:
            p = (mu - b) / c2
            p = p_min if p_min > p else p
            total += p_max if p_max < p else p
        else:
            total += p_max if mu > b else p_min
    for _, b, c, c2, p_min, p_max, min_average_cost in free:
        if mu > min_average_cost:
            if c > 0.0:
                p = (mu - b) / c2
                p = p_min if p_min > p else p
                total += p_max if p_max < p else p
            else:
                total += p_max if mu > b else p_min
    return total


def _dual_bound(
    on: Sequence[GeneratorParams], free: Sequence[GeneratorParams], load: float
) -> tuple[float, float]:
    """Lagrangian lower bound on every commitment that keeps ``on`` on and
    may add any of ``free``, with the price ``mu`` it was taken at.

    Dualizing the balance with a price ``mu`` gives the bound
    ``mu * load + sum_on phi_i(mu) + sum_free min(0, phi_i(mu))`` (see
    :func:`_phis`).  It is concave in ``mu`` and its supergradient is
    ``load`` minus the output of the on units and of the free units with
    ``phi_i < 0`` (:func:`_dual_supply`), so the bound is greatest where
    that supply crosses the load.  By weak duality every ``mu`` gives a
    valid bound, so the price search decides only how tight the bound is.

    The supply is continuous except at its breakpoints: a free unit's
    :attr:`~GeneratorParams.min_average_cost`, above which its
    ``phi_i < 0``, and a ``c == 0`` unit's ``b``.  Both steps are taken for
    ``mu`` strictly above the breakpoint, so the supply reads the free
    units' sign change from the breakpoint itself and its jumps sit exactly
    on the breakpoints.  :func:`clear_on_breakpoints` finds the piece that
    holds the load and clears the price there, at a breakpoint when the
    load falls inside its jump; :func:`bisect_price`'s interpolation is
    exact on the continuous piecewise-affine supply inside a piece.  The
    bound is taken at the bracket's low end.
    """
    on_units = [g.price_constants for g in on]
    free_units = [g.price_constants for g in free]

    def supply(mu: float) -> float:
        return _dual_supply(on_units, free_units, mu)

    units = (*on, *free)
    mu, _ = clear_on_breakpoints(
        supply,
        load,
        (*(g.min_average_cost for g in free), *(g.b for g in units if g.c == 0.0)),
        # Below every b each unit sits at p_min and, for a >= 0, phi_i >= 0.
        lambda: price_past(min(g.b for g in units), -1.0),
        # Above every marginal and average cost at p_max each unit sits at
        # p_max and has phi_i < 0.
        lambda: price_past(max(
            max(b + c2 * p_max, a / p_max + b + c * p_max) if p_max > 0.0 else b
            for a, b, c, c2, _, p_max, _ in (*on_units, *free_units)
        ), 1.0),
    )
    terms = [mu * load, *_phis(on_units, mu)]
    terms.extend(min(0.0, phi) for phi in _phis(free_units, mu))
    return mu, _bound_sum(terms)


def fsum_or_sum(terms: Sequence[float]) -> float:
    """``math.fsum(terms)``, or the plain float sum, ``inf``, ``-inf`` or
    NaN, where a partial sum leaves the float range or the terms hold
    ``inf - inf``: at extreme penalties the ADMM's sums overflow."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return sum(terms)


def _bound_sum(terms: Iterable[float]) -> float:
    """``fsum(terms)`` as a lower bound: ``-inf``, which is valid and never
    prunes, where a partial sum overflows, the terms hold ``inf - inf`` or
    the sum is not finite, since a term past the float range bounds
    nothing."""
    try:
        bound = math.fsum(terms)
    except (OverflowError, ValueError):
        return -math.inf
    return bound if math.isfinite(bound) else -math.inf


def _paying_units(generators: Sequence[GeneratorParams], mu: float) -> tuple[int, ...]:
    """The bits of the units that pay for themselves at price ``mu``."""
    return tuple(int(mu > g.min_average_cost) for g in generators)


def lagrangian_commitment(
    generators: Sequence[GeneratorParams], load: float
) -> Commitment:
    """The classic Lagrangian-relaxation commitment (Muckstadt and Koenig,
    Operations Research 25(3), 1977): at the price ``mu`` of the balance's
    dual (:func:`_dual_bound` with every unit free), commit the units that
    pay for themselves at that price, those with ``mu`` above their
    :attr:`~GeneratorParams.min_average_cost`.  This is the rule the bound's
    own supply (:func:`_dual_supply`) applies to its free units.

    It need not serve the load; its :func:`polish` is
    :func:`solve_uc_exact`'s first incumbent.
    """
    mu, _ = _dual_bound((), generators, load)
    return Commitment(_paying_units(generators, mu))


#: Relative margin by which a lower bound must exceed the incumbent's cost
#: before it rules a commitment out (:func:`_beaten`).  It absorbs the
#: rounding of bounds and leaf costs.  Two bounds add one rounding each to a
#: Lagrangian sum: a polish candidate's value, the seed's value plus or
#: minus ``phi_j``, and a floor carried down the incumbent's path, one
#: addition per level.  Each addition is off by at most half an ulp of its
#: result, 2**-53 relative.  A polish value that could rule a candidate out
#: lies near the incumbent's cost, so its error is about 1e-16 of that cost.
#: A carried floor only grows from the root's bound toward the incumbent's
#: Lagrangian value at the same price, which is at most its cost, and for
#: fleets with ``a, b >= 0`` the root's bound is at least the value 0 of the
#: price 0.  So after ``d`` levels its error is at most ``d * 2**-53`` of
#: the incumbent's cost, under the margin for ``d`` below about 9e6 units.
_PRUNE_RTOL = 1e-9


def _beaten(bound: float, best: UCSolution | None) -> bool:
    """Whether a lower ``bound`` on a commitment's cost exceeds the cost of
    ``best`` by more than the relative margin :data:`_PRUNE_RTOL`, so that
    the commitment cannot beat ``best``, not even on the tie rule."""
    return best is not None and bound > best.cost + _PRUNE_RTOL * abs(best.cost)


def solve_uc_exact(instance: UCInstance) -> UCSolution:
    """Exact solve by depth-first branch and bound: the answer of
    :func:`enumerate_uc`, without its size limit.

    The search branches on the units in id order, the off branch first.
    Each leaf goes through :func:`cheapest_servable` with the incumbent,
    which keeps :func:`enumerate_uc`'s tie rule and cost float whatever the
    incumbent was.  A node is pruned when its committed capacity range
    cannot hold the load, or when a Lagrangian bound on its leaves
    (:func:`_dual_bound`) is :func:`_beaten` by the incumbent, so a leaf
    that ties the incumbent is never pruned.  A node's floor, its parent's
    bound with the unit it fixes priced at the parent's price, is tried
    first, since it costs one unit's term.

    Three cuts skip work that cannot change the answer:

    - *Root reuse.*  The bound with every unit free is taken once.  Its
      price gives the first incumbent, the :func:`polish` of the units that
      pay for themselves there (:func:`lagrangian_commitment`), and its
      ``(price, bound)`` is the root's.
    - *Screened polish.*  That polish dispatches its candidates in order of
      their Lagrangian value at the root's price and stops at the first one
      that cannot win (see :func:`polish`).
    - *Incumbent path.*  A node whose bits are a prefix of the incumbent's
      has a leaf as cheap as the incumbent, so no valid bound prunes it and
      its own bound would only tighten its children's floors.  It takes no
      bound: its children's floors are taken at the price of its own floor.
      The incumbent's own leaf is not dispatched again.

    Raises Infeasible when no commitment can serve the load.
    """
    gens = instance.generators
    load = instance.load
    mu, bound = _dual_bound((), gens, load)
    best = _polish_at(instance, _paying_units(gens, mu), mu)

    # Each entry is the bits of units 1..k, a lower bound on its leaves and
    # the price the bound was taken at.  The off child is pushed last, so it
    # is searched first.
    stack: list[tuple[tuple[int, ...], float, float]] = [((), bound, mu)]
    while stack:
        bits, floor, mu = stack.pop()
        if _beaten(floor, best):
            continue
        k = len(bits)
        if k == instance.n:
            if best is None or bits != best.commitment.bits:
                best = cheapest_servable(instance, (bits,), best)
            continue
        on = [g for g, y in zip(gens, bits) if y]
        free = gens[k:]
        # One fsum per side, as in _dispatch, so a prune never drops a leaf
        # that _dispatch would accept.
        if math.fsum(g.p_min for g in on) > load:
            continue
        if math.fsum(g.p_max for g in (*on, *free)) < load:
            continue
        if best is None:
            floor = -math.inf
        elif bits != best.commitment.bits[:k]:
            mu, floor = _dual_bound(on, free, load)
            if _beaten(floor, best):
                continue
        # At the same mu, fixing unit k off drops min(0, phi_k) from the
        # bound and fixing it on adds max(0, phi_k).
        (phi,) = _phis((gens[k].price_constants,), mu)
        stack.append((bits + (1,), floor + max(0.0, phi), mu))
        stack.append((bits + (0,), floor - min(0.0, phi), mu))
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


def _finite_float(text: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise MalformedRow(f"line {lineno}: {exc}") from exc
    if not math.isfinite(value):
        raise MalformedRow(f"line {lineno}: {text.strip()} is not finite")
    return value


def solution_from_csv(text: str) -> UCSolution:
    """Parse the output of :func:`solution_to_csv`.

    Raises MalformedRow, with the line number, for a bad header, a row that
    does not parse, a ``committed`` value other than 0 or 1, an off unit with
    a nonzero output, a non-finite cost or dispatch, a second cost line, a
    unit row after the cost line, or a file with no unit rows or no cost line.
    """
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1].strip() != "unit,committed,p_mw":
        raise MalformedRow("line 1: expected header unit,committed,p_mw")
    header_line = lines[0][0]
    cost: float | None = None
    bits: list[int] = []
    dispatch: list[float] = []
    for lineno, line in lines[1:]:
        if line.startswith("#"):
            if "cost=" not in line:
                raise MalformedRow(f"line {lineno}: expected '# cost=<value>'")
            if cost is not None:
                raise MalformedRow(f"line {lineno}: second '# cost=' line")
            cost = _finite_float(line.split("cost=", 1)[1], lineno)
            continue
        if cost is not None:
            raise MalformedRow(f"line {lineno}: unit row after the '# cost=' line")
        parts = line.split(",")
        if len(parts) != 3:
            raise MalformedRow(f"line {lineno}: expected 3 columns, got {len(parts)}")
        try:
            unit = int(parts[0])
            committed = int(parts[1])
        except ValueError as exc:
            raise MalformedRow(f"line {lineno}: {exc}") from exc
        if committed not in (0, 1):
            raise MalformedRow(f"line {lineno}: committed must be 0 or 1, got {committed}")
        p = _finite_float(parts[2], lineno)
        if not committed and p != 0.0:
            raise MalformedRow(f"line {lineno}: off unit has output {p}")
        bits.append(committed)
        dispatch.append(p)
        if unit != len(bits):
            raise MalformedRow(f"line {lineno}: units out of order")
    if not bits:
        raise MalformedRow(f"line {header_line}: no unit rows follow the header")
    if cost is None:
        raise MalformedRow("missing trailing '# cost=<value>' line")
    return UCSolution(Commitment(tuple(bits)), tuple(dispatch), cost)
