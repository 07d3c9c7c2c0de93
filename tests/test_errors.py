"""The input rules of ``hquc.errors``, through the public entry points that
call them: each refuses a bad value with the typed error naming the field."""

import ast
import math
import pathlib

import pytest

from conftest import TEN_UNIT_CSV

import hquc
from hquc import (
    AdmmConfig,
    Commitment,
    GeneratorParams,
    InvariantViolation,
    LengthMismatch,
    QaoaParams,
    QuboProblem,
    UCInstance,
    check_feasible,
    default_config,
    parse_generators,
    run_admm,
)

TEN = parse_generators(TEN_UNIT_CSV.read_text())
INSTANCE = UCInstance(TEN, 800.0)
ONES = Commitment((1,) * 10)
FULL = (80.0,) * 10


def _call(make, field, **defaults):
    """A call of ``make`` with ``defaults``, passing the value as ``field``."""
    return lambda value: make(**{**defaults, field: value})


UNIT = dict(id=1, a=1.0, b=2.0, c=0.1, p_min=0.0, p_max=10.0)
PENALTIES = dict(rho=4.0, beta=1.0)

#: (entry point, the field as its message names it, a call passing it the value)
SITES = [
    *(
        ("GeneratorParams", f"unit 1: {f}", _call(GeneratorParams, f, **UNIT))
        for f in ("a", "b", "c", "p_min", "p_max")
    ),
    ("UCInstance", "load", lambda v: UCInstance(TEN, v)),
    *(
        ("AdmmConfig", f, _call(AdmmConfig, f, **PENALTIES))
        for f in ("rho", "beta", "epsilon")
    ),
    *(
        ("AdmmConfig", f"{f}[1]", lambda v, f=f: AdmmConfig(4.0, 1.0, **{f: (0.0, v)}))
        for f in ("initial_z", "initial_r", "initial_lambda")
    ),
    ("QaoaParams", "gammas[0]", lambda v: QaoaParams((v,), (0.1,))),
    ("QaoaParams", "betas[1]", lambda v: QaoaParams((0.1, 0.2), (0.3, v))),
    ("check_feasible", "tol", lambda v: check_feasible(INSTANCE, ONES, FULL, v)),
]

#: (the bad value, how the message renders it after the field)
VALUES = [
    (math.nan, "=nan is not finite"),
    (math.inf, "=inf is not finite"),
    (10**400, " is past the float range"),
    ("x", "='x' is not a real number"),
    (None, "=None is not a real number"),
]


@pytest.mark.parametrize("value, rendered", VALUES, ids=repr)
@pytest.mark.parametrize(
    "site, field, build", SITES, ids=[f"{site}-{field}" for site, field, _ in SITES]
)
def test_finite_rule_names_the_field(site, field, build, value, rendered):
    with pytest.raises(InvariantViolation) as info:
        build(value)
    assert f"{field}{rendered}" in str(info.value)


@pytest.mark.parametrize("value, rendered", VALUES[2:], ids=repr)
@pytest.mark.parametrize(
    "field, build",
    [
        ("linear[1]", lambda v: QuboProblem((0.5, v))),
        ("constant", lambda v: QuboProblem((0.5,), v)),
    ],
    ids=["linear", "constant"],
)
def test_qubo_entries_are_floats(field, build, value, rendered):
    with pytest.raises(InvariantViolation) as info:
        build(value)
    assert f"{field}{rendered}" in str(info.value)


def test_qubo_names_the_entry_float_refuses():
    # The entries convert in one pass; a refusal is named by its index.
    with pytest.raises(InvariantViolation, match=r"^linear\[1\]='x' is not a real number$"):
        QuboProblem((1.0, "x"))
    with pytest.raises(InvariantViolation, match=r"^linear\[0\] is past the float range$"):
        QuboProblem((10**400,))


def test_qubo_keeps_non_finite_entries():
    # At extreme penalties build_qubo overflows to them, and the per-bit
    # rule still resolves each bit.
    qubo = QuboProblem((math.nan, math.inf, -math.inf), -math.inf)
    assert math.isnan(qubo.linear[0]) and qubo.linear[1:] == (math.inf, -math.inf)
    assert qubo.constant == -math.inf


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: run_admm(
                INSTANCE, default_config(800.0, initial_lambda=(0.0,) * 3)
            ),
            "initial_lambda has length 3, expected 10",
        ),
        (lambda: QuboProblem((1.0,)).energy((0, 1)), "bits has length 2, expected 1"),
    ],
    ids=["initial-vector", "energy"],
)
def test_length_rule_names_the_sequence(call, message):
    with pytest.raises(LengthMismatch, match=message):
        call()


def test_length_rule_has_one_implementation():
    # Outside errors.py the package checks lengths with require_length,
    # never by raising LengthMismatch itself.
    package = pathlib.Path(hquc.__file__).parent
    raises = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and "LengthMismatch" in (
            getattr(node.exc.func, "id", None), getattr(node.exc.func, "attr", None)
        )
    ]
    assert raises == []


#: Every place in the package that calls a ``require_*`` rule, as
#: ``module.qualified.name``: the constructors a user calls, the entry points
#: that take an instance and a commitment or dispatch, ``run_admm``'s initial
#: vectors and the CLI's config file.  The helpers that ``admm_steps`` calls
#: at every iteration trust what it passes them.
CHECKED_PLACES = {
    "ucmodel.GeneratorParams.__post_init__",
    "ucmodel.UCInstance.__post_init__",
    "admm.AdmmConfig.__post_init__",
    "admm._initial_vector",
    "qaoa.QaoaParams.__post_init__",
    "qaoa.QaoaConfig.__post_init__",
    "qubo.QuboProblem.__post_init__",
    "qubo.QuboProblem.energy",
    "ucmodel.evaluate_cost",
    "ucmodel.check_feasible",
    "ucmodel.economic_dispatch",
    "ucmodel.polish",
    "cli._load_file_overrides",
}


def _rule_calls(node, scope):
    """``(scope, line)`` of each ``require_*`` call under ``node``, the scope
    being the names of the classes and functions that enclose it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _rule_calls(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Call) and getattr(child.func, "id", "").startswith(
            "require_"
        ):
            yield scope, child.lineno
        yield from _rule_calls(child, scope)


def test_rules_are_called_only_at_the_boundary():
    package = pathlib.Path(hquc.__file__).parent
    calls = [
        call
        for path in sorted(package.glob("*.py"))
        if path.name != "errors.py"
        for call in _rule_calls(ast.parse(path.read_text()), path.stem)
    ]
    assert [f"{scope}:{line}" for scope, line in calls if scope not in CHECKED_PLACES] == []
    assert {scope for scope, _ in calls} == CHECKED_PLACES
