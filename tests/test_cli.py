import dataclasses
import errno
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TEN_UNIT_CSV
from helpers import random_generators

from hquc import (
    AdmmConfig,
    Commitment,
    Infeasible,
    InfeasibleCommitment,
    QaoaConfig,
    UCInstance,
    check_feasible,
    default_config,
    economic_dispatch,
    enumerate_uc,
    evaluate_cost,
    parse_generators,
    run_admm,
    solution_from_csv,
    solution_to_csv,
    solve_uc_exact,
)
import hquc
from hquc.cli import (
    EXIT_INFEASIBLE,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    MODES,
    _SETTINGS,
    _build_parser,
    main,
)

#: The directory the tests import hquc from, for subprocess runs.
SRC_DIR = pathlib.Path(hquc.__file__).resolve().parents[1]

LOAD_SUITE = (100.0, 200.0, 400.0, 800.0, 1000.0)


@pytest.fixture
def gen_csv(tmp_path):
    path = tmp_path / "generators.csv"
    shutil.copy(TEN_UNIT_CSV, path)
    return path


@pytest.fixture
def twenty_unit_csv(tmp_path):
    gens = random_generators(np.random.default_rng(20), 20)
    return _write_fleet(
        tmp_path / "twenty.csv",
        [(g.a, g.b, g.c, g.p_min, g.p_max) for g in gens],
    )


def _fleet_text(rows):
    """Generator CSV text with ids 1..N over rows of field texts."""
    lines = ["id,a,b,c,p_min,p_max"]
    lines += [",".join([str(i), *row]) for i, row in enumerate(rows, start=1)]
    return "\n".join(lines) + "\n"


def _write_fleet(path, rows):
    path.write_text(_fleet_text([[repr(v) for v in row] for row in rows]))
    return path


@pytest.fixture
def four_unit_csv(tmp_path, ten_unit_generators):
    lines = ["id,a,b,c,p_min,p_max"]
    for g in ten_unit_generators[:4]:
        lines.append(f"{g.id},{g.a},{g.b},{g.c},{g.p_min},{g.p_max}")
    path = tmp_path / "four.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _fresh_python(*args):
    """Run a fresh interpreter that imports hquc from the tested tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def _args(mode, gen_path, load, out, *extra):
    return [
        "--mode", mode,
        "--generators", str(gen_path),
        "--load", str(load),
        "--out", str(out),
        *extra,
    ]


def _assert_config_file_error(code, err, out, text):
    """Exit 1 with one ``error: config file …cfg.json: …`` line holding
    ``text``, no output directory, and no integer printed digit by digit."""
    assert code == 1
    assert not out.exists()
    (line,) = err.splitlines()
    assert line.startswith("error: config file ") and "cfg.json: " in line
    assert text in line
    assert re.search(r"\d{400}", line) is None


class _JsonText(str):
    """A config value given as the JSON text that spells it, such as ``1e999``."""


#: Config values that no mode accepts, as (id, key, JSON text, message).
_NON_FINITE_CONFIG = [
    ("NaN", "rho", "NaN", "rho=nan is not finite"),
    ("Infinity", "initial_z", "[Infinity]", "initial_z[0]=inf is not finite"),
    ("1e999", "rho", "1e999", "rho=inf is not finite"),
    ("10**400", "rho", "1" + "0" * 400, "rho is past the float range"),
]


def _check_baseline_on_random_fleet(tmp_path, n):
    """``--mode baseline`` on a seeded n-unit fleet at 40% of capacity exits
    0 with a feasible solution that no servable one-flip neighbour beats."""
    gens = random_generators(np.random.default_rng(n), n, allow_zero_c=True)
    lines = ["id,a,b,c,p_min,p_max"]
    lines += [f"{g.id},{g.a!r},{g.b!r},{g.c!r},{g.p_min!r},{g.p_max!r}" for g in gens]
    path = tmp_path / "fleet.csv"
    path.write_text("\n".join(lines) + "\n")
    load = 0.4 * sum(g.p_max for g in gens)
    out = tmp_path / "out"
    assert main(_args("baseline", path, repr(load), out)) == EXIT_OK

    inst = UCInstance(parse_generators(path.read_text()), load)
    sol = solution_from_csv((out / "solution.csv").read_text())
    assert check_feasible(inst, sol.commitment, sol.dispatch).feasible
    for i in range(inst.n):
        bits = list(sol.commitment.bits)
        bits[i] = 1 - bits[i]
        flipped = Commitment(tuple(bits))
        try:
            dispatch = economic_dispatch(inst, flipped)
        except InfeasibleCommitment:
            continue
        assert evaluate_cost(inst, flipped, dispatch) >= sol.cost


class TestBaselineMode:
    def test_writes_solution_matching_enumeration(self, gen_csv, tmp_path, capsys):
        gens = parse_generators(gen_csv.read_text())
        for load in LOAD_SUITE:
            out = tmp_path / f"out{load:g}"
            assert main(_args("baseline", gen_csv, load, out)) == EXIT_OK
            expected = enumerate_uc(UCInstance(gens, load))
            assert (out / "solution.csv").read_text() == solution_to_csv(expected)
            assert capsys.readouterr().out == (
                f"baseline commitment |{expected.commitment.bitstring}> "
                f"cost {expected.cost}\n"
            )

    def test_solves_fleets_past_the_enumeration_limit(self, tmp_path):
        # 30 units: enumeration refuses (2^30 commitments), branch and bound
        # does not.
        _check_baseline_on_random_fleet(tmp_path, 30)

    def test_solves_sixty_unit_fleet(self, tmp_path):
        _check_baseline_on_random_fleet(tmp_path, 60)

    def test_round_trip_recosting(self, gen_csv, tmp_path):
        out = tmp_path / "out"
        main(_args("baseline", gen_csv, 1000, out))
        parsed = solution_from_csv((out / "solution.csv").read_text())
        inst = UCInstance(parse_generators(gen_csv.read_text()), 1000.0)
        recosted = evaluate_cost(inst, parsed.commitment, parsed.dispatch)
        assert abs(recosted - parsed.cost) <= 1e-9 * max(1.0, abs(parsed.cost))

    def test_infeasible_load(self, gen_csv, tmp_path, capsys):
        code = main(_args("baseline", gen_csv, 5000, tmp_path / "o"))
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_ignores_admm_overrides(self, gen_csv, tmp_path):
        plain = tmp_path / "plain"
        tuned = tmp_path / "tuned"
        assert main(_args("baseline", gen_csv, 800, plain)) == EXIT_OK
        assert (
            main(
                _args(
                    "baseline", gen_csv, 800, tuned,
                    "--rho", "9999", "--beta", "1", "--max-iters", "1",
                )
            )
            == EXIT_OK
        )
        assert (plain / "solution.csv").read_bytes() == (
            tuned / "solution.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(None, "No such file", id="missing"),
            pytest.param('{"rho": "x"}', "rho must be", id="bad-type"),
            pytest.param("[1, 2]", "expected a JSON object", id="not-an-object"),
            *(
                pytest.param(f'{{"{key}": {text}}}', message, id=name)
                for name, key, text, message in _NON_FINITE_CONFIG
            ),
        ],
    )
    def test_bad_config_file_is_an_error(self, gen_csv, tmp_path, capsys, text, message):
        config = tmp_path / "cfg.json"
        if text is not None:
            config.write_text(text)
        out = tmp_path / "o"
        code = main(_args("baseline", gen_csv, 800, out, "--config", str(config)))
        _assert_config_file_error(code, capsys.readouterr().err, out, message)


class TestAdmmModes:
    def test_s1_converged_run_artifacts(self, gen_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            _args("s1", gen_csv, 800, out, "--rho", "4000", "--beta", "1000")
        )
        assert code == EXIT_OK
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == (
            "iter,residual,objective,block1_objective,block1_kkt,block2_energy,"
            "block2_gap"
        )
        final_residual = float(trace_lines[-1].split(",")[1])
        assert final_residual <= 1e-6
        parsed = solution_from_csv((out / "solution.csv").read_text())
        assert parsed.commitment.on_units() == (6, 9)
        assert capsys.readouterr().out == (
            f"s1 converged in {len(trace_lines) - 1} iterations (commitment "
            f"fixed at iteration 1): commitment |{parsed.commitment.bitstring}> "
            f"cost {parsed.cost}\n"
        )

    def test_s2_infeasible_exit_code(self, gen_csv, tmp_path, capsys):
        code = main(_args("s2", gen_csv, 2000, tmp_path / "o"))
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", MODES)
    def test_infeasible_load_exits_2_before_any_output(
        self, gen_csv, tmp_path, capsys, mode
    ):
        # Infeasible (baseline) and its subclass InfeasibleRelaxation (s1,
        # s2) share one mapping in main, and neither comes after a write.
        out = tmp_path / "o"
        assert main(_args(mode, gen_csv, 5000, out)) == EXIT_INFEASIBLE
        assert capsys.readouterr().err.startswith("infeasible: ")
        assert not out.exists()

    def test_not_converged_exit_code(self, gen_csv, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(_args("s1", gen_csv, 800, out, "--max-iters", "3"))
        assert code == EXIT_NOT_CONVERGED
        assert (out / "trace.csv").exists()
        err = capsys.readouterr().err
        assert "not converged after 3 iterations" in err
        # Units 6 and 9, the on-set the run later converges to.
        assert "; terminal commitment |0100100000>" in err

    def test_converged_unservable_commitment_maps_to_infeasible(
        self, gen_csv, tmp_path, capsys
    ):
        # 5 MW is below every unit's p_min: the relaxation is feasible and
        # the loop converges, but no commitment can serve the load.
        code = main(_args("s1", gen_csv, 5, tmp_path / "o"))
        assert code == EXIT_INFEASIBLE
        assert (
            "converged commitment |0000000000> cannot serve the load"
            in capsys.readouterr().err
        )

    def test_s2_histograms(self, four_unit_csv, tmp_path):
        out = tmp_path / "out"
        code = main(
            _args(
                "s2", four_unit_csv, 50, out,
                "--max-iters", "4", "--emit-histograms",
            )
        )
        assert code == EXIT_NOT_CONVERGED
        for k in range(1, 5):
            lines = (out / f"histogram_iter{k}.csv").read_text().splitlines()
            assert lines[0] == "bitstring,probability"
            probs = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
            assert len(probs) == 16
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_outputs_follow_the_umask(self, four_unit_csv, tmp_path, umask):
        out = tmp_path / "out"
        previous = os.umask(umask)
        try:
            main(
                _args(
                    "s2", four_unit_csv, 50, out, "--max-iters", "2", "--emit-histograms"
                )
            )
        finally:
            os.umask(previous)
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "histogram_iter1.csv", "histogram_iter2.csv", "solution.csv", "trace.csv"
        ]
        for name in names:
            assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask, name

    def test_no_histograms_without_flag(self, four_unit_csv, tmp_path):
        out = tmp_path / "out"
        main(_args("s2", four_unit_csv, 50, out, "--max-iters", "2"))
        assert not list(out.glob("histogram_iter*.csv"))

    def test_s2_outputs_are_byte_identical_across_runs(self, four_unit_csv, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["--max-iters", "6", "--emit-histograms", "--seed", "5"]
        main(_args("s2", four_unit_csv, 50, out_a, *args))
        main(_args("s2", four_unit_csv, 50, out_b, *args))
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_s2_past_sixteen_units(self, twenty_unit_csv, tmp_path):
        # Argmax extraction reads per-qubit marginals only, so 20 qubits run.
        out = tmp_path / "out"
        code = main(_args("s2", twenty_unit_csv, 1000, out))
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        if (out / "solution.csv").exists():
            inst = UCInstance(parse_generators(twenty_unit_csv.read_text()), 1000.0)
            sol = solution_from_csv((out / "solution.csv").read_text())
            assert check_feasible(inst, sol.commitment, sol.dispatch).feasible

    @pytest.mark.parametrize(
        "extra, config, refused",
        [
            (("--extract", "sample"), None, False),
            ((), {"extract": "sample"}, False),
            (("--emit-histograms",), None, True),
        ],
        ids=["sample-flag", "sample-config", "histograms"],
    )
    def test_s2_dense_reads_refused_past_sixteen_units(
        self, twenty_unit_csv, tmp_path, capsys, extra, config, refused
    ):
        # Histograms need all 2**20 probabilities, so that run stops before
        # it solves. Sample extraction draws one bit per qubit and runs.
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            extra = ("--config", str(path))
        out = tmp_path / "out"
        code = main(_args("s2", twenty_unit_csv, 1000, out, *extra))
        if refused:
            assert code == 1
            assert "error: n=20 exceeds simulation guard 16" in capsys.readouterr().err
            assert not out.exists()
            return
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        assert (out / "solution.csv").exists() == (code == EXIT_OK)
        if code == EXIT_OK:
            inst = UCInstance(parse_generators(twenty_unit_csv.read_text()), 1000.0)
            sol = solution_from_csv((out / "solution.csv").read_text())
            assert check_feasible(inst, sol.commitment, sol.dispatch).feasible

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_max_iters_past_sys_maxsize(self, gen_csv, tmp_path, source):
        # run_admm counts its steps itself, so any integer cap runs, and a
        # cap the run never reaches leaves the default run's files.
        huge = 10**19
        if source == "flag":
            extra = ["--max-iters", str(huge)]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"max_iters": huge}))
            extra = ["--config", str(config)]
        assert main(_args("s1", gen_csv, 800, tmp_path / "plain")) == EXIT_OK
        assert main(_args("s1", gen_csv, 800, tmp_path / "huge", *extra)) == EXIT_OK
        assert _files(tmp_path / "huge") == _files(tmp_path / "plain")

    def test_config_file_and_flag_precedence(self, gen_csv, tmp_path):
        # Config file overrides presets; flags override the config file.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"max_iters": 2}))
        out = tmp_path / "o1"
        code = main(
            _args("s1", gen_csv, 800, out, "--config", str(config))
        )
        assert code == EXIT_NOT_CONVERGED

        out2 = tmp_path / "o2"
        code = main(
            _args(
                "s1", gen_csv, 800, out2,
                "--config", str(config), "--max-iters", "1000",
            )
        )
        assert code == EXIT_OK


class TestReusedOutDirectory:
    """A run into a used ``--out`` leaves what a run into a fresh one leaves;
    a run refused for its inputs leaves the directory as it was."""

    @pytest.mark.parametrize(
        "fleet, first, second, code",
        [
            ("gen_csv", ("s1", 800), ("s1", 5), EXIT_INFEASIBLE),
            ("gen_csv", ("s1", 800), ("baseline", 800), EXIT_OK),
            (
                "four_unit_csv",
                ("s2", 50, "--emit-histograms", "--max-iters", "3"),
                ("s2", 50, "--emit-histograms", "--max-iters", "1"),
                EXIT_NOT_CONVERGED,
            ),
        ],
        ids=["unservable-after-s1", "baseline-after-s1", "fewer-histograms"],
    )
    def test_holds_the_latest_run_only(
        self, request, tmp_path, capsys, fleet, first, second, code
    ):
        csv = request.getfixturevalue(fleet)
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        main(_args(first[0], csv, first[1], reused, *first[2:]))
        assert main(_args(second[0], csv, second[1], reused, *second[2:])) == code
        assert main(_args(second[0], csv, second[1], fresh, *second[2:])) == code
        capsys.readouterr()
        assert _files(reused) == _files(fresh)

    @pytest.mark.parametrize(
        "fleet, argv",
        [
            ("gen_csv", ("s1", 800, "--max-iters", "0")),
            ("four_unit_csv", ("s2", 50, "--config", "missing.json")),
            ("twenty_unit_csv", ("s2", 1000, "--emit-histograms")),
            ("bad_csv", ("baseline", 800)),
        ],
        ids=["bad-flag", "missing-config", "histograms-past-guard", "bad-generators"],
    )
    def test_input_error_leaves_it_as_it_was(
        self, request, four_unit_csv, tmp_path, capsys, fleet, argv
    ):
        if fleet == "bad_csv":
            csv = tmp_path / "bad.csv"
            csv.write_text("id,a,b,c,p_min,p_max\n1,2,3\n")
        else:
            csv = request.getfixturevalue(fleet)
        out = tmp_path / "out"
        extra = ("--emit-histograms", "--max-iters", "2")
        assert main(_args("s2", four_unit_csv, 50, out, *extra)) == EXIT_NOT_CONVERGED
        before = _files(out)
        assert set(before) == {
            "solution.csv", "trace.csv", "histogram_iter1.csv", "histogram_iter2.csv"
        }
        assert main(_args(argv[0], csv, argv[1], out, *argv[2:])) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
        assert _files(out) == before


class TestInputErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = main(_args("baseline", tmp_path / "nope.csv", 100, tmp_path / "o"))
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "kind, reason",
        [
            ("missing", "No such file or directory"),
            ("directory", "Is a directory"),
            ("non-utf8", "not UTF-8 text"),
        ],
    )
    @pytest.mark.parametrize("role", ["generators", "config"])
    def test_unreadable_file_is_named(
        self, gen_csv, tmp_path, capsys, mode, kind, reason, role
    ):
        bad = tmp_path / f"bad-{role}"
        if kind == "directory":
            bad.mkdir()
        elif kind == "non-utf8":
            bad.write_bytes(b"\xb5\xe9\n")
        if role == "config":
            argv = _args(mode, gen_csv, 300, tmp_path / "o", "--config", str(bad))
        else:
            argv = _args(mode, bad, 300, tmp_path / "o")
        code = main(argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {role} file {bad}: {reason}")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", MODES)
    def test_failed_rename_leaves_no_temporary_file(
        self, gen_csv, tmp_path, capsys, monkeypatch, mode
    ):
        def refuse(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

        monkeypatch.setattr("hquc.cli.os.replace", refuse)
        out = tmp_path / "o"
        assert main(_args(mode, gen_csv, 800, out)) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: [Errno {errno.EXDEV}] {os.strerror(errno.EXDEV)}"
        assert list(out.iterdir()) == []

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,a,b,c,p_min,p_max\n1,660,25.92,0.00413,10\n")
        code = main(_args("baseline", bad, 100, tmp_path / "o"))
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_unknown_config_key(self, gen_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rho": 4000, "bogus": 1}))
        code = main(_args("s1", gen_csv, 800, tmp_path / "o", "--config", str(config)))
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ['{"rho": 4000', '{"rho": 1' + "0" * 5000 + "}"],
        ids=["truncated", "integer-past-digit-limit"],
    )
    def test_config_file_that_does_not_parse(self, gen_csv, tmp_path, capsys, text):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        code = main(_args("s1", gen_csv, 800, tmp_path / "o", "--config", str(config)))
        assert code == 1
        err = capsys.readouterr().err
        assert "error: config file" in err and "cfg.json" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rho", "abc"), ("epsilon", None), ("max_iters", 1.5),
            ("initial_z", 5), ("qaoa_depth", "2"), ("initial_z", ["a"] * 10),
            ("warm_start", "no"), ("initial_z", [float("nan")] * 10),
            ("initial_r", [float("inf")] * 10),
            ("initial_lambda", [0.0] * 9 + [float("-inf")]),
            pytest.param("rho", 10**400, id="rho-past-float-range"),
            pytest.param(
                "initial_z", [0.0] * 9 + [10**400], id="initial_z-past-float-range"
            ),
            pytest.param("initial_z", [10**400, "a"], id="initial_z-huge-and-text"),
            *(
                pytest.param(key, _JsonText(text), id=name)
                for name, key, text, _ in _NON_FINITE_CONFIG
            ),
        ],
    )
    def test_config_value_of_wrong_type(self, gen_csv, tmp_path, capsys, key, value):
        config = tmp_path / "cfg.json"
        text = value if isinstance(value, _JsonText) else json.dumps(value)
        config.write_text(f'{{"{key}": {text}}}')
        out = tmp_path / "o"
        code = main(_args("s2", gen_csv, 800, out, "--config", str(config)))
        _assert_config_file_error(code, capsys.readouterr().err, out, key)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "s1", "--generators", "g.csv", "--load", "abc"],
            ["--mode", "s9", "--generators", "g.csv", "--load", "800"],
            ["--generators", "g.csv", "--load", "800"],
        ],
        ids=["load-not-a-number", "unknown-mode", "missing-mode"],
    )
    def test_usage_error(self, capsys, argv):
        # Exit 2 means "infeasible" here, so usage errors exit 1 instead.
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--mode" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["s1", "s2"])
    def test_negative_seed(self, gen_csv, tmp_path, capsys, mode):
        extra = ("--extract", "sample", "--seed", "-1")
        code = main(_args(mode, gen_csv, 800, tmp_path / "o", *extra))
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "seed" in err

    @pytest.mark.parametrize(
        "settings",
        [
            {"qaoa_depth": 1000000},
            {"qaoa_depth": 50, "qaoa_budget": 100},
            {"qaoa_depth": 3, "qaoa_budget": 6},
        ],
        ids=["huge-depth", "default-budget", "small-budget"],
    )
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_depth_beyond_budget(self, gen_csv, tmp_path, capsys, settings, source):
        # The angle search first evaluates the 2 * depth + 1 vertices of its
        # initial simplex, so s2 rejects a budget below that up front.
        # Baseline and s1 never run the search and accept the same settings.
        if source == "flags":
            extra = []
            for key, value in settings.items():
                extra += ["--" + key.replace("_", "-"), str(value)]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps(settings))
            extra = ["--config", str(config)]
        code = main(_args("s2", gen_csv, 50, tmp_path / "o", *extra))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"qaoa_depth {settings['qaoa_depth']}" in err

        for mode in ("baseline", "s1"):
            code = main(_args(mode, gen_csv, 50, tmp_path / mode, *extra))
            assert code == EXIT_OK
            assert capsys.readouterr().err == ""

    def test_non_utf8_files(self, gen_csv, tmp_path, capsys):
        bad_csv = tmp_path / "latin1.csv"
        bad_csv.write_bytes(b"id,a,b,c,p_min,p_max\n1,660,25.92,0.00413,10,55\xb5\n")
        code = main(_args("baseline", bad_csv, 30, tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "latin1.csv" in err

        bad_config = tmp_path / "latin1.json"
        bad_config.write_bytes(b'{"rho": 4000, "\xe9": 1}')
        code = main(
            _args("s1", gen_csv, 800, tmp_path / "o", "--config", str(bad_config))
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "latin1.json" in err

    @pytest.mark.parametrize("mode", ["baseline", "s1"])
    def test_byte_order_mark_is_read(self, gen_csv, tmp_path, capsys, mode):
        bom = b"\xef\xbb\xbf"
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(bom + TEN_UNIT_CSV.read_bytes())
        assert main(_args(mode, gen_csv, 800, tmp_path / "plain")) == EXIT_OK
        assert main(_args(mode, bom_csv, 800, tmp_path / "bom")) == EXIT_OK
        assert _files(tmp_path / "bom") == _files(tmp_path / "plain")

        config = tmp_path / "cfg.json"
        config.write_bytes(bom + json.dumps({"max_iters": 2}).encode())
        code = main(_args(mode, gen_csv, 800, tmp_path / "o", "--config", str(config)))
        assert code == (EXIT_OK if mode == "baseline" else EXIT_NOT_CONVERGED)
        assert "error" not in capsys.readouterr().err

    def test_negative_load(self, gen_csv, tmp_path, capsys):
        # Non-finite loads are bad input too, never "infeasible".
        for mode in ("baseline", "s1"):
            for load in ("-5", "nan", "inf"):
                code = main(_args(mode, gen_csv, load, tmp_path / "o"))
                assert code == 1, (mode, load)
                assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["baseline", "s1"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("a", "nan"), ("b", "nan"), ("c", "inf"),
            ("p_min", "nan"), ("p_max", "inf"),
        ],
    )
    def test_non_finite_generator_field(self, tmp_path, capsys, mode, field, value):
        row = dict(id="1", a="660", b="25.92", c="0.00413", p_min="10", p_max="55")
        row[field] = value
        bad = tmp_path / "bad.csv"
        bad.write_text("id,a,b,c,p_min,p_max\n" + ",".join(row.values()) + "\n")
        code = main(_args(mode, bad, 30, tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "not finite" in err

    @pytest.mark.parametrize("mode", ["baseline", "s1", "s2"])
    @pytest.mark.parametrize("load", [0, 30, 150])
    @pytest.mark.parametrize(
        "rows",
        [
            [(1e308, 10.0, 0.01, 10.0, 100.0), (1e308, 12.0, 0.02, 10.0, 100.0)],
            [(100.0, 10.0, 0.01, 10.0, 100.0), (100.0, 12.0, 1e308, 10.0, 100.0)],
            [(0.0, 1.0, 1e308, 0.0, 1.0), (0.0, 1.0, 0.01, 0.0, 10.0)],
        ],
        ids=["fleet-sum", "one-unit", "marginal"],
    )
    def test_overflowing_cost(self, tmp_path, capsys, mode, load, rows):
        # Finite data whose cost or marginal cost at full output overflows
        # is bad input.
        path = _write_fleet(tmp_path / "g.csv", rows)
        assert main(_args(mode, path, load, tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err

    @pytest.mark.parametrize("mode", ["baseline", "s1", "s2"])
    @pytest.mark.parametrize("load", [0, 30, 150])
    def test_unit_with_tiny_capacity(self, tmp_path, mode, load):
        # a / p_max overflows, which the solvers must survive.
        rows = [(1e10, 10.0, 0.01, 0.0, 1e-300), (100.0, 12.0, 0.02, 10.0, 100.0)]
        path = _write_fleet(tmp_path / "g.csv", rows)
        assert main(_args(mode, path, load, tmp_path / "o")) in (
            EXIT_OK,
            EXIT_INFEASIBLE,
        )

    def test_module_run_is_warning_free(self):
        # The package must not import its front end, or runpy warns.
        done = _fresh_python("-W", "error::RuntimeWarning", "-m", "hquc.cli", "--help")
        assert done.returncode == 0
        assert done.stderr == ""

    def test_import_leaves_scipy_out(self):
        # scipy is a test oracle, never a run-time dependency.
        done = _fresh_python(
            "-c", "import sys, hquc, hquc.cli; print('scipy' in sys.modules)"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_runs_with_numpy_blocked(self, gen_csv, tmp_path):
        # numpy is a test oracle, never a run-time dependency: with its
        # import refused, hquc imports and every mode solves.
        runs = [
            _args("baseline", gen_csv, 800, tmp_path / "baseline"),
            _args("s1", gen_csv, 800, tmp_path / "s1"),
            _args("s2", gen_csv, 800, tmp_path / "s2", "--emit-histograms"),
            _args("s2", gen_csv, 800, tmp_path / "sample", "--extract", "sample"),
        ]
        script = (
            "import json, sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'numpy':\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "try:\n"
            "    import numpy\n"
            "except ImportError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('numpy was not blocked')\n"
            "import hquc, hquc.cli\n"
            "codes = [hquc.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'numpy' in sys.modules]))\n"
        )
        done = _fresh_python("-c", script, json.dumps(runs))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [[EXIT_OK] * 4, False]
        # The histogram run in this process, where numpy is loaded, writes
        # the same files.
        warm = tmp_path / "warm"
        assert main(_args("s2", gen_csv, 800, warm, "--emit-histograms")) == EXIT_OK
        names = sorted(p.name for p in warm.iterdir())
        assert sorted(p.name for p in (tmp_path / "s2").iterdir()) == names
        assert any(name.startswith("histogram_iter") for name in names)
        for name in names:
            assert (tmp_path / "s2" / name).read_bytes() == (warm / name).read_bytes()

    @pytest.mark.parametrize(
        "flag, value", [("--rho", "inf"), ("--epsilon", "nan"), ("--epsilon", "inf")]
    )
    def test_non_finite_admm_setting(self, gen_csv, tmp_path, capsys, flag, value):
        code = main(_args("s1", gen_csv, 800, tmp_path / "o", flag, value))
        assert code == 1
        assert "error:" in capsys.readouterr().err


#: Generator-field texts: values the parser must refuse, or that the solvers
#: must survive, near the float maximum among them.
_WILD_FIELD = st.one_of(
    st.floats().map(repr),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(
        ["nan", "inf", "-inf", "1e308", "-1e308", "1.7976931348623157e308",
         "1e400", "5e-324", "-0.0", "0", "-1", "abc", ""]
    ),
)
#: Rows that parse, in the ranges of the seeded test fleets.
_PLAIN_ROW = st.tuples(
    st.floats(0.0, 1000.0),
    st.floats(0.0, 40.0),
    st.one_of(st.just(0.0), st.floats(1e-4, 0.01)),
    st.floats(0.0, 50.0),
    st.floats(0.0, 200.0),
).map(lambda u: [repr(v) for v in (*u[:4], u[3] + u[4])])
#: Fleets of 1 to 4 units: plain ones, and ones with wild rows mixed in.
_FLEET_ROWS = st.one_of(
    st.lists(_PLAIN_ROW, min_size=1, max_size=4),
    st.lists(
        st.one_of(_PLAIN_ROW, st.lists(_WILD_FIELD, min_size=5, max_size=5)),
        min_size=1,
        max_size=4,
    ),
)
_LOAD_TEXT = st.one_of(
    st.floats(0.0, 600.0).map(repr),
    st.sampled_from(["nan", "inf", "-5", "1e308", "0"]),
)
_CONFIG_NUMBER = st.one_of(
    st.floats(), st.integers(-(10**400), 10**400), st.floats(1.0, 1e4)
)
#: Config files; ``max_iters`` and ``qaoa_budget`` are always capped, so an
#: s2 run does at most 30 angle searches of at most 30 circuits each.
_PLAIN_CONFIG = st.fixed_dictionaries(
    {"max_iters": st.integers(1, 30), "qaoa_budget": st.integers(7, 30)},
    optional={
        "qaoa_depth": st.integers(1, 3),
        "warm_start": st.booleans(),
        "extract": st.sampled_from(["argmax", "sample"]),
    },
)
_WILD_CONFIG = st.fixed_dictionaries(
    {"max_iters": st.integers(1, 30), "qaoa_budget": st.integers(1, 30)},
    optional={
        "rho": _CONFIG_NUMBER,
        "beta": _CONFIG_NUMBER,
        "epsilon": _CONFIG_NUMBER,
        "qaoa_depth": st.integers(0, 3),
        "warm_start": st.booleans(),
        "extract": st.sampled_from(["argmax", "sample", "neither"]),
        "initial_z": st.lists(_CONFIG_NUMBER, max_size=4),
        "initial_r": st.lists(_CONFIG_NUMBER, max_size=4),
        "initial_lambda": st.lists(_CONFIG_NUMBER, max_size=4),
    },
)
_CONFIG = st.one_of(_PLAIN_CONFIG, _WILD_CONFIG)

#: Unit 1's commitment cost makes the dual bound's terms overflow.
_OVERFLOW_FLEET = [
    ["1e308", "25.92", "0.00413", "10", "55"],
    ["670", "27.79", "0.00173", "10", "55"],
    ["700", "16.6", "0.002", "20", "130"],
]
#: Clearing prices past 2**50, where a bracket margin of 1.0 rounds away:
#: (fleet, load, commitment, dispatch, cost).
_HUGE_PRICE_CASES = [
    (
        [["0", "1e17", "0", "0", "100"], ["0", "2e17", "0", "0", "100"]],
        "150",
        (1, 1),
        (100.0, 50.0),
        2e19,
    ),
    ([["0", "1e300", "1e-10", "0", "100"]], "50", (1,), (50.0,), 5e301),
]
#: Serving 100.001 MW needs unit 1 fully on, which block 1 prices above
#: a / p_max = 1e311, past the float range.
_OUT_OF_RANGE_FLEET = [
    ["1e308", "1", "0", "0", "0.001"],
    ["0", "1", "0", "0", "100"],
]


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


#: One invalid value for each setting flag and for ``--seed``.
_INVALID_FLAGS = {
    "rho": ["--rho", "nan"],
    "beta": ["--beta", "-1"],
    "epsilon": ["--epsilon", "-1"],
    "max_iters": ["--max-iters", "0"],
    "qaoa_depth": ["--qaoa-depth", "0"],
    "qaoa_budget": ["--qaoa-budget", "0"],
    "warm_start": ["--warm-start=no"],
    "extract": ["--extract", "neither"],
    "seed": ["--seed", "-1"],
}
_FLAGGED = {key for key, (_, _, _, flag) in _SETTINGS.items() if flag is not None}


class TestSettingsTable:
    """``_SETTINGS`` is the one description of the solver settings: it makes
    the flags, checks the config file, and every mode builds the config
    from it."""

    def test_every_flag_has_an_invalid_value_here(self):
        assert set(_INVALID_FLAGS) == _FLAGGED | {"seed"}

    @pytest.mark.parametrize("key", sorted(_INVALID_FLAGS))
    def test_invalid_flag_is_the_same_error_in_every_mode(
        self, gen_csv, tmp_path, capsys, key
    ):
        errors = {}
        for mode in MODES:
            out = tmp_path / mode
            code = main(_args(mode, gen_csv, 800, out, *_INVALID_FLAGS[key]))
            err = capsys.readouterr().err
            assert code == 1, (mode, err)
            assert not out.exists()
            # A usage error prints the usage first; the error is the last line.
            assert [line for line in err.splitlines() if "error:" in line] == [
                err.splitlines()[-1]
            ]
            errors[mode] = err
        assert errors["baseline"] == errors["s1"] == errors["s2"]

    def test_every_setting_is_a_config_field(self):
        admm = {f.name for f in dataclasses.fields(AdmmConfig)}
        qaoa = {f.name for f in dataclasses.fields(QaoaConfig)}
        for key, (_, _, qaoa_field, _) in _SETTINGS.items():
            assert key in admm if qaoa_field is None else qaoa_field in qaoa, key

    def test_parser_options_are_the_table_flags_and_the_run_options(self):
        actions = {a.dest: a for a in _build_parser()._actions}
        run_options = {
            "help", "mode", "generators", "load", "seed", "emit_histograms",
            "config", "out",
        }
        assert set(actions) == _FLAGGED | run_options
        for key in _FLAGGED:
            assert actions[key].option_strings[0] == "--" + key.replace("_", "-")


class TestParserReuse:
    """The parser is built once per process, so no call may leave a trace
    in it for the next."""

    def test_flags_do_not_leak_into_the_next_call(self, four_unit_csv, tmp_path):
        plain = ["--max-iters", "3"]
        flags = ["--emit-histograms", "--rho", "5", "--beta", "1", "--seed", "3"]
        _build_parser.cache_clear()
        first = main(_args("s2", four_unit_csv, 50, tmp_path / "first", *plain))
        parser = _build_parser()
        flagged = main(
            _args("s2", four_unit_csv, 50, tmp_path / "flags", *plain, *flags)
        )
        again = main(_args("s2", four_unit_csv, 50, tmp_path / "again", *plain))
        assert _build_parser() is parser
        assert first == again == EXIT_NOT_CONVERGED
        assert flagged == EXIT_NOT_CONVERGED
        assert "histogram_iter1.csv" in _files(tmp_path / "flags")
        assert _files(tmp_path / "flags") != _files(tmp_path / "first")
        assert _files(tmp_path / "again") == _files(tmp_path / "first")

    def test_usage_error_then_valid_call(self, gen_csv, tmp_path, capsys):
        argv = ["--mode", "s9", "--generators", str(gen_csv), "--load", "800"]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err
        assert main(_args("baseline", gen_csv, 800, tmp_path / "out")) == EXIT_OK
        assert (tmp_path / "out" / "solution.csv").is_file()

    def test_help_after_earlier_calls(self, gen_csv, tmp_path, capsys):
        assert main(_args("baseline", gen_csv, 800, tmp_path / "out")) == EXIT_OK
        assert main(["--load", "800"]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--mode" in capsys.readouterr().out


class TestContract:
    """Whatever the input, ``main`` returns an exit code and never raises."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        mode=st.sampled_from(MODES),
        rows=_FLEET_ROWS,
        load=_LOAD_TEXT,
        config=_CONFIG,
        seed=st.integers(-1, 3),
        histograms=st.booleans(),
    )
    @example(
        mode="baseline",
        rows=_OVERFLOW_FLEET,
        load="240",
        config={"max_iters": 30, "qaoa_budget": 30},
        seed=0,
        histograms=False,
    )
    def test_every_input_ends_in_an_exit_code(
        self, mode, rows, load, config, seed, histograms
    ):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            fleet = tmp / "generators.csv"
            fleet.write_text(_fleet_text(rows))
            cfg = tmp / "cfg.json"
            cfg.write_text(json.dumps(config))
            extra = ["--config", str(cfg), "--seed", str(seed)]
            if histograms:
                extra.append("--emit-histograms")
            code = main(_args(mode, fleet, load, tmp / "out", *extra))
            assert code in (EXIT_OK, 1, EXIT_INFEASIBLE, EXIT_NOT_CONVERGED)
            if code == EXIT_OK:
                inst = UCInstance(parse_generators(fleet.read_text()), float(load))
                sol = solution_from_csv((tmp / "out" / "solution.csv").read_text())
                assert check_feasible(inst, sol.commitment, sol.dispatch).feasible

    def test_overflowing_bound_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        path.write_text(_fleet_text(_OVERFLOW_FLEET))
        assert main(_args("baseline", path, 240, tmp_path / "o")) == EXIT_OK
        assert capsys.readouterr().out == "baseline commitment |111> cost 1e+308\n"

    @pytest.mark.parametrize("mode", ["s1", "s2"])
    def test_overflowing_bound_exits_zero_in_admm_modes(self, mode, tmp_path, capsys):
        path = tmp_path / "g.csv"
        path.write_text(_fleet_text(_OVERFLOW_FLEET))
        assert main(_args(mode, path, 240, tmp_path / "o")) == EXIT_OK
        assert "commitment |111> cost 1e+308\n" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "rows, load, bits, dispatch, cost", _HUGE_PRICE_CASES, ids=["150MW", "50MW"]
    )
    def test_huge_prices_are_cleared(
        self, mode, rows, load, bits, dispatch, cost, tmp_path
    ):
        path = tmp_path / "g.csv"
        path.write_text(_fleet_text(rows))
        assert main(_args(mode, path, load, tmp_path / "o")) == EXIT_OK
        sol = solution_from_csv((tmp_path / "o" / "solution.csv").read_text())
        inst = UCInstance(parse_generators(path.read_text()), float(load))
        assert check_feasible(inst, sol.commitment, sol.dispatch).feasible
        assert (sol.commitment.bits, sol.dispatch, sol.cost) == (bits, dispatch, cost)

    @pytest.mark.parametrize("mode", MODES)
    def test_block1_price_past_the_float_range(self, mode, tmp_path, capsys):
        path = tmp_path / "g.csv"
        path.write_text(_fleet_text(_OUT_OF_RANGE_FLEET))
        code = main(_args(mode, path, "100.001", tmp_path / "o"))
        out, err = capsys.readouterr()
        if mode == "baseline":
            assert code == EXIT_OK
            assert out == "baseline commitment |11> cost 1e+308\n"
        else:
            assert code == 1
            assert err == "error: no float price clears load 100.001 in block 1\n"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        units=st.lists(
            st.tuples(
                st.floats(-1e3, 1e6),
                st.floats(0.0, 1e3),
                st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                st.floats(0.0, 1e3),
                st.floats(0.0, 1e3),
            ),
            min_size=1,
            max_size=5,
        ),
        load_frac=st.floats(0.0, 1.0),
        mode=st.sampled_from(["baseline", "s1"]),
    )
    def test_solution_survives_a_csv_round_trip(self, units, load_frac, mode):
        # parse_generators -> solve -> solution_to_csv -> solution_from_csv
        # gives back the solution's bits, dispatch and cost, float for float.
        rows = [[repr(v) for v in (a, b, c, lo, lo + w)] for a, b, c, lo, w in units]
        gens = parse_generators(_fleet_text(rows))
        load = load_frac * sum(g.p_max for g in gens)
        instance = UCInstance(gens, load)
        if mode == "baseline":
            try:
                solution = solve_uc_exact(instance)
            except Infeasible:
                return
        else:
            solution = run_admm(instance, default_config(load, max_iters=50)).final
            if solution is None:
                return
        parsed = solution_from_csv(solution_to_csv(solution))
        assert parsed.commitment.bits == solution.commitment.bits
        assert parsed.dispatch == solution.dispatch
        assert parsed.cost == solution.cost

