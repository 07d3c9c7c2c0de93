import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import TEN_UNIT_CSV
from helpers import random_generators

from hquc import (
    Commitment,
    InfeasibleCommitment,
    InstanceMismatch,
    UCInstance,
    check_feasible,
    compare,
    default_config,
    economic_dispatch,
    enumerate_uc,
    evaluate_cost,
    parse_generators,
    run_admm,
    solution_from_csv,
    solution_to_csv,
)
import hquc
from hquc.cli import EXIT_INFEASIBLE, EXIT_NOT_CONVERGED, EXIT_OK, main

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


def _write_fleet(path, rows):
    lines = ["id,a,b,c,p_min,p_max"]
    for i, row in enumerate(rows, start=1):
        lines.append(",".join([str(i)] + [repr(v) for v in row]))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def four_unit_csv(tmp_path, ten_unit_generators):
    lines = ["id,a,b,c,p_min,p_max"]
    for g in ten_unit_generators[:4]:
        lines.append(f"{g.id},{g.a},{g.b},{g.c},{g.p_min},{g.p_max}")
    path = tmp_path / "four.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _args(mode, gen_path, load, out, *extra):
    return [
        "--mode", mode,
        "--generators", str(gen_path),
        "--load", str(load),
        "--out", str(out),
        *extra,
    ]


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
        gens = random_generators(np.random.default_rng(30), 30, allow_zero_c=True)
        lines = ["id,a,b,c,p_min,p_max"]
        lines += [f"{g.id},{g.a!r},{g.b!r},{g.c!r},{g.p_min!r},{g.p_max!r}" for g in gens]
        path = tmp_path / "thirty.csv"
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


class TestAdmmModes:
    def test_s1_converged_run_artifacts(self, gen_csv, tmp_path):
        out = tmp_path / "out"
        code = main(
            _args("s1", gen_csv, 800, out, "--rho", "4000", "--beta", "1000")
        )
        assert code == EXIT_OK
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == (
            "iter,residual,objective,block1_objective,block1_kkt,block2_energy"
        )
        final_residual = float(trace_lines[-1].split(",")[1])
        assert final_residual <= 1e-6
        parsed = solution_from_csv((out / "solution.csv").read_text())
        assert parsed.commitment.on_units() == (6, 9)

    def test_s2_infeasible_exit_code(self, gen_csv, tmp_path, capsys):
        code = main(_args("s2", gen_csv, 2000, tmp_path / "o"))
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_not_converged_exit_code(self, gen_csv, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(_args("s1", gen_csv, 800, out, "--max-iters", "3"))
        assert code == EXIT_NOT_CONVERGED
        assert (out / "trace.csv").exists()
        assert "not converged" in capsys.readouterr().err

    def test_converged_unservable_commitment_maps_to_infeasible(
        self, gen_csv, tmp_path, capsys
    ):
        # 5 MW is below every unit's p_min: the relaxation is feasible and
        # the loop converges, but no commitment can serve the load.
        code = main(_args("s1", gen_csv, 5, tmp_path / "o"))
        assert code == EXIT_INFEASIBLE
        assert "cannot serve" in capsys.readouterr().err

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
        "extra, config",
        [
            (("--extract", "sample"), None),
            ((), {"extract": "sample"}),
            (("--emit-histograms",), None),
        ],
        ids=["sample-flag", "sample-config", "histograms"],
    )
    def test_s2_dense_reads_refused_past_sixteen_units(
        self, twenty_unit_csv, tmp_path, capsys, extra, config
    ):
        # Both need all 2**20 probabilities; the run stops before it solves.
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            extra = ("--config", str(path))
        out = tmp_path / "out"
        assert main(_args("s2", twenty_unit_csv, 1000, out, *extra)) == 1
        assert "error: n=20 exceeds simulation guard 16" in capsys.readouterr().err
        assert not out.exists()

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


class TestInputErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = main(_args("baseline", tmp_path / "nope.csv", 100, tmp_path / "o"))
        assert code == 1
        assert "error" in capsys.readouterr().err

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
        "key, value",
        [
            ("rho", "abc"), ("epsilon", None), ("max_iters", 1.5),
            ("initial_z", 5), ("qaoa_depth", "2"), ("initial_z", ["a"] * 10),
            ("warm_start", "no"), ("initial_z", [float("nan")] * 10),
            ("initial_r", [float("inf")] * 10),
            ("initial_lambda", [0.0] * 9 + [float("-inf")]),
        ],
    )
    def test_config_value_of_wrong_type(self, gen_csv, tmp_path, capsys, key, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        code = main(_args("s2", gen_csv, 800, tmp_path / "o", "--config", str(config)))
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert key in err

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
        ],
        ids=["fleet-sum", "one-unit"],
    )
    def test_overflowing_cost(self, tmp_path, capsys, mode, load, rows):
        # Finite data whose cost at full output overflows is bad input.
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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hquc.cli", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0
        assert done.stderr == ""

    @pytest.mark.parametrize(
        "flag, value", [("--rho", "inf"), ("--epsilon", "nan"), ("--epsilon", "inf")]
    )
    def test_non_finite_admm_setting(self, gen_csv, tmp_path, capsys, flag, value):
        code = main(_args("s1", gen_csv, 800, tmp_path / "o", flag, value))
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCompare:
    def test_identical_reports(self, ten_unit):
        inst = ten_unit(800.0)
        report = run_admm(inst, default_config(800.0))
        diff = compare(report, report)
        assert diff.commitments_equal
        assert diff.cost_delta == 0.0
        assert all(ratio == 1.0 for _, _, _, ratio in diff.residual_ratios)

    def test_s1_vs_s2_commitment_equality(self, ten_unit):
        inst = ten_unit(800.0)
        s1 = run_admm(inst, default_config(800.0))
        s2 = run_admm(inst, default_config(800.0, backend="qaoa"))
        diff = compare(s1, s2)
        assert diff.commitments_equal
        assert diff.converged == (True, True)

    def test_cap_hit_flagged(self, ten_unit):
        inst = ten_unit(800.0)
        good = run_admm(inst, default_config(800.0))
        capped = run_admm(inst, default_config(800.0, max_iters=2))
        diff = compare(good, capped)
        assert diff.converged == (True, False)
        assert len(diff.residual_ratios) == 2

    def test_instance_mismatch(self, ten_unit):
        a = run_admm(ten_unit(800.0), default_config(800.0))
        b = run_admm(ten_unit(400.0), default_config(400.0))
        with pytest.raises(InstanceMismatch):
            compare(a, b)

    def test_format_renders(self, ten_unit):
        inst = ten_unit(800.0)
        report = run_admm(inst, default_config(800.0))
        text = compare(report, report).format()
        assert "commitments_equal: True" in text
        assert "iter,residual_a,residual_b,ratio" in text
