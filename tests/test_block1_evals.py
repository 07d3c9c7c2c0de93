import importlib.util
import pathlib

from hquc import UCInstance, default_config, run_admm

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "block1_evals.py"
spec = importlib.util.spec_from_file_location("block1_evals", TOOL)
block1_evals = importlib.util.module_from_spec(spec)
spec.loader.exec_module(block1_evals)


def test_two_loads_are_counted_and_digested():
    gens = block1_evals.ten_unit()
    runs = [(UCInstance(gens, load), block1_evals._preset) for load in (300.0, 1300.0)]
    per_solve, solves, digest = block1_evals.measure(runs)
    iterations = sum(run_admm(inst, default_config(inst.load)).iterations for inst, _ in runs)
    assert solves == iterations
    assert 1.0 <= per_solve <= 10.0
    assert len(digest) == 64 and int(digest, 16) >= 0
    # The digest is of the floats: the same runs give it again, others not.
    assert block1_evals.measure(runs)[2] == digest
    assert block1_evals.measure(runs[:1])[2] != digest


def test_counting_restores_the_functions():
    from hquc import admm, qpblock

    before = admm.solve_block1, qpblock._profile
    with block1_evals.counting():
        assert (admm.solve_block1, qpblock._profile) != before
    assert (admm.solve_block1, qpblock._profile) == before
