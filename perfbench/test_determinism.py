"""Determinism self-check of the benchmark.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``. A tiny
traced run is repeated with one seed: the simulated clock, the
iteration counts and the per-request ``hw.cjit`` / ``serving.arch_cache``
counts must repeat exactly. Another seed must change the inputs and
still pass every output check.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.configure_environment()
sys.path.insert(0, str(run.SRC))

import harness  # noqa: E402
from workloads import ServeWarm  # noqa: E402

#: Metrics that must repeat exactly for one seed.
EXACT_END_TO_END = ("sim_cycles_per_solve", "sim_solve_us", "eta_mean")
EXACT_LAYERS = ("solver.admm_iterations_mean", "solver.pdqp_iterations_mean",
                "solver.pdqp_share", "hw.cjit.builds",
                "hw.cjit.compile_module_calls_per_request",
                "hw.compiled.executors_per_request",
                "serving.arch_cache.hit_rate",
                "serving.arch_cache.lookups_per_request",
                "hw.sim.spmv_cycle_share", "hw.sim.vector_cycle_share",
                "hw.sim.transfer_cycle_share")


class TinyServe(ServeWarm):
    """One ADMM and one PDQP structure, four instances each."""

    mix = (("control", 2, 1), ("huber", 24, 1))
    count = 4


def tiny_run(seed, tmp_path):
    # seconds=0: exactly the minimum, one untraced and one traced cycle.
    return harness.run(TinyServe(), seed=seed, seconds=0.0, traced=True,
                       out_dir=tmp_path, setup_repeats=1)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    return [tiny_run(7, tmp), tiny_run(7, tmp), tiny_run(8, tmp)]


def test_same_seed_repeats_exactly(reports):
    first, again, _ = reports
    for name in EXACT_END_TO_END:
        assert first["end_to_end"][name] == again["end_to_end"][name], name
    layers = first["result"]["metrics"]
    layers_again = again["result"]["metrics"]
    for name in EXACT_LAYERS:
        assert layers[name]["value"] == layers_again[name]["value"], name
    assert layers["hw.cjit.builds"]["value"] == 0
    assert layers["serving.arch_cache.hit_rate"]["value"] == 1.0


def test_other_seed_changes_inputs_and_passes(reports):
    first, _, other = reports
    assert other["result"]["correct"]
    assert other["end_to_end"]["success_rate"] == 1.0
    assert (other["end_to_end"]["sim_cycles_per_solve"]
            != first["end_to_end"]["sim_cycles_per_solve"])
    a = TinyServe().make_inputs(7)
    b = TinyServe().make_inputs(8)
    assert not np.array_equal(a.instances[0][0].q, b.instances[0][0].q)


def test_every_run_passes_its_checks(reports):
    for report in reports:
        assert report["result"]["correct"], report["checks"]
        assert report["result"]["failed"] == 0
