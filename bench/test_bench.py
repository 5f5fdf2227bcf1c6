"""Self-check of the benchmark harness: ``python -m pytest bench``.

A reduced-size pass of every workload must print every metric with its
unit, and a deliberately corrupted output must be counted as a failure,
which shows that the output checks are live.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from child import judge  # noqa: E402
from checks import digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ACCURACY = {"exact2d": {"oracle_linf"}, "sweep1d": {"readout_rel_l2"},
            "long1d": {"oracle_linf"}, "paper": {"oracle_linf", "readout_rel_l2"}}


@pytest.fixture
def work(request):
    """A work directory inside the repository, like the benchmark's own."""
    path = ROOT / ".bench_work" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    if not any(path.parent.iterdir()):
        path.parent.rmdir()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: why for name, (_, why) in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reduced_pass_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--reduced"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert set(details["accuracy"]) == {"fail_rate"} | ACCURACY[workload]
    assert details["accuracy"]["fail_rate"]["value"] == 0
    assert details["seed"] == 3 and details["host"]["nproc"] >= 1
    if trace:
        assert details["counts_not_repeating"] == []
        assert set(details["per_layer_detail"]) == set(run.PER_LAYER_DETAIL)
    else:
        assert set(details["seconds"]) == {"wall_s", "cell_loops_per_s", "reference_s"}
    for name, m in {**result["metrics"], **details["accuracy"]}.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == m["unit"]
                   for line in lines), name


def _two_repetitions(work):
    """A reduced exact2d plan, run twice through the CLI as the child does."""
    from qlbm.cli import main

    build, _ = WORKLOADS["exact2d"]
    plan = build(ROOT, work, 5, True)
    for rep in ("rep0", "rep1"):
        for i, cmd in enumerate(plan.commands):
            assert main(cmd.argv + ["--out", str(work / rep / str(i))]) == 0
    digests = [[digest(work / rep / str(i)) for i in range(len(plan.commands))]
               for rep in ("rep0", "rep1")]
    return plan, [[0] * len(plan.commands)] * 2, digests


def test_clean_outputs_pass(work):
    plan, rcs, digests = _two_repetitions(work)
    _, failed, misses, values = judge(plan, work, rcs, digests, None)
    assert (failed, misses) == (0, [])
    assert values["oracle_linf"] <= 1e-10


def test_corrupted_field_counts_as_failed(work):
    plan, rcs, _ = _two_repetitions(work)
    for rep in ("rep0", "rep1"):  # both repetitions agree, but on a wrong value
        csv = work / rep / "0" / "field.csv"
        lines = csv.read_text().splitlines()
        x, y, phi = lines[1].split(",")
        lines[1] = f"{x},{y},{float(phi) + 1e-6!r}"
        csv.write_text("\n".join(lines) + "\n")
    digests = [[digest(work / rep / "0")] for rep in ("rep0", "rep1")]
    _, failed, misses, _ = judge(plan, work, rcs, digests, None)
    assert failed == 2 and any("oracle" in m for m in misses)


def test_outputs_that_change_between_repetitions_count_as_failed(work):
    plan, rcs, _ = _two_repetitions(work)
    with (work / "rep1" / "0" / "report.json").open("a") as f:
        f.write(" ")
    digests = [[digest(work / rep / "0")] for rep in ("rep0", "rep1")]
    _, failed, misses, _ = judge(plan, work, rcs, digests, None)
    assert failed == 1 and any("differ" in m for m in misses)


def test_nonzero_exit_counts_as_failed(work):
    plan, _, digests = _two_repetitions(work)
    _, failed, _, _ = judge(plan, work, [[0], [2]], digests, None)
    assert failed == 1


def test_refuses_to_run_without_sources(work):
    """In a directory holding only the benchmark, it fails without a result."""
    copy = work / "bench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=work)
    assert proc.returncode != 0 and proc.stdout == ""
