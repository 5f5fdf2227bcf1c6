"""qlbm benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload exact2d --seed 1 --seconds 20 --trace 0

A run writes the workload's config files from ``--seed`` under
``.bench_work/`` and starts fresh child processes (``bench/child.py``) that
import ``qlbm`` from ``src/`` and call ``qlbm.cli.main(argv)`` on them: the
user's path through config parsing, ``execute``, CSV/JSON writing and the
``compare`` thread pool.  The time is split over four children, each
repeating the workload's commands for its share; every output is checked.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median,
over those children and two set-up-only children before each, of the time
from spawn to ``qlbm`` imported and every config parsed.  ``wall_ref`` is
the median wall time of one pass over the commands, divided by the time of
a fixed reference computation run in the same child between passes; the
host's speed drifts by tens of percent within minutes and the ratio cancels
most of it.  The plain seconds are printed beside it.  ``peak_rss_mb`` is
the children's median ``ru_maxrss``.

``--trace 1`` alternates untraced and traced children and reports the
per-layer numbers of the traced ones (spans recorded around qlbm's public
functions, see ``tracer.py``) and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (command runs, and those that missed a check) and
``metrics``.  The line before it holds the details: seed, host, thread
settings, fail rate, oracle and readout errors, and the per-layer numbers
of layers that only some workloads run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SEGMENTS = 4  # measuring children per run, each given a quarter of the time
SETUP_PROBES = 2  # children that only set up, before each measuring child
CHILD_TIMEOUT_S = 170

# wall_ref is a repetition's wall time in units of the workload's reference
# computation (see child.reference_s), which the host's speed drift cancels in
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "cell_loops_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}

# Per-layer numbers carried in the result line.  Every one is measured on
# every workload: counts read 0 where a layer is not run, and only times of
# layers that every workload runs are listed.
PER_LAYER = {
    **{f"statevector.apply.calls.{k}": "count" for k in ("ry", "h", "x", "shift")},
    **{f"statevector.apply.self_s.{k}": "s" for k in ("ry", "h", "shift")},
    **{f"statevector.ns_per_amp.{k}": "ns" for k in ("ry", "h", "shift")},
    "statevector.project.self_s": "s",
    "statevector.amps_per_state": "count",
    "statevector.state_bytes": "B",
    "statevector.bytes_per_loop_computed": "B",
    **{f"ancilla_free.gates_per_loop.{k}": "count" for k in ("ry", "h", "shift")},
    "ancilla_free.run_loop_exact.calls": "count",
    "ancilla_free.run_loop_exact.self_s": "s",
    **{f"ancilla_free.stage.{k}_s": "s"
       for k in ("collision", "streaming", "summation", "project")},
    "ancilla_free.loop_ns_per_amp": "ns",
    "ancilla_free.loop_to_classical": "ratio",
    "ancilla_free.sample_readout.calls": "count",
    "ancilla_free.postselect_log10_cum": "log10",
    "cli.evolve_passes": "ratio",
    "cli.execute.calls": "count",
    "cli.execute.self_s": "s",
    "cli.sweep.workers": "count",
    "cli.config_parse_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "B",
    "readout.macroscopic_from_counts.calls": "count",
    "lattice.classical_step.calls": "count",
    "analysis.circuit_inventory.calls": "count",
    "analysis.toffoli_count.calls": "count",
    "ancilla_based.run_legacy_step.calls": "count",
    "trace.overhead_s": "s",
}

# Layers only some workloads run; printed in the details line, where they
# read 0 on the workloads that do not run them.
PER_LAYER_DETAIL = {
    "ancilla_free.sample_readout.self_s": "s",
    "readout.macroscopic_from_counts.self_s": "s",
    "readout.macroscopic_exact.self_s": "s",
    "readout.error_metrics.self_s": "s",
    "lattice.classical_step.self_s": "s",
    "lattice.classical_step.ns_per_cell": "ns",
    "analysis.circuit_inventory.self_s": "s",
    "analysis.toffoli_count.self_s": "s",
    "ancilla_based.run_legacy_step.self_s": "s",
    "cli.sweep.parallel_efficiency": "ratio",
}


def host_info() -> dict:
    """CPU, caches and library versions, read from the running system."""
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__}


def l3_bytes(caches: dict) -> int | None:
    size = caches.get("L3 Unified")
    if not size:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["QLBM_WORKERS"] = str(nproc)  # the CLI default is min(8, cpu_count)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(spec: dict, path: Path, env: dict) -> dict:
    """Run one child to completion and return its JSON report."""
    path.write_text(json.dumps({**spec, "spawn_t": time.monotonic()}))
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("child.py")),
                           str(path)], env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"benchmark child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reduced: bool) -> dict:
    build, why = WORKLOADS[workload]
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = build(ROOT, work, seed, reduced)
        host = host_info()
        env = child_env(host["nproc"])
        base = {"root": str(ROOT), "plan": plan.to_json(), "setup_only": False,
                "trace": False, "seconds": seconds / SEGMENTS, "expected": None}
        children = {"plain": [], "traced": []}
        setups = []
        # short children spread over the run, so a slow spell of the host
        # touches a few samples of every metric instead of one whole metric
        for seg in range(SEGMENTS):
            traced = trace and seg % 2 == 1
            if not trace:
                for probe in range(SETUP_PROBES):
                    name = f"setup{seg}.{probe}"
                    setups.append(spawn({**base, "setup_only": True, "work": str(work / name)},
                                        work / f"{name}.json", env)["setup_s"])
            name = f"{'traced' if traced else 'plain'}{seg}"
            expected = children["plain"][0]["expected"] if children["plain"] else None
            out = spawn({**base, "trace": traced, "expected": expected,
                         "work": str(work / name)},
                        work / f"{name}.json", env)
            children["traced" if traced else "plain"].append(out)
        runs = children["plain"] + children["traced"]
        plain_walls = [w for c in children["plain"] for w in c["walls"]]
        # each repetition in units of its own child's reference computation
        plain_refs = [w / statistics.median(c["refs"])
                      for c in children["plain"] for w in c["walls"]]

        details = {"workload": workload, "why": why, "seed": seed, "host": host,
                   "env": {k: env[k] for k in ("QLBM_WORKERS", "OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS")}}
        if trace:
            reps = [layers for c in children["traced"] for layers in c["layers"]]
            layers = {k: statistics.median_low(r[k] for r in reps) for k in reps[0]}
            layers["ancilla_free.postselect_log10_cum"] = \
                children["traced"][0]["postselect_log10_cum"]
            layers["cli.output_bytes"] = children["traced"][0]["output_bytes"]
            layers["trace.overhead_s"] = (
                statistics.median(w for c in children["traced"] for w in c["walls"])
                - statistics.median(plain_walls))
            metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
            details["per_layer_detail"] = {
                k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_DETAIL.items()}
            details["counts_not_repeating"] = [
                k for k, u in PER_LAYER.items()
                if u in ("count", "B") and k in reps[0] and len({r[k] for r in reps}) > 1]
            details["traced_reps"] = len(reps)
            l3 = l3_bytes(host["caches"])
            details["note"] = (
                f"largest state {layers['statevector.state_bytes'] / 2**20:.2f} MiB"
                + (f" against L3 {l3 / 2**20:.0f} MiB" if l3 else "")
                + "; bytes_per_loop_computed counts one read and one write of that "
                "state per gate from array sizes: computed, not measured bandwidth")
        else:
            wall = statistics.median(plain_walls)
            wall_ref = statistics.median(plain_refs)
            cell_loops = sum(c.cell_loops for c in plan.commands)
            setups += [c["setup_s"] for c in runs]
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_ref": wall_ref,
                "cell_loops_per_ref": cell_loops / wall_ref,
                "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in runs),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
            details["seconds"] = {
                "wall_s": {"value": wall, "unit": "s"},
                "cell_loops_per_s": {"value": cell_loops / wall, "unit": "1/s"},
                "reference_s": {"value": statistics.median(
                    r for c in runs for r in c["refs"]), "unit": "s"}}
            details["samples"] = {"wall": len(plain_walls), "setup_s": len(setups),
                                  "peak_rss_mb": len(runs)}
            details["wall_s_reps"] = plain_walls
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        accuracy = {"fail_rate": {"value": failed / attempted, "unit": "ratio"}}
        for key, unit in (("oracle_linf", "abs"), ("readout_rel_l2", "ratio")):
            if key in runs[0]["values"]:
                accuracy[key] = {"value": runs[0]["values"][key], "unit": unit}
        details["accuracy"] = accuracy
        details["misses"] = [m for r in runs for m in r["misses"]][:20]
        return {"details": details, "result": {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small lattices and few seeds, for the self-check")
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally: subprocess.run then kills and reaps the
    # child, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "qlbm" / "__init__.py").is_file():
        print(f"error: no qlbm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.reduced)
    d, result = out["details"], out["result"]
    print(f"# {d['workload']} seed={d['seed']}: {d['why']}")
    for name, m in {**result["metrics"], **d.get("seconds", {}), **d["accuracy"]}.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    for name, m in d.get("per_layer_detail", {}).items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(d))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
