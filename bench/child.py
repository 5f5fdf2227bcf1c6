"""One benchmark child process: set up, repeat the workload, check, report.

Run as ``python3 bench/child.py SPEC.json`` by ``bench/run.py``; it prints
one JSON line.  Set-up is measured from the parent's spawn time (passed in
the spec, on the shared monotonic clock) to ``qlbm`` imported and every
config of the workload parsed, so it includes interpreter start-up.
"""
import json
import math
import os
import sys
import time
from pathlib import Path

REFERENCE_SHARE = 0.15  # reference time run after each repetition, as a share of it


def _setup(spec: dict):
    root = Path(spec["root"]).resolve()
    sys.path.insert(0, str(root / "src"))
    import qlbm
    import qlbm.cli as cli

    if not Path(qlbm.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"qlbm imported from {qlbm.__file__}, not from {root / 'src'}")
    cfgs = [cli.RunConfig.from_json(p) for p in spec["plan"]["configs"]]
    return cli, cfgs, time.monotonic() - spec["spawn_t"]


def _call(main, argv: list[str]) -> int:
    """Exit code of one CLI invocation; a crash counts as a failed command."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 -- recorded as a failure, run goes on
        import traceback

        traceback.print_exc()
        return -1


def reference_s(kind: str) -> float:
    """Seconds for a fixed reference computation, run between repetitions.

    The host's speed drifts by tens of percent over minutes, and not by the
    same factor for all work: interpreter-bound code and code streaming
    through megabytes of memory drift apart.  So each workload names the
    reference that matches its bottleneck, and dividing a repetition's wall
    time by the reference time, taken in the same process moments before,
    cancels most of the drift.  ``cpu`` mixes an interpreter loop,
    small-array numpy calls and list growth; ``memory`` streams through two
    8 MiB complex arrays, the size of exact2d's state.
    """
    import numpy as np

    if kind == "memory":
        a = np.ones(1 << 19, dtype=complex)  # filled before the clock starts
        b = a.copy()
        t0 = time.perf_counter()
        for _ in range(4):
            np.copyto(b, a)
            b[::2] = a[1::2]
            a[1::2] = b[::2]
        return time.perf_counter() - t0
    t0 = time.perf_counter()
    x = 0
    for i in range(110_000):
        x += i
    a = np.arange(256)
    for _ in range(1100):
        b = a[(a & 4) == 0]
        c = a.copy()
        c[b] = b
    items: list[float] = []
    for i in range(2000):
        items = items + [float(i)]
    return time.perf_counter() - t0


def _classical_step_s(cfgs) -> dict:
    """Seconds per classical_step on each quantum config's lattice."""
    import statistics

    from qlbm.lattice import classical_step
    from tracer import spec_key

    out = {}
    for cfg in cfgs:
        if not cfg.mode.startswith("quantum"):
            continue
        spec, field = cfg.model_spec(), cfg.initial_field()
        samples = []
        while len(samples) < 5 or sum(samples) < 0.05:
            t0 = time.perf_counter()
            classical_step(field, spec)
            samples.append(time.perf_counter() - t0)
        out[spec_key(spec)] = statistics.median(samples)
    return out


def judge(plan, work: Path, rcs: list, digests: list, expected: dict | None):
    """Count the failed command runs of one child.

    ``rcs[r][i]`` and ``digests[r][i]`` are the exit code and output digests
    of command i in repetition r.  The first child checks its first
    repetition and returns that as ``expected``; later children are held to
    the same bytes, so the verdict carries over to them.  Returns
    (expected, failed, misses, values measured by the checks).
    """
    from checks import run_checks

    misses, values = [], {}
    if expected is None:
        check_fail = []
        for i, cmd in enumerate(plan.commands):
            cmd_misses, cmd_values = run_checks(work / "rep0" / str(i), cmd.checks)
            for key, v in cmd_values.items():
                values[key] = max(values.get(key, v), v)
            misses += [f"command {i} ({cmd.argv[0]}): {m}" for m in cmd_misses]
            check_fail.append(bool(cmd_misses))
        expected = {"digests": digests[0], "check_fail": check_fail}
    failed = 0
    for r, (codes, outputs) in enumerate(zip(rcs, digests)):
        for i, cmd in enumerate(plan.commands):
            if codes[i] != 0:
                misses.append(f"command {i} ({cmd.argv[0]}) rep {r}: exit code {codes[i]}")
            elif outputs[i] != expected["digests"][i]:
                misses.append(f"command {i} ({cmd.argv[0]}) rep {r}: outputs differ "
                              "from the first repetition")
            failed += bool(codes[i] != 0 or outputs[i] != expected["digests"][i]
                           or expected["check_fail"][i])
    return expected, failed, misses, values


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    cli, cfgs, setup_s = _setup(spec)
    if spec["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource
    import shutil

    from checks import digest
    from tracer import Tracer, layer_metrics
    from workloads import Plan

    plan = Plan.from_json(spec["plan"])
    work = Path(spec["work"])
    loops_requested = sum(c.loops for c in plan.commands)
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        classical_s = _classical_step_s(cfgs)
        tracer.install()

    walls, layers, rcs, digests = [], [], [], []
    refs = [reference_s(plan.reference) for _ in range(3)]
    begin = time.perf_counter()
    while True:
        rep_dir = work / f"rep{len(walls)}"
        codes = []
        t0 = time.perf_counter()
        for i, cmd in enumerate(plan.commands):
            argv = cmd.argv + ["--out", str(rep_dir / str(i))]
            if tracer:
                with tracer.span("cli.main"):
                    codes.append(_call(cli.main, argv))
            else:
                codes.append(_call(cli.main, argv))
        walls.append(time.perf_counter() - t0)
        rcs.append(codes)
        digests.append([digest(rep_dir / str(i)) if (rep_dir / str(i)).is_dir() else {}
                        for i in range(len(plan.commands))])
        if tracer:
            layers.append(layer_metrics(tracer.take(), loops_requested, classical_s,
                                        int(os.environ["QLBM_WORKERS"])))
        if len(walls) > 1:
            shutil.rmtree(rep_dir)  # the first repetition is kept for the checks
        # sample the host's speed for a fixed share of the time the
        # repetition took, so drift between repetitions is seen as well
        spent = 0.0
        while spent < REFERENCE_SHARE * walls[-1] or not spent:
            refs.append(reference_s(plan.reference))
            spent += refs[-1]
        elapsed = time.perf_counter() - begin
        if len(walls) >= 2 and elapsed + walls[-1] / 2 >= spec["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        tracer.uninstall()

    expected, failed, misses, values = judge(plan, work, rcs, digests, spec["expected"])
    result = {
        "setup_s": setup_s,
        "walls": walls,
        "refs": refs,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(walls) * len(plan.commands),
        "failed": failed,
        "misses": misses,
        "values": values,
        "expected": expected,
        "output_bytes": sum(p.stat().st_size for p in (work / "rep0").rglob("*")
                            if p.is_file()),
    }
    if tracer:
        result["layers"] = layers
        result["postselect_log10_cum"] = sum(math.log10(p) for p in tracer.longest)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
