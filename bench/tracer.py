"""Spans around qlbm's public functions, recorded from outside the package.

Each wrapped function is replaced at every place its caller looks it up
(``cli`` binds most functions by name at import, ``ancilla_free`` binds
``apply_circuit`` and ``project``, ``apply_circuit`` and ``classical_run``
find ``apply`` and ``classical_step`` through their module globals).  Spans
stay in memory as tuples and are reduced to per-layer numbers once a
repetition ends, so nothing is written while the program runs.

A span is (id, parent id, name, start, end, detail).  Parents are tracked
per thread, so the ``compare`` worker threads open their own root spans.
Self time is a span's duration minus the durations of its children, which
run sequentially on the same thread and lie inside it.
"""
from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name); the same original function gets one
# wrapper, shared by all its lookup sites
_TARGETS = (
    ("qlbm.cli", "execute", "cli.execute"),
    ("qlbm.cli", "field_csv", "cli.write"),
    ("qlbm.cli", "_dump_json", "cli.write"),
    ("qlbm.cli", "_write", "cli.write"),
    ("qlbm.cli", "run_exact", "ancilla_free.run_exact"),
    ("qlbm.cli", "run_loop_exact", "ancilla_free.run_loop_exact"),
    ("qlbm.ancilla_free", "run_loop_exact", "ancilla_free.run_loop_exact"),
    ("qlbm.cli", "sample_readout", "ancilla_free.sample_readout"),
    ("qlbm.cli", "macroscopic_exact", "readout.macroscopic_exact"),
    ("qlbm.cli", "macroscopic_from_counts", "readout.macroscopic_from_counts"),
    ("qlbm.cli", "error_metrics", "readout.error_metrics"),
    ("qlbm.cli", "classical_run", "lattice.classical_run"),
    ("qlbm.cli", "classical_step", "lattice.classical_step"),
    ("qlbm.lattice", "classical_step", "lattice.classical_step"),
    ("qlbm.cli", "circuit_inventory", "analysis.circuit_inventory"),
    ("qlbm.cli", "toffoli_count", "analysis.toffoli_count"),
    ("qlbm.cli", "run_legacy_step", "ancilla_based.run_legacy_step"),
    ("qlbm.ancilla_free", "apply_circuit", "ancilla_free.stage"),
    ("qlbm.ancilla_free", "project", "statevector.project"),
    ("qlbm.statevector", "apply", "statevector.apply"),
    ("qlbm.ancilla_based", "apply", "statevector.apply"),
)

# stage of a circuit, told apart by the op kinds it holds
_STAGE = {"ry": "collision", "shift": "streaming", "h": "summation"}


def _detail(name: str, args: tuple):
    """What a span needs to remember about its call, beyond its times."""
    if name == "statevector.apply":
        state, op = args
        return op.kind, state.layout.dim
    if name == "ancilla_free.stage":
        kinds = {op.kind for op in args[1].ops}
        return "+".join(sorted(_STAGE.get(k, k) for k in kinds))
    if name == "ancilla_free.run_loop_exact":
        ls, spec = args
        return ls.state.layout.dim, ls.state.amplitudes.nbytes, spec
    if name == "lattice.classical_step":
        return args[0].cells
    if name == "cli.execute":
        return time.thread_time()
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []
        self.longest: list[float] = []  # loop_probs of the longest trajectory

    def _open(self) -> tuple[int, int]:
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, detail):
        end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append((sid, parent, name, start, end, detail))

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            detail = _detail(name, args)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if name == "cli.execute":  # CPU time of its thread, GIL waits excluded
                    detail = time.thread_time() - detail
                self._close(sid, parent, name, start, detail)
            if (name == "ancilla_free.run_loop_exact"
                    and len(result.loop_probs) > len(self.longest)):
                self.longest = result.loop_probs
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, None)

    def install(self):
        wrappers = {}
        for mod_name, attr, span in _TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(span, fn)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrappers[id(fn)])
        # main() looks the parser up on the class
        cfg_cls = importlib.import_module("qlbm.cli").RunConfig
        from_json = cfg_cls.__dict__["from_json"]
        self._saved.append((cfg_cls, "from_json", from_json))
        cfg_cls.from_json = classmethod(self._wrap("cli.config_parse", from_json.__func__))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = self.spans[:]
        del self.spans[:]
        return out


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for sid, parent, _, start, end, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[tuple], loops_requested: int, classical_s: dict,
                  workers: int) -> dict[str, float]:
    """Reduce one repetition's spans to the per-layer numbers.

    ``classical_s`` maps a spec key to the time of one ``classical_step``
    on the same lattice, measured outside the trace; ``workers`` is the
    pool size the CLI was given for ``compare`` sweeps.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    amps: dict[str, int] = defaultdict(int)
    stage_s: dict[str, float] = defaultdict(float)
    loop_amps = state_bytes = amps_per_state = step_cells = 0
    loop_classical = 0.0
    sweep = []  # compare's per-seed executes: root spans on pool threads
    for sid, parent, name, start, end, detail in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        total_s[name] += end - start
        if name == "statevector.apply":
            kind, dim = detail
            calls[f"{name}.{kind}"] += 1
            self_s[f"{name}.{kind}"] += own[sid]
            amps[kind] += dim
        elif name == "ancilla_free.stage":
            stage_s[detail] += end - start
        elif name == "ancilla_free.run_loop_exact":
            dim, nbytes, spec = detail
            loop_amps += dim
            loop_classical += classical_s[spec_key(spec)]
            if nbytes > state_bytes:
                state_bytes, amps_per_state = nbytes, dim
        elif name == "lattice.classical_step":
            step_cells += detail
        elif name == "cli.execute" and parent == 0:
            sweep.append((start, end, detail))

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    loops = calls["ancilla_free.run_loop_exact"]
    per_loop = {k: ratio(calls[f"statevector.apply.{k}"], loops)
                for k in ("ry", "h", "x", "shift")}
    loop_s = total_s["ancilla_free.run_loop_exact"]
    m = {f"statevector.apply.calls.{k}": calls[f"statevector.apply.{k}"]
         for k in ("ry", "h", "x", "shift")}
    for k in ("ry", "h", "shift"):
        m[f"statevector.apply.self_s.{k}"] = self_s[f"statevector.apply.{k}"]
        m[f"statevector.ns_per_amp.{k}"] = ratio(self_s[f"statevector.apply.{k}"],
                                                 amps[k], 1e9)
        m[f"ancilla_free.gates_per_loop.{k}"] = per_loop[k]
    m.update({
        "statevector.project.self_s": self_s["statevector.project"],
        "statevector.amps_per_state": amps_per_state,
        "statevector.state_bytes": state_bytes,
        # one read and one write of the largest state per gate, from array sizes
        "statevector.bytes_per_loop_computed": 2 * sum(per_loop.values()) * state_bytes,
        "ancilla_free.run_loop_exact.calls": loops,
        "ancilla_free.run_loop_exact.self_s": self_s["ancilla_free.run_loop_exact"],
        "ancilla_free.stage.collision_s": stage_s["collision"],
        "ancilla_free.stage.streaming_s": stage_s["streaming"],
        "ancilla_free.stage.summation_s": stage_s["summation"],
        "ancilla_free.stage.project_s": total_s["statevector.project"],
        "ancilla_free.loop_ns_per_amp": ratio(loop_s, loop_amps, 1e9),
        "ancilla_free.loop_to_classical": ratio(loop_s, loop_classical),
        "cli.evolve_passes": ratio(loops, loops_requested),
        "cli.execute.calls": calls["cli.execute"],
        "cli.execute.self_s": self_s["cli.execute"],
        "cli.sweep.workers": workers if sweep else 0,
        "cli.config_parse_s": total_s["cli.config_parse"],
        "cli.write_s": total_s["cli.write"],
        "lattice.classical_step.ns_per_cell": ratio(self_s["lattice.classical_step"],
                                                    step_cells, 1e9),
        "readout.macroscopic_exact.self_s": self_s["readout.macroscopic_exact"],
        "readout.error_metrics.self_s": self_s["readout.error_metrics"],
    })
    if sweep:
        # thread CPU time, so a seed waiting for the GIL does not count as busy
        wall = max(e for _, e, _ in sweep) - min(s for s, _, _ in sweep)
        m["cli.sweep.parallel_efficiency"] = sum(c for _, _, c in sweep) / (wall * workers)
    else:
        m["cli.sweep.parallel_efficiency"] = 0.0
    for name in ("ancilla_free.sample_readout", "readout.macroscopic_from_counts",
                 "lattice.classical_step", "analysis.circuit_inventory",
                 "analysis.toffoli_count", "ancilla_based.run_legacy_step"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    return m


def spec_key(spec) -> tuple:
    return (spec.scheme, spec.M, spec.u, spec.v, tuple(spec.weights), spec.c_s2)

