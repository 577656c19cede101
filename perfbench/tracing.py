"""Spans around calls into hubbard_gf's public functions, installed from outside the package.

A wrapper records (name, start, end, parent, counters) per call in memory.
`install` re-binds every module attribute that holds a wrapped function, since
`from .x import f` copies the binding into the importing module.  Per-gate
kernels such as `apply_gate_inplace` are never wrapped: their call rate would
make the overhead the measurement.
"""
from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _gates_in(args, kwargs, result):
    return {"gates": len(_arg(args, kwargs, 0, "circuit").gates)}


def _gates_out(args, kwargs, result):
    return {"gates": len(result[0].gates)}


def _shots(args, kwargs, result):
    return {"shots": _arg(args, kwargs, 2, "shots")}


def _noisy_run(args, kwargs, result):
    return {**_gates_in(args, kwargs, result), **_shots(args, kwargs, result)}


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


@dataclass(frozen=True)
class Layer:
    module: str
    attrs: tuple[str, ...]  # "f" or "Class.method"; several attrs share one span name
    counters: tuple[str, ...] = ()
    count: object = None  # (args, kwargs, result) -> {counter: value}


LAYERS = {
    "circuit.simulate": Layer("hubbard_gf.circuit", ("simulate",), ("gates",), _gates_in),
    "circuit.Circuit.add": Layer("hubbard_gf.circuit", ("Circuit.__add__",)),
    "circuit.dimer_trotter_step": Layer("hubbard_gf.circuit", ("dimer_trotter_step",)),
    "statevector.apply_pauli": Layer("hubbard_gf.statevector", ("apply_pauli",)),
    "statevector.expectation_pauli": Layer("hubbard_gf.statevector", ("expectation_pauli",)),
    "statevector.sample_counts": Layer("hubbard_gf.statevector", ("sample_counts",), ("shots",), _shots),
    "greens.dimer_suite": Layer("hubbard_gf.greens", ("dimer_suite",)),
    "greens.direct_measurement": Layer("hubbard_gf.greens", ("direct_measurement",)),
    "greens.hadamard_test": Layer("hubbard_gf.greens", ("hadamard_test",)),
    "greens.advanced_hadamard_test": Layer("hubbard_gf.greens", ("advanced_hadamard_test",)),
    "greens.direct_point_circuit": Layer(
        "hubbard_gf.greens", ("direct_point_circuit",), ("gates",), _gates_out
    ),
    "vha.vha_circuit": Layer("hubbard_gf.vha", ("vha_circuit",)),
    "vha.vha_state": Layer("hubbard_gf.vha", ("vha_state",)),
    "vha.measure_energy": Layer("hubbard_gf.vha", ("measure_energy",)),
    "noise.run_noisy": Layer("hubbard_gf.noise", ("run_noisy",), ("gates", "shots"), _noisy_run),
    "noise.pauli_twirl": Layer("hubbard_gf.noise", ("pauli_twirl",)),
    "noise.fold_circuit": Layer("hubbard_gf.noise", ("fold_circuit",), ("gates",), _gates_out),
    "noise.mitigate_readout": Layer("hubbard_gf.noise", ("mitigate_readout",)),
    "noise.zne": Layer("hubbard_gf.noise", ("zne",)),
    "noise.noisy_parity_estimate": Layer("hubbard_gf.noise", ("noisy_parity_estimate",)),
    "oracle.dimer_analytic": Layer("hubbard_gf.oracle", ("dimer_analytic",)),
    "oracle.diagonalize": Layer("hubbard_gf.oracle", ("diagonalize",)),
    "reports.write_csv": Layer("hubbard_gf.reports", ("write_csv",), ("bytes",), _bytes),
    "reports.svg": Layer("hubbard_gf.reports", ("correlator_svg", "landscape_svg"), ("bytes",), _bytes),
}


def layer_metric_names() -> list[str]:
    """Per-layer metric names in a fixed order: calls, self_s, then the layer's counters."""
    return [
        f"{name}.{field}"
        for name, layer in LAYERS.items()
        for field in ("calls", "self_s") + layer.counters
    ]


class Recorder:
    """In-memory span list for one process; spans[i] = [name, start, end, parent, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function and re-bind it wherever hubbard_gf holds it."""
        modules = [m for n, m in sys.modules.items() if n.startswith("hubbard_gf") and m]
        for name, layer in LAYERS.items():
            home = sys.modules[layer.module]
            for attr in layer.attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else None
                original = getattr(owner or home, fn_name)
                wrapper = self.wrap(name, original, layer.count)
                if owner is not None:
                    setattr(owner, fn_name, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, cursor = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans, into: dict[str, float]) -> float:
    """Add calls, self_s and counters per layer into `into`; return the summed self time."""
    total = 0.0
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        into[f"{name}.calls"] = into.get(f"{name}.calls", 0) + 1
        into[f"{name}.self_s"] = into.get(f"{name}.self_s", 0.0) + own
        for key, value in (span[4] or {}).items():
            into[f"{name}.{key}"] = into.get(f"{name}.{key}", 0) + value
        total += own
    return total


def chrome_trace(commands) -> dict:
    """Chrome trace-event JSON; `commands` is [(pid, label, spans)] with times in seconds."""
    events = []
    for pid, label, spans in commands:
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": label}})
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            name, start, end, parent, counters = span
            args = {"span": i, "parent": parent, "self_us": round(own * 1e6, 3), **(counters or {})}
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": round(start * 1e6, 3), "dur": round((end - start) * 1e6, 3), "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
