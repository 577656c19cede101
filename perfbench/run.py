"""End-to-end benchmark of the hubbard-gf command line.

usage: python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

One closed-loop client runs a workload's commands one at a time, each in a
fresh interpreter as a CLI user would, repeating whole passes until --seconds
have gone by.  Each command is timed from outside; its outputs are checked
afterwards, untimed, against references computed here.  Every command and
every check is one operation; failures on the known-defect ledger
(workloads.KNOWN_DEFECTS) are counted but keep `correct` true, any other
failure makes it false.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every command twice,
untraced then traced, and prints the per-layer metrics from the traced copies
plus the tracing overhead; the spans go to trace.json in Chrome trace-event
format.  The last stdout line is the JSON result; working files go under
.perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

# checks, workloads and tracing import hubbard_gf, so they are imported only
# after main() has put the checkout's src/ on sys.path.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_LIMIT_S = 170.0  # every run must end within 180 s

# name -> unit; direction and bound of each live in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "estimates_per_s": "1/s",
    "compare_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
}
DIAGNOSTICS = ("process.cpu_s", "trace.overhead_frac", "trace.coverage_frac")


@dataclass
class Command:
    op: str
    role: str  # "estimate" (correlator, vha-sweep) or "compare"
    traced: bool
    rc: int
    wall_s: float  # launch to exit, as the user waits
    main_s: float  # launch to main() returning, without trace write-out
    setup_s: float  # launch to hubbard_gf.cli imported
    cpu_s: float
    maxrss_mb: float
    rows: int = 0
    spans: list = field(default_factory=list)


class Session:
    """Launches commands and records operations for one benchmark run."""

    def __init__(self, rundir: str, deadline: float, trace: bool):
        self.rundir = rundir
        self.deadline = deadline
        self.trace = trace
        self.passdir = rundir
        self.commands: list[Command] = []
        self.ops: list[tuple[str, bool, str]] = []

    def path(self, name: str) -> str:
        return os.path.join(self.rundir, name)

    def outdir(self, name: str) -> str:
        return os.path.join(self.passdir, name)

    def check(self, op: str, ok: bool, detail: str) -> None:
        self.ops.append((op, bool(ok), detail))

    def command(self, op, argv, role, outdir=None, expect_rc=0) -> bool:
        """Run one hubbard-gf command; it passes when it exits with expect_rc.

        When tracing, a traced copy runs right after the untraced one, so that
        both see the same machine state; it rewrites the same output bytes.
        """
        from checks import data_rows

        ok = True
        for traced in (False, True) if self.trace else (False,):
            cmd = self._launch(op, argv, role, traced)
            if role == "estimate" and cmd.rc == 0:
                cmd.rows = sum(data_rows(os.path.join(outdir, f))
                               for f in os.listdir(outdir) if f.endswith(".csv"))
            self.commands.append(cmd)
            ok = ok and cmd.rc == expect_rc
            self.check(op, cmd.rc == expect_rc,
                       f"exit {cmd.rc} (expected {expect_rc}){' traced' if traced else ''}")
        return ok

    def _launch(self, op, argv, role, traced) -> Command:
        logs = os.path.join(self.passdir, "logs")
        os.makedirs(logs, exist_ok=True)
        # numbered, because an operation may run more than once in a pass
        stem = os.path.join(logs, f"{len(self.commands):03d}-" + op.replace("/", "__")
                            + (".traced" if traced else ""))
        stats_path = stem + ".stats.json"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError(f"run time limit reached before {op}")
        with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "shim.py"), stats_path,
                 "1" if traced else "0", SRC, "--", *argv],
                stdout=out, stderr=err, cwd=self.passdir,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            ended = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if ended >= self.deadline:
            raise TimeoutError(f"{op} did not finish within the run time limit")
        stats = {"imported": ended, "main_done": ended}  # the command died before reporting
        if os.path.exists(stats_path):
            with open(stats_path, encoding="utf-8") as f:
                stats = json.load(f)
        return Command(
            op, role, traced, proc.returncode, ended - launched,
            stats["main_done"] - launched, stats["imported"] - launched,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            spans=stats.get("spans", []),
        )


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k, "unset") for k in threads},
        "machine": platform.machine(),
    }


def end_to_end(commands, ops) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count) from untraced commands."""
    plain = [c for c in commands if not c.traced]
    estimates = [c for c in plain if c.role == "estimate" and c.rc == 0]
    compares = [c for c in plain if c.role == "compare" and c.rc in (0, 3)]
    missing = [what for what, got in (("estimate", estimates), ("compare verdict", compares)) if not got]
    if missing:
        raise RuntimeError(f"no successful {' or '.join(missing)} command to time")
    passed = sum(ok for _, ok, _ in ops)
    return {
        "setup_s": (statistics.median(c.setup_s for c in plain), len(plain)),
        "estimates_per_s": (sum(c.rows for c in estimates) / sum(c.wall_s for c in estimates),
                            len(estimates)),
        "compare_s": (statistics.median(c.wall_s for c in compares), len(compares)),
        "peak_rss_mb": (max(c.maxrss_mb for c in plain), len(plain)),
        "passed_frac": (passed / len(ops), len(ops)),
    }


def per_layer(commands, passes) -> tuple[dict[str, tuple[float, int]], list]:
    """Metric -> (value per pass, sample count) from traced commands, plus Chrome-trace input."""
    import tracing

    traced = [c for c in commands if c.traced]
    plain = [c for c in commands if not c.traced]
    totals = {name: 0 for name in tracing.layer_metric_names()}
    covered = 0.0
    trace_input = []
    for pid, c in enumerate(traced, start=1):
        own = tracing.summarize(c.spans, totals)
        if c.role == "estimate":
            covered += own
        trace_input.append((pid, f"{c.op} (exit {c.rc})", c.spans))
    out = {name: (value / passes, len(traced)) for name, value in totals.items()}
    estimate_main = sum(c.main_s - c.setup_s for c in traced if c.role == "estimate")
    out["process.cpu_s"] = (sum(c.cpu_s for c in plain) / passes, len(plain))
    out["trace.overhead_frac"] = (
        sum(c.main_s for c in traced) / sum(c.main_s for c in plain) - 1, len(traced))
    out["trace.coverage_frac"] = (covered / estimate_main if estimate_main else 0.0, len(traced))
    return out, trace_input


def run_workload(name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    from workloads import KNOWN_DEFECTS, WORKLOADS

    workload = WORKLOADS[name][0]
    rundir = os.path.join(ROOT, ".perfbench", name, f"seed-{seed}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    session = Session(rundir, started + RUN_LIMIT_S, trace)
    passes = 0
    while True:
        pass_start = time.monotonic()
        session.passdir = os.path.join(rundir, f"pass-{passes}")
        os.makedirs(session.passdir)
        workload(session, seed)
        passes += 1
        now = time.monotonic()
        if now - started >= seconds or now + (now - pass_start) > started + RUN_LIMIT_S - 5:
            break

    failed = [(op, detail) for op, ok, detail in session.ops if not ok]
    unexpected = [(op, detail) for op, detail in failed if op not in KNOWN_DEFECTS]
    if trace:
        metrics, trace_input = per_layer(session.commands, passes)
        import tracing

        with open(os.path.join(rundir, "trace.json"), "w", encoding="utf-8") as f:
            json.dump(tracing.chrome_trace(trace_input), f)
    else:
        metrics = end_to_end(session.commands, session.ops)
    units = {name: END_TO_END.get(name) or layer_unit(name) for name in metrics}
    result = {
        "workload": name, "seed": seed, "passes": passes, "trace": trace,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in metrics.items()},
        "operations": [{"op": op, "ok": ok, "detail": d} for op, ok, d in session.ops],
        "commands": [{k: v for k, v in vars(c).items() if k != "spans"} for c in session.commands],
        "known_defects": {op: KNOWN_DEFECTS[op] for op, _ in failed if op in KNOWN_DEFECTS},
        "unexpected_failures": [op for op, _ in unexpected],
    }
    with open(os.path.join(rundir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
    return result


def layer_unit(name: str) -> str:
    kind = name.rsplit(".", 1)[1]
    return {"self_s": "s", "cpu_s": "s", "bytes": "bytes", "overhead_frac": "ratio",
            "coverage_frac": "ratio"}.get(kind, "count")


def report(result: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count, then any failure."""
    print(f"== {result['workload']} seed={result['seed']} passes={result['passes']} "
          f"env={json.dumps(result['environment'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}")
    for op in result["operations"]:
        if not op["ok"]:
            tag = "known defect" if op["op"] in result["known_defects"] else "UNEXPECTED"
            print(f"  failed [{tag}] {op['op']}: {op['detail']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None, help="default: the workload's own seed")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "hubbard_gf", "cli.py")):
        print(f"error: no hubbard_gf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: workload must be one of {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = []
    for name in names:
        seed = WORKLOADS[name][1] if args.seed is None else args.seed
        start = started if len(names) == 1 else time.monotonic()
        try:
            results.append(run_workload(name, seed, args.seconds, bool(args.trace), start))
        except (TimeoutError, RuntimeError) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        report(results[-1])
    metrics = {
        (k if len(results) == 1 else f"{r['workload']}.{k}"): {"value": m["value"], "unit": m["unit"]}
        for r in results for k, m in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(not r["unexpected_failures"] for r in results),
        "attempted": sum(len(r["operations"]) for r in results),
        "failed": sum(1 for r in results for op in r["operations"] if not op["ok"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
