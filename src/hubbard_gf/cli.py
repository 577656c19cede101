"""Command-line surface: VHA sweeps, correlator runs, analytic comparison, ZNE demo.

Flags are the single source of configuration; --config may point at a JSON file
with the same keys (flags win on conflict).  Exit codes: 0 success, 2 usage
errors, 3 tolerance failures.  HUBBARD_GF_OUTDIR sets the default output
directory.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .circuit import TrotterPlan, dimer_trotter_step, hopping_step, repulsion_step
from .greens import (
    DIMER_ANALYTIC_REF,
    DIMER_PAIRS,
    CorrelatorSpec,
    advanced_hadamard_test,
    dimer_suite,
    hadamard_test,
    time_grid,
)
from .noise import MitigationConfig, NoiseModel, noisy_dimer_series, zne
from .oracle import dimer_analytic
from .reports import (
    correlator_svg,
    default_outdir,
    landscape_svg,
    read_csv,
    write_landscape_csv,
    write_measurement_csv,
)
from .vha import (
    MAX_GRID_POINTS,
    VhaParams,
    canonical_angles,
    landscape_sweep,
    optimal_angles,
    slater_prep_circuit,
    vha_circuit,
)


def _add_common(p):
    p.add_argument("--t", type=float, default=1.0, help="hopping energy")
    p.add_argument("--u", type=float, default=4.0, help="on-site repulsion")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (required for shot runs)")
    p.add_argument("--outdir", type=str, default=None, help="output directory")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI parser and its subcommand parsers by name."""
    ap = argparse.ArgumentParser(prog="hubbard-gf", description=__doc__)
    ap.add_argument("--config", type=str, help="JSON file with flag defaults")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vha-sweep", help="variational energy landscape on an angle grid")
    _add_common(p)
    p.add_argument("--grid", type=int, default=101, help="points per angle axis")
    p.add_argument("--shots", type=int, default=0, help="0 = exact expectations")

    p = sub.add_parser("correlator", help="measure dimer correlator series")
    _add_common(p)
    p.add_argument("--dtau", type=float, default=0.314)
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--protocol", choices=("direct", "hadamard", "advanced-hadamard"), default="direct")
    p.add_argument("--phi", type=float, default=math.pi / 2)
    p.add_argument("--kind", choices=("retarded", "keldysh"), default="retarded")
    p.add_argument("--shots", type=int, default=4096)
    p.add_argument("--pair", choices=tuple(DIMER_PAIRS) + ("all",), default="all")
    p.add_argument("--noise-model", type=str, default=None, help="JSON noise model path")
    p.add_argument("--readout-mitigation", action="store_true")
    p.add_argument("--twirl", type=int, default=1)
    p.add_argument("--dd", choices=("none", "XX"), default="none")
    p.add_argument("--zne-scales", type=float, nargs="*", default=[])
    p.add_argument("--zne-order", type=int, default=1)

    p = sub.add_parser("compare", help="check a correlator CSV against the analytic curves")
    p.add_argument("--csv", type=str, nargs="+", required=True)
    p.add_argument("--tol-exact", type=float, default=None,
                   help="max |measured - analytic| for shot-free runs (default: Trotter bound)")
    p.add_argument("--sigma", type=float, default=4.0, help="band half-width in stderr units")
    p.add_argument("--coverage", type=float, default=0.95, help="required in-band fraction")

    p = sub.add_parser("zne-demo", help="polynomial recovery demo for the extrapolator")
    p.add_argument("--order", type=int, default=2)

    p = sub.add_parser("dump-circuit", help="print a builder's gate list")
    p.add_argument("--which", choices=("slater", "vha", "trotter-step", "hopping", "repulsion"),
                   default="vha")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--u", type=float, default=4.0)
    p.add_argument("--dtau", type=float, default=0.314)
    p.add_argument("--theta", type=float, default=0.3)
    return ap, sub.choices


def _config_argv(ap, commands, argv: list[str]) -> list[str]:
    """argv with the --config file's values for the running command as flags right after
    its name, so argparse checks them as it checks flags and the user's own flags win.

    A key of another command is allowed (one file serves every command); one that no
    command takes is a usage error.  A switch is emitted when its value is true.
    """
    args = ap.parse_known_args(argv)[0]
    if not args.config:
        return argv
    config = _read_config(ap, args.config)
    flags = {name: {a.dest: a for a in p._actions if a.dest != "help"} for name, p in commands.items()}
    unknown = set(config).difference(*flags.values())
    if unknown:
        ap.error(f"--config: no command takes {', '.join(sorted(unknown))}")
    tokens, own = [], flags[args.command]
    for action, value in ((own[k], v) for k, v in config.items() if k in own):
        flag = action.option_strings[-1]
        if action.nargs == 0:
            if not isinstance(value, bool):
                commands[args.command].error(f"argument {flag}: --config value must be true or false")
            tokens += [flag] if value else []
        elif action.nargs in ("*", "+") and isinstance(value, list):
            tokens += [flag, *map(str, value)]
        else:
            tokens.append(f"{flag}={value}")
    at = next(i for i, a in enumerate(argv) if a == args.command and argv[i - 1 : i] != ["--config"])
    return argv[: at + 1] + tokens + argv[at + 1 :]


def _read_config(ap, path) -> dict:
    """The object in a --config file, keys with _ for - (a usage error if it holds none)."""
    try:
        with open(path, encoding="utf-8") as f:
            config = json.load(f)
    except (OSError, ValueError) as e:
        ap.error(f"--config {path}: {e}")
    if not isinstance(config, dict):
        ap.error(f"--config {path} does not hold a JSON object")
    return {k.replace("-", "_"): v for k, v in config.items()}


def _outdir(args) -> str:
    """Create the output directory; called once the results exist, so a refused run leaves none."""
    out = args.outdir if getattr(args, "outdir", None) else default_outdir()
    os.makedirs(out, exist_ok=True)
    return out


def cmd_vha_sweep(args) -> int:
    if args.shots and args.seed is None:
        print("error: --seed is required for shot-mode runs", file=sys.stderr)
        return 2
    if args.grid ** 2 > MAX_GRID_POINTS:  # refused before the state batch is allocated
        print(f"error: --grid {args.grid} exceeds dense capacity ({MAX_GRID_POINTS} points)", file=sys.stderr)
        return 2
    grid = np.linspace(-math.pi, math.pi, args.grid)
    res = landscape_sweep(args.t, args.u, grid, grid, shots=args.shots, seed=args.seed or 0)
    out = _outdir(args)
    header = {
        "command": "vha-sweep", "t": args.t, "u": args.u, "grid": args.grid,
        "shots": args.shots, "seed": args.seed or 0,
    }
    csv_path = os.path.join(out, "landscape.csv")
    write_landscape_csv(csv_path, res, header)
    a, b = canonical_angles(res.best.alpha, res.best.beta)  # as the CSV header names it
    landscape_svg(
        os.path.join(out, "landscape.svg"),
        f"dimer variational energy (t={args.t}, U={args.u})",
        grid, grid, res.energies, best=(a, b),
    )
    ref = optimal_angles(args.t, args.u)
    print(
        f"optimum: alpha={a:.4f} beta={b:.4f} energy={res.best.energy:.8f} "
        f"(closed-form optimum alpha={ref[0]:.4f} beta={ref[1]:.4f})"
    )
    print(f"wrote {csv_path}")
    return 0


def cmd_correlator(args) -> int:
    if args.shots < 0:  # one refusal for every protocol, before any of them draws
        print("error: shots must be >= 1", file=sys.stderr)
        return 2
    if args.shots and args.seed is None:
        print("error: --seed is required for shot-mode runs", file=sys.stderr)
        return 2
    if args.noise_model and args.protocol != "direct":
        print("error: --noise-model runs the direct protocol only", file=sys.stderr)
        return 2
    config = MitigationConfig(  # mitigation flags are validated on noiseless runs too
        readout=args.readout_mitigation,
        twirl_variants=args.twirl,
        dd_sequence=args.dd,
        zne_scales=tuple(args.zne_scales),
        zne_order=args.zne_order,
    )
    seed = args.seed or 0
    plan = TrotterPlan(args.dtau, args.steps)
    pairs = list(DIMER_PAIRS) if args.pair == "all" else [args.pair]
    # each record CSV names the protocol and phi that produced it
    header = {
        "command": "correlator", "t": args.t, "u": args.u, "dtau": args.dtau,
        "steps": args.steps, "kind": args.kind, "shots": args.shots, "seed": seed,
    }
    if args.noise_model:
        model = NoiseModel.from_json(args.noise_model)
        header["noise_model"] = args.noise_model
        records = {
            name: noisy_dimer_series(
                name, args.t, args.u, plan, args.phi, args.shots, seed, model, config, args.kind
            )
            for name in pairs
        }
    elif args.protocol == "direct":
        records = dimer_suite(args.t, args.u, plan, args.phi, args.shots, seed, kind=args.kind)
    else:
        proto = args.protocol.replace("-", "_")
        runner = hadamard_test if proto == "hadamard" else advanced_hadamard_test
        records = {}
        for name in pairs:
            source, probe = DIMER_PAIRS[name]
            spec = CorrelatorSpec(source, probe, time_grid(plan), kind=args.kind, protocol=proto)
            records[name] = runner(spec, args.t, args.u, plan, args.shots, seed)
    out = _outdir(args)
    for name in pairs:
        _write_series(out, name, records[name], header, args)
    return 0


def _analytic(name, kind, t, u, taus) -> np.ndarray:
    """Closed-form full (anti)commutator: 2 Re (retarded) or 2 Im (keldysh) of the correlator."""
    series = dimer_analytic(DIMER_ANALYTIC_REF[name], t, u, np.asarray(taus, dtype=float))
    return 2 * (np.real(series) if kind == "retarded" else np.imag(series))


def _full_scale(protocol) -> float:
    """Factor from a CSV's estimates to the full (anti)commutator.

    Direct-protocol CSVs hold the full value; the Hadamard protocols record
    their native estimate, half of it.
    """
    return 2.0 if protocol in ("hadamard", "advanced_hadamard") else 1.0


def _write_series(out, name, rec, header, args) -> None:
    """The record's CSV and SVG overlay; a noisy run's files are named {name}_noisy."""
    scale = _full_scale(rec.protocol)
    stem = f"{name}_noisy" if args.noise_model else name
    csv_path = os.path.join(out, f"{stem}.csv")
    write_measurement_csv(csv_path, name, rec, header)
    dense = np.linspace(0, rec.taus[-1], 200)
    correlator_svg(
        os.path.join(out, f"{stem}.svg"),
        f"{name} {args.kind} ({rec.protocol}{', noisy' if args.noise_model else ''})",
        rec.taus, np.array(rec.estimates) * scale, np.array(rec.stderrs) * scale, dense,
        _analytic(name, args.kind, args.t, args.u, dense),
        config_lines=(
            f"dtau={args.dtau} steps={args.steps}",
            f"phi={args.phi:.4f} shots={args.shots} seed={rec.seed}",
        ),
    )
    print(f"wrote {csv_path}")


def cmd_compare(args) -> int:
    """Deviation report against the analytic curves; exit 3 when out of tolerance."""
    failures = 0
    reports = []
    for path in args.csv:
        header, columns, rows = read_csv(path)
        try:
            name, kind, t, u, plan = _header_settings(header)
        except ValueError as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            return 2
        scale = _full_scale(header.get("protocol"))
        taus = np.array([float(r[columns.index("tau")]) for r in rows])
        est = scale * np.array([float(r[columns.index("estimate")]) for r in rows])
        shots = int(float(header.get("shots", 0)))
        dev = np.abs(est - _analytic(name, kind, t, u, taus))
        report = {"csv": path, "max_dev": _json_number(np.max(dev)), "mean_dev": _json_number(np.mean(dev))}
        if shots == 0:
            tol = args.tol_exact if args.tol_exact is not None else _trotter_bound(name, kind, t, u, plan)
            ok = bool(np.max(dev) <= tol)
            report["tol"] = _json_number(tol)
        else:
            err = scale * np.array([float(r[columns.index("stderr")]) for r in rows])
            within = dev <= args.sigma * np.maximum(err, 1e-12) + _trotter_bound(name, kind, t, u, plan)
            ok = bool(np.mean(within) >= args.coverage)
            report["in_band_fraction"] = float(np.mean(within))
        reports.append(report | {"status": "PASS" if ok else "FAIL"})
        if not ok:
            failures += 1
    print(json.dumps({"reports": reports, "failures": failures}, indent=2))
    return 3 if failures else 0


def _header_settings(header) -> tuple[str, str, float, float, TrotterPlan]:
    """The series, t, u and Trotter plan a CSV header names; ValueError names the key
    that compare cannot judge (TrotterPlan itself refuses a dtau or steps out of range)."""
    name, kind = header.get("correlator"), header.get("kind", "retarded")
    if name not in DIMER_ANALYTIC_REF:
        raise ValueError(f"invalid header correlator={name}")
    if kind not in ("retarded", "keldysh"):
        raise ValueError(f"invalid header kind={kind}")
    read = {}
    for key, convert in (("t", float), ("u", float), ("dtau", float), ("steps", int)):
        try:
            read[key] = convert(header[key])
        except (KeyError, ValueError):
            read[key] = math.nan
        if not math.isfinite(read[key]):
            raise ValueError(f"invalid header {key}={header.get(key)}")
    return name, kind, read["t"], read["u"], TrotterPlan(read["dtau"], read["steps"])


def _json_number(x) -> float | None:
    """Strict JSON has no NaN or infinity: a non-finite value is reported as null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _trotter_bound(name, kind, t, u, plan) -> float:
    """Measured first-order Trotter deviation of the exact pipeline (the one pair) at these settings."""
    rec = dimer_suite(t, u, plan, math.pi / 2, 0, 0, kind=kind, pairs=(name,))[name]
    return float(np.max(np.abs(np.array(rec.estimates) - _analytic(name, kind, t, u, rec.taus)))) + 1e-9


def cmd_zne_demo(args) -> int:
    scales = (1.0, 1.5, 2.0, 2.5, 3.0)
    res = zne(scales, [1 - 0.1 * s - 0.02 * s * s for s in scales], args.order)
    print(f"scales={scales} order={args.order}")
    print(f"samples={tuple(round(v, 6) for v in res.samples)}")
    print(f"zero-noise estimate={res.value:.12f} (truth 1.0), fit residual={res.residual:.2e}")
    return 0 if abs(res.value - 1.0) < 1e-9 else 3


def cmd_dump_circuit(args) -> int:
    if args.which == "slater":
        circ = slater_prep_circuit()
    elif args.which == "vha":
        circ = vha_circuit(VhaParams.single(*optimal_angles(args.t, args.u)))
    elif args.which == "trotter-step":
        circ = dimer_trotter_step(args.t, args.u, args.dtau)
    elif args.which == "hopping":
        circ = hopping_step(1, 2, "up", args.theta, 2)
    else:
        circ = repulsion_step(1, args.theta, 2)
    sys.stdout.write(circ.text_dump())
    return 0


COMMANDS = {
    "vha-sweep": cmd_vha_sweep,
    "correlator": cmd_correlator,
    "compare": cmd_compare,
    "zne-demo": cmd_zne_demo,
    "dump-circuit": cmd_dump_circuit,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        ap, commands = build_parser()
        args = ap.parse_args(_config_argv(ap, commands, argv))
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    for flag in ("t", "u", "dtau", "phi"):  # also covers values from --config
        value = getattr(args, flag, None)
        if value is not None and not math.isfinite(value):
            print(f"error: --{flag} must be finite, got {value}", file=sys.stderr)
            return 2
    try:
        return COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
