"""The three CLI sessions the benchmark drives, with the checks after each command.

A workload is a function of (session, seed) that issues one hubbard-gf command
at a time through `session.command` and records each output check through
`session.check`.  Operation ids are stable across passes and seeds, so the
known-defect ledger can name them.  t=1, U=4 and Phi=pi/2 unless a run says
otherwise.
"""
from __future__ import annotations

import math
import os

import checks
from hubbard_gf.noise import kolkata_dimer_model

T, U, PHI = 1.0, 4.0, math.pi / 2
PAIRS = ("y2y2", "y3y3", "x3y2")

# Known defects: operations expected to fail until a later change fixes them.
# They count as failed operations; none is skipped or re-seeded away.
KNOWN_DEFECTS = {
    "compare/direct-exact-keldysh": (
        "A: compare judges the exact keldysh output against the retarded Trotter bound "
        "(max_dev 0.573 > tol 0.325) and exits 3"
    ),
    "correlator/direct-shots-weak-kick": (
        "B: MeasurementRecord applies the exact-value Majorana norm bound to a 1/sin(Phi)-scaled "
        "shot estimate; Phi=0.02 exits 2"
    ),
    "compare/noisy-mitigated": (
        "C: noisy CSVs write taus as np.float64(...) and have no stderr column; compare exits 2"
    ),
    "compare/advanced-hadamard-exact": (
        "D: the CSV header protocol=advanced-hadamard overrides advanced_hadamard, so compare "
        "skips the x2 scaling and exits 3 (max_dev 1.0)"
    ),
}


def correlator_args(seed, outdir, *, steps=25, dtau=0.314, shots=0, kind="retarded",
                    protocol="direct", phi=PHI, pair="all", extra=()):
    return [
        "correlator", "--t", repr(T), "--u", repr(U), "--dtau", repr(dtau),
        "--steps", str(steps), "--protocol", protocol, "--phi", repr(phi), "--kind", kind,
        "--shots", str(shots), "--pair", pair, "--seed", str(seed), "--outdir", outdir, *extra,
    ]


def _correlator_run(session, seed, name, pairs=PAIRS, **cfg):
    """One correlator command, then one check per CSV it wrote; returns the checked CSVs."""
    out = session.outdir(name)
    argv = correlator_args(seed, out, pair=pairs[0] if len(pairs) == 1 else "all", **cfg)
    if not session.command(f"correlator/{name}", argv, "estimate", out):
        return {}
    steps, dtau = cfg.get("steps", 25), cfg.get("dtau", 0.314)
    hadamard = cfg.get("protocol", "direct") != "direct"
    verdicts = {}
    for pair in pairs:
        path = os.path.join(out, f"{pair}.csv")
        ref = checks.anticommutator_series(T, U, dtau, steps, pair, cfg.get("kind", "retarded"))
        check = checks.check_shots if cfg.get("shots", 0) else checks.check_exact
        if os.path.exists(path):
            ok, detail = check(path, ref, dtau, steps, 2.0 if hadamard else 1.0)
        else:
            ok, detail = False, "missing"
        session.check(f"check/{name}/{pair}", ok, detail)
        verdicts[path] = ok
    return verdicts


def _compare(session, name, verdicts):
    """compare on every CSV of one run; the right verdict is 0 iff every CSV passed its check."""
    if not verdicts:
        return
    expected = 0 if all(verdicts.values()) else 3
    session.command(f"compare/{name}", ["compare", "--csv", *sorted(verdicts)], "compare",
                    expect_rc=expected)


def _compare_each(session, name, verdicts):
    """One compare per CSV, so that a pass has several compare_s samples."""
    for path, ok in sorted(verdicts.items()):
        _compare(session, f"{name}/{os.path.basename(path)[:-4]}", {path: ok})


NOISELESS_RUNS = {
    "direct-exact-retarded": {},
    "direct-exact-keldysh": {"kind": "keldysh"},
    "direct-shots": {"shots": 4096},
    "direct-exact-halved": {"steps": 50, "dtau": 0.157},
    "direct-shots-weak-kick": {"shots": 4096, "phi": 0.02},
    "hadamard-shots": {"protocol": "hadamard", "shots": 4096},
    "advanced-hadamard-exact": {"protocol": "advanced-hadamard"},
}


def noiseless_session(session, seed):
    """The paper experiment at 25 steps: seven correlator runs and a compare per output directory.

    Each directory is compared right after its run and once more at the end,
    so that compare_s samples are spread over the whole pass.
    """
    verdicts = {}
    for name, cfg in NOISELESS_RUNS.items():
        verdicts[name] = _correlator_run(session, seed, name, **cfg)
        _compare(session, name, verdicts[name])
    for name, v in verdicts.items():
        _compare(session, name, v)


AB_STEPS = 6


def noisy_mitigated(session, seed):
    """The README noisy example, its unmitigated baseline and the exact series they aim at.

    The exact reference CSVs are compared once up front and again after each
    noisy run, so that compare_s samples are spread over the whole pass.
    """
    model = session.path("model.json")
    if not os.path.exists(model):
        kolkata_dimer_model().to_json(model)
    exact = _correlator_run(session, seed, "exact-reference", steps=AB_STEPS)
    _compare_each(session, "exact-reference", exact)
    noisy = {"shots": 4096, "pair": "y2y2", "steps": AB_STEPS}
    mitigation = ["--readout-mitigation", "--twirl", "4", "--zne-scales", "1.0", "1.5", "2.0",
                  "--zne-order", "1"]
    paths = {}
    for name, extra in (("noisy-mitigated", mitigation), ("noisy-unmitigated", [])):
        out = session.outdir(name)
        argv = correlator_args(seed, out, extra=["--noise-model", model, *extra], **noisy)
        if session.command(f"correlator/{name}", argv, "estimate", out):
            paths[name] = os.path.join(out, "y2y2_noisy.csv")
        _compare_each(session, "exact-reference", exact)
    if len(paths) == 2:
        ref = checks.anticommutator_series(T, U, 0.314, AB_STEPS, "y2y2", "retarded")
        ok, detail = checks.check_mitigation(paths["noisy-mitigated"], paths["noisy-unmitigated"], ref)
        session.check("check/mitigation-beats-unmitigated", ok, detail)
    if "noisy-mitigated" in paths:
        # the noisy series is not checked against a reference of its own; the
        # mitigation check above is its check, so compare should pass it
        _compare(session, "noisy-mitigated", {paths["noisy-mitigated"]: True})


LANDSCAPES = {"landscape-exact": (101, 0), "landscape-shots": (41, 1024)}


def vha_landscape(session, seed):
    """Exact correlators from the prepared VHA ground state, then both VHA sweeps.

    The correlator CSVs are compared once up front and again after each sweep,
    so that compare_s samples are spread over the whole pass.
    """
    handoff = _correlator_run(session, seed, "ground-state-handoff", steps=AB_STEPS)
    _compare_each(session, "ground-state-handoff", handoff)
    for name, (grid, shots) in LANDSCAPES.items():
        out = session.outdir(name)
        argv = ["vha-sweep", "--t", repr(T), "--u", repr(U), "--grid", str(grid),
                "--shots", str(shots), "--seed", str(seed), "--outdir", out]
        if session.command(f"vha-sweep/{name}", argv, "estimate", out):
            ok, detail = checks.check_landscape(os.path.join(out, "landscape.csv"), T, U, grid, shots)
            session.check(f"check/{name}", ok, detail)
        _compare_each(session, "ground-state-handoff", handoff)


WORKLOADS = {
    "noiseless-session": (noiseless_session, 7),
    "noisy-mitigated": (noisy_mitigated, 42),
    "vha-landscape": (vha_landscape, 3),
}
