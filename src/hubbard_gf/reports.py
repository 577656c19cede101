"""CSV and SVG emission for runs: byte-reproducible tables, dependency-free plots.

Every file starts with '# key=value' header lines carrying the full run
configuration and seed, so re-running a config reproduces the bytes exactly.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .circuit import TrotterPlan
from .greens import DIMER_PAIRS, LAMBDA_BY_KIND, time_grid
from .vha import canonical_angles

# A correlator CSV's estimate and stderr columns per unit of the full (anti)commutator
# that records hold: the Hadamard CSVs keep their protocol's native half.
_CSV_SCALE = {"direct": 1.0, "hadamard": 0.5, "advanced_hadamard": 0.5}


def _fmt(x) -> str:
    if isinstance(x, float):  # np.float64 too, whose repr is "np.float64(...)"
        return repr(float(x))
    return str(x)


def write_csv(path, header: dict, columns: list[str], rows) -> None:
    """Header lines, the column line, then one line per row: a str is taken as the joined line."""
    lines = [f"# {k}={_fmt(v)}" for k, v in header.items()]
    lines.append(",".join(columns))
    lines += (row if isinstance(row, str) else ",".join(map(_fmt, row)) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


def write_text(path, text: str) -> None:
    """Replace the file's content with text, keeping its inode.

    It is cut to the new length after the write, not emptied at open (O_TRUNC): on
    ext4 a file emptied and then rewritten waits for writeback when it is closed,
    and re-running a command into the same outdir rewrites every file it holds.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
        f.truncate()


def read_csv(path) -> tuple[dict, list[str], list[list[str]]]:
    header, columns, rows = {}, [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# ") and "=" in line:
                k, v = line[2:].split("=", 1)
                header[k] = v
            elif not columns:
                columns = line.split(",")
            elif line:
                rows.append(line.split(","))
    return header, columns, rows


def write_measurement_csv(path, name: str, record, t, u, plan, kind, seed, noise_model=None) -> None:
    """The record's rows under the header read_measurement_csv reads back; `seed` is the run's."""
    meta = {
        "correlator": name, "protocol": record.protocol, "phi": record.phi, "lambda": record.lam,
        "shots": record.shots, "seed": seed, "command": "correlator", "t": t, "u": u,
        "dtau": plan.dtau, "steps": plan.steps, "kind": kind,
    } | ({"noise_model": noise_model} if noise_model else {})
    fixed, scale = (record.shots, record.protocol, record.phi, record.lam), _CSV_SCALE[record.protocol]
    points = zip(record.taus, record.estimates, record.stderrs)
    rows = ((float(tau), float(scale * v), float(scale * s), *fixed) for tau, v, s in points)
    write_csv(path, meta, ["tau", "estimate", "stderr", "shots", "protocol", "phi", "lambda"], rows)


@dataclass(frozen=True)
class CorrelatorCsv:
    """A correlator CSV's settings, its taus, and its full-value estimates and stderrs (zeros without shots)."""

    correlator: str
    kind: str
    protocol: str
    shots: int
    phi: float
    t: float
    u: float
    plan: TrotterPlan
    taus: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray


def read_measurement_csv(path) -> CorrelatorCsv:
    """A CSV of write_measurement_csv's layout, its columns scaled back to full values;
    ValueError names the header key or the body defect that cannot be judged.  Values are
    held to no bound, so a nan estimate is returned."""
    header, columns, rows = read_csv(path)
    name, kind, protocol = header.get("correlator"), header.get("kind"), header.get("protocol")
    if name not in DIMER_PAIRS:
        raise ValueError(f"invalid header correlator={name}")
    if kind not in LAMBDA_BY_KIND:
        raise ValueError(f"invalid header kind={kind}")
    if protocol not in _CSV_SCALE:
        raise ValueError(f"invalid header protocol={protocol}")
    read = {}
    for key in ("t", "u", "phi", "lambda", "dtau", "steps", "shots"):
        try:
            read[key] = (int if key in ("steps", "shots") else float)(header[key])
        except (KeyError, ValueError):
            read[key] = math.nan
        wrong = {"shots": read[key] < 0, "lambda": read[key] != LAMBDA_BY_KIND[kind]}.get(key, False)
        if not -math.inf < read[key] < math.inf or wrong:  # compares an int past the float range exactly
            raise ValueError(f"invalid header {key}={header.get(key)}")
    plan = TrotterPlan(read["dtau"], read["steps"])  # refuses a dtau or steps out of range
    needed = ("tau", "estimate") + (("stderr",) if read["shots"] else ())
    missing = [c for c in needed if c not in columns]
    if missing:
        raise ValueError(f"missing column {', '.join(missing)}")
    table = []
    for i, row in enumerate(rows, 1):
        if len(row) != len(columns):
            raise ValueError(f"data row {i} has {len(row)} cells for {len(columns)} columns")
        try:
            table.append([float(row[columns.index(c)]) for c in needed])
        except ValueError as e:
            raise ValueError(f"data row {i}: {e}") from None
    data = np.array(table).reshape(-1, len(needed)).T
    # the row count first, so a header's steps sizes no grid the body does not hold
    if data.shape[1] != plan.steps + 1 or not np.all(np.abs(data[0] - time_grid(plan)) <= 1e-12):
        raise ValueError(f"taus are not the {plan.steps + 1} points of the dtau={plan.dtau} time grid")
    scale = _CSV_SCALE[protocol]
    stderrs = data[2] / scale if read["shots"] else np.zeros(data.shape[1])
    return CorrelatorCsv(
        name, kind, protocol, read["shots"], read["phi"], read["t"], read["u"], plan,
        data[0], data[1] / scale, stderrs,
    )


def write_landscape_csv(path, result, header: dict) -> None:
    """Landscape rows, formatted as _fmt would from the result's arrays, each angle once;
    the header names the optimum folded by vha.canonical_angles."""
    best = result.best
    meta = dict(header)
    meta["optimum_alpha"], meta["optimum_beta"] = canonical_angles(best.alpha, best.beta)
    meta["optimum_energy"] = best.energy
    angles = itertools.product(*(map(repr, axis.tolist()) for axis in (result.alphas, result.betas)))
    values = (map(repr, column.ravel().tolist()) for column in (result.energies, result.stderrs))
    rows = (f"{a},{b},{e},{s}" for (a, b), e, s in zip(angles, *values))
    write_csv(path, meta, ["alpha", "beta", "energy", "stderr"], rows)


# -- minimal SVG plotting -----------------------------------------------------------


@dataclass
class _Frame:
    width: int = 640
    height: int = 420
    margin: int = 52
    xlim: tuple[float, float] = (0.0, 1.0)
    ylim: tuple[float, float] = (-1.0, 1.0)

    def x(self, v: float) -> float:
        lo, hi = self.xlim
        return self.margin + (v - lo) / (hi - lo) * (self.width - 2 * self.margin)

    def y(self, v: float) -> float:
        lo, hi = self.ylim
        return self.height - self.margin - (v - lo) / (hi - lo) * (self.height - 2 * self.margin)


def _ticks(lo, hi, n=5):
    raw = np.linspace(lo, hi, n)
    return [float(f"{v:.3g}") for v in raw]


def correlator_svg(
    path,
    title: str,
    taus,
    measured,
    stderr,
    analytic_taus,
    analytic,
    config_lines: tuple[str, ...] = (),
) -> None:
    """Overlay plot: analytic polyline, measured points, shaded stderr band."""
    taus = np.asarray(taus, dtype=float)
    measured = np.asarray(measured, dtype=float)
    stderr = np.asarray(stderr, dtype=float)
    ana_t = np.asarray(analytic_taus, dtype=float)
    ana = np.asarray(analytic, dtype=float)
    ys = [measured - stderr, measured + stderr, ana]
    ylo = min(float(np.min(y)) for y in ys)
    yhi = max(float(np.max(y)) for y in ys)
    pad = 0.08 * max(yhi - ylo, 1e-9)
    fr = _Frame(xlim=(float(taus.min()), float(max(taus.max(), 1e-9))), ylim=(ylo - pad, yhi + pad))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fr.width}" height="{fr.height}" '
        f'viewBox="0 0 {fr.width} {fr.height}">',
        f'<rect width="{fr.width}" height="{fr.height}" fill="white"/>',
        f'<text x="{fr.width/2:.1f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # axes
    x0, y0 = fr.margin, fr.height - fr.margin
    x1, y1 = fr.width - fr.margin, fr.margin
    parts.append(
        f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" stroke="black" fill="none" stroke-width="1"/>'
    )
    for v in _ticks(*fr.xlim):
        parts.append(
            f'<line x1="{fr.x(v):.1f}" y1="{y0}" x2="{fr.x(v):.1f}" y2="{y0+4}" stroke="black"/>'
            f'<text x="{fr.x(v):.1f}" y="{y0+18}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{v:g}</text>'
        )
    for v in _ticks(*fr.ylim):
        parts.append(
            f'<line x1="{x0-4}" y1="{fr.y(v):.1f}" x2="{x0}" y2="{fr.y(v):.1f}" stroke="black"/>'
            f'<text x="{x0-8}" y="{fr.y(v)+4:.1f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{v:g}</text>'
        )
    parts.append(
        f'<text x="{(x0+x1)/2:.0f}" y="{fr.height-12}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">tau</text>'
    )
    # stderr band
    if np.any(stderr > 0):
        upper = [(fr.x(t), fr.y(m + s)) for t, m, s in zip(taus, measured, stderr)]
        lower = [(fr.x(t), fr.y(m - s)) for t, m, s in zip(taus, measured, stderr)][::-1]
        pts = " ".join(f"{a:.1f},{b:.1f}" for a, b in upper + lower)
        parts.append(f'<polygon points="{pts}" fill="#c6d9f1" opacity="0.7"/>')
    # analytic curve
    pts = " ".join(f"{fr.x(t):.1f},{fr.y(v):.1f}" for t, v in zip(ana_t, ana))
    parts.append(f'<polyline points="{pts}" stroke="#1f4e9c" fill="none" stroke-width="1.6"/>')
    # measured points
    for t, m in zip(taus, measured):
        parts.append(f'<circle cx="{fr.x(t):.1f}" cy="{fr.y(m):.1f}" r="3.2" fill="#c0392b"/>')
    for i, line in enumerate(config_lines):
        parts.append(
            f'<text x="{x1}" y="{y1 + 14 + 13*i}" text-anchor="end" font-size="10" '
            f'fill="#555" font-family="monospace">{line}</text>'
        )
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")


def landscape_svg(path, title: str, alphas, betas, energies, best) -> None:
    """Heatmap of the energy landscape (row-major energies grid), the (alpha, beta) best marked."""
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    grid = np.asarray(energies, dtype=float).reshape(len(alphas), len(betas))
    lo, hi = float(grid.min()), float(grid.max())
    fr = _Frame(width=520, height=520, xlim=(betas[0], betas[-1]), ylim=(alphas[0], alphas[-1]))
    cw = (fr.width - 2 * fr.margin) / len(betas)
    ch = (fr.height - 2 * fr.margin) / len(alphas)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fr.width}" height="{fr.height}">',
        f'<rect width="{fr.width}" height="{fr.height}" fill="white"/>',
        f'<text x="{fr.width/2:.0f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    frac = np.zeros_like(grid) if hi == lo else (grid - lo) / (hi - lo)
    reds, blues = ((255 * f).astype(int).tolist() for f in (frac, 1 - frac))
    xs = [f"{fr.margin + j * cw:.1f}" for j in range(len(betas))]
    size = f'width="{cw+0.5:.1f}" height="{ch+0.5:.1f}"'
    for i, (row_r, row_b) in enumerate(zip(reds, blues)):
        y = f"{fr.height - fr.margin - (i + 1) * ch:.1f}"
        parts += [f'<rect x="{x}" y="{y}" {size} fill="rgb({r},60,{b})"/>' for x, r, b in zip(xs, row_r, row_b)]
    # centred on the grid cell nearest the optimum, which may lie off the grid
    bx = fr.margin + (np.argmin(np.abs(betas - best[1])) + 0.5) * cw
    by = fr.height - fr.margin - (np.argmin(np.abs(alphas - best[0])) + 0.5) * ch
    parts.append(f'<circle cx="{bx:.1f}" cy="{by:.1f}" r="5" fill="none" stroke="white" stroke-width="2"/>')
    parts.append(
        f'<text x="{fr.width/2:.0f}" y="{fr.height-10}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">beta (energy color: blue=min, red=max)</text>'
    )
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")


def default_outdir() -> str:
    return os.environ.get("HUBBARD_GF_OUTDIR", ".")
