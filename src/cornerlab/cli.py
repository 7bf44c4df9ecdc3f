"""Command-line front end: run the pipelines, write CSV/JSON/SVG artifacts.

Subcommands
-----------
bulk-spectrum   Bloch eigenvalues along one swept angle -> CSV + SVG.
edge-gap        min |edge spectrum| on both half-planes -> JSON, PASS/FAIL.
corner-flow     spectral flow of the corner family -> JSON + SVG.
verify-product  both sides of the corner product formula -> verdict JSON.
report          consolidated invariant report for a dim-3 model -> JSON.

Each subcommand takes only the flags it reads (``_COMMANDS``), and each
JSON document echoes the parsed flags of its own subcommand, with the
package version; two runs with the same flags produce byte-identical JSON
and SVG.  The corner flow's tracking window and the edge-gap verdict's
threshold are set by the package, not by flags.  Exit codes: 0 success,
2 model or configuration error, 3 numerical failure, 4 spectral-gap
assumption violated.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import (
    EigensolverError,
    GapClosedError,
    GeometryError,
    ModelError,
    ResidualError,
    TrackingError,
)
from . import geometry, invariants, symbol

PERTURB_NORM = 0.1  # on-site disorder strength used when --seed is given


# Admissible values of the range-checked flags: (flag, test, requirement).
_RANGES = (
    ("L", lambda v: v >= 1, "be at least 1"),
    ("W", lambda v: v >= 1, "be at least 1"),
    ("t-grid", lambda v: v >= 4, "be at least 4"),
    ("k-grid", lambda v: v >= 2, "be at least 2"),
    ("seed", lambda v: v >= 0, "be at least 0"),
)


def _check(cfg):
    """Refuse an out-of-range value of any flag ``cfg`` carries with ModelError."""
    for flag, ok, rule in _RANGES:
        value = vars(cfg).get(flag.replace("-", "_"))
        if value is not None and not ok(value):
            raise ModelError(f"{flag} must {rule}, got {value}")


def _load_named(name, catalog):
    """Resolve a name of the command's builtin ``catalog`` or a model file path."""
    if name in catalog:
        entry = catalog[name]
        return entry.symbol, entry.grading
    if os.path.exists(name):
        return symbol.load_model(name)
    raise ModelError(f"{name!r} is neither a builtin model nor an existing file")


def _load_factors(cfg, catalog):
    h1, _ = _load_named(cfg.h1, catalog)
    h2, grading = _load_named(cfg.h2, catalog)
    if grading is None:
        raise ModelError(f"{cfg.h2!r} carries no chiral grading")
    return h1, h2, grading


def _load_model(cfg, catalog):
    if (cfg.model is None) == (cfg.builtin is None):
        raise ModelError("exactly one of --model or --builtin is required")
    sym, grading = _load_named(cfg.model or cfg.builtin, catalog)
    if cfg.seed is not None:
        sym = symbol.perturb_onsite(sym, PERTURB_NORM, cfg.seed)
    return sym, grading


def _slope_pair(cfg):
    return geometry.SlopePair(
        geometry.Slope.parse(cfg.alpha), geometry.Slope.parse(cfg.beta))


def _write_json(cfg, name, doc):
    doc = dict(doc)
    doc["config"] = {k: v for k, v in vars(cfg).items() if k != "func"}
    doc["version"] = __version__
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# hand-rolled SVG (no plotting dependency; deterministic output)

_PLOT_W, _PLOT_H = 720, 440
_MARGIN = (56, 16, 34, 44)  # left, right, top, bottom


def _svg_open(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_W}" '
        f'height="{_PLOT_H}" viewBox="0 0 {_PLOT_W} {_PLOT_H}">',
        f'<rect width="{_PLOT_W}" height="{_PLOT_H}" fill="white"/>',
        f'<text x="{_PLOT_W / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


def _axis_map(xlim, ylim):
    ml, mr, mt, mb = _MARGIN
    ax_w, ax_h = _PLOT_W - ml - mr, _PLOT_H - mt - mb
    dx = xlim[1] - xlim[0] or 1.0
    dy = ylim[1] - ylim[0] or 1.0

    def to_px(x, y):
        return (ml + (x - xlim[0]) / dx * ax_w,
                mt + ax_h - (y - ylim[0]) / dy * ax_h)

    return to_px


def _svg_axes(lines, xlim, ylim, xlabel, ylabel):
    ml, mr, mt, mb = _MARGIN
    to_px = _axis_map(xlim, ylim)
    x0, y0 = to_px(xlim[0], ylim[0])
    x1, y1 = to_px(xlim[1], ylim[1])
    lines.append(
        f'<rect x="{x0:.1f}" y="{y1:.1f}" width="{x1 - x0:.1f}" '
        f'height="{y0 - y1:.1f}" fill="none" stroke="#444"/>')
    for i in range(5):
        xv = xlim[0] + i * (xlim[1] - xlim[0]) / 4
        yv = ylim[0] + i * (ylim[1] - ylim[0]) / 4
        px, _ = to_px(xv, ylim[0])
        _, py = to_px(xlim[0], yv)
        lines.append(
            f'<text x="{px:.1f}" y="{y0 + 16:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{xv:.2f}</text>')
        lines.append(
            f'<text x="{x0 - 6:.1f}" y="{py + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{yv:.2f}</text>')
    lines.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_PLOT_H - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    lines.append(
        f'<text x="14" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {(y0 + y1) / 2:.1f})">{ylabel}</text>')
    if ylim[0] < 0 < ylim[1]:
        _, pz = to_px(xlim[0], 0.0)
        lines.append(
            f'<line x1="{x0:.1f}" y1="{pz:.1f}" x2="{x1:.1f}" y2="{pz:.1f}" '
            f'stroke="#bbb" stroke-dasharray="4 3"/>')
    return to_px


_BAND_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
                "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


def _svg_band_plot(path, xs, bands, title, xlabel, ylabel):
    """Polyline per band; ``bands`` has shape (len(xs), n_bands)."""
    bands = np.asarray(bands)
    pad = 0.05 * (bands.max() - bands.min() or 1.0)
    xlim = (float(xs[0]), float(xs[-1]))
    ylim = (float(bands.min() - pad), float(bands.max() + pad))
    lines = _svg_open(title)
    to_px = _svg_axes(lines, xlim, ylim, xlabel, ylabel)
    for b in range(bands.shape[1]):
        pts = " ".join("%.1f,%.1f" % to_px(x, y) for x, y in zip(xs, bands[:, b]))
        color = _BAND_COLORS[b % len(_BAND_COLORS)]
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _svg_flow_plot(path, samples, window, title):
    """Windowed eigenvalues vs t; points attributed to the corner highlighted."""
    xlim = (0.0, 2 * np.pi)
    ylim = (-window, window)
    lines = _svg_open(title)
    to_px = _svg_axes(lines, xlim, ylim, "t", "eigenvalue")
    faint, strong = [], []
    for t, vals, weights in samples:
        for v, w in zip(vals, weights):
            if abs(v) > window:
                continue
            px, py = to_px(t % (2 * np.pi), v)
            if w >= invariants.ATTRIBUTION_MIN:
                strong.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="2.6" fill="#d62728"/>')
            else:
                faint.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="1.4" fill="#9b9b9b"/>')
    lines.extend(faint)
    lines.extend(strong)  # drawn last so corner branches sit on top
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_bulk_spectrum(cfg):
    sym, _ = _load_model(cfg, symbol.builtin_models())
    axis = cfg.sweep_axis if cfg.sweep_axis is not None else sym.dim - 1
    if not 0 <= axis < sym.dim:
        raise ModelError(f"sweep axis {axis} out of range for dim {sym.dim}")
    angles = np.linspace(0.0, 2 * np.pi, cfg.t_grid + 1)
    k = np.zeros((angles.size, sym.dim))
    k[:, axis] = angles
    bands = np.linalg.eigvalsh(symbol.evaluate_bloch(sym, k))
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = os.path.join(cfg.out, "bulk_spectrum.csv")
    with open(csv_path, "w") as fh:
        fh.write("angle," + ",".join(f"lambda_{b}" for b in range(bands.shape[1])) + "\n")
        for a, row in zip(angles, bands):
            fh.write("%.17g," % a + ",".join("%.17g" % v for v in row) + "\n")
    svg_path = os.path.join(cfg.out, "bulk_spectrum.svg")
    _svg_band_plot(svg_path, angles, bands,
                   f"bulk spectrum, axis {axis} swept, others at 0",
                   f"k[{axis}]", "eigenvalue")
    gap = float(np.min(np.abs(bands)))
    print(f"bulk-spectrum: {bands.shape[1]} bands, min |lambda| = {gap:.6f}")
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


def cmd_edge_gap(cfg):
    sym, _ = _load_model(cfg, symbol.builtin_models())
    pair = _slope_pair(cfg)
    threshold = invariants._EDGE_GAP_FLOOR
    gap_a, gap_b = invariants.edge_gap_scan(
        sym, pair, cfg.W, (cfg.k_grid, cfg.k_grid))
    ok = min(gap_a, gap_b) >= threshold
    path = _write_json(cfg, "edge_gap.json", {
        "alpha_min": float(gap_a),
        "beta_min": float(gap_b),
        "threshold": threshold,
        "pass": bool(ok),
    })
    print(f"edge-gap: alpha_min={gap_a:.6f} beta_min={gap_b:.6f} "
          f"threshold={threshold} -> {'PASS' if ok else 'FAIL'}")
    print(f"wrote {path}")
    return 0


def cmd_corner_flow(cfg):
    sym, _ = _load_model(cfg, symbol.builtin_models())
    pair = _slope_pair(cfg)
    net, detail = invariants.corner_spectral_flow(
        sym, pair, cfg.L, n_t=cfg.t_grid, keep_samples=True)
    path = _write_json(cfg, "corner_flow.json", {
        "spectral_flow": int(net),
        "window": float(detail.window),
        "grid_points": detail.grid_points,
        "edge_gaps": [float(g) for g in detail.edge_gaps],
        "crossings": [asdict(c) for c in detail.crossings],
    })
    svg_path = os.path.join(cfg.out, "corner_flow.svg")
    _svg_flow_plot(svg_path, detail.samples, detail.window,
                   f"corner family spectrum, sf = {net}")
    tracked = sum(c.multiplicity for c in detail.crossings)
    print(f"corner-flow: spectral flow = {net} ({tracked} tracked crossings in "
          f"{len(detail.crossings)} rows, window {detail.window:.4f})")
    print(f"wrote {path}")
    print(f"wrote {svg_path}")
    return 0


def cmd_verify_product(cfg):
    h1, h2, grading = _load_factors(cfg, symbol.builtin_models())
    pair = _slope_pair(cfg)
    i_2d = invariants.chern_number(h1)
    i_1d = invariants.winding_number(h2, grading)
    prod = symbol.product_hamiltonian(h1, h2, grading)
    sf, _ = invariants.corner_spectral_flow(prod, pair, cfg.L, n_t=cfg.t_grid)
    be_pair = (invariants._pair_rank(h1, h2), i_2d * i_1d)
    doc = {
        "lhs": sf,
        "rhs": i_2d * i_1d,
        "equal": bool(sf == i_2d * i_1d),
        "i_2d": i_2d,
        "i_1d": i_1d,
        "pair": list(be_pair),
    }
    path = _write_json(cfg, "verify_product.json", doc)
    print(f"verify-product: sf={sf}  I_2d*I_1d={i_2d}*{i_1d}={i_2d * i_1d}  "
          f"-> {'VERIFIED' if doc['equal'] else 'MISMATCH'}  pair={be_pair}")
    print(f"wrote {path}")
    return 0


def cmd_report(cfg):
    if (cfg.h1 is None) != (cfg.h2 is None):
        raise ModelError("report takes both --h1 and --h2, or neither")
    catalog = symbol.builtin_models()
    sym, _ = _load_model(cfg, catalog)
    pair = _slope_pair(cfg)
    factors = _load_factors(cfg, catalog) if cfg.h1 is not None else None
    report = invariants.compute_report(
        sym, pair, W=cfg.W, edge_grid=(cfg.k_grid, cfg.k_grid), L=cfg.L,
        n_t=cfg.t_grid, factors=factors)
    path = _write_json(cfg, "report.json", {"report": report.to_dict()})
    print(f"report: {json.dumps(report.to_dict(), sort_keys=True)}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------

# Every flag a subcommand may take, with its argparse keywords; the parsed
# namespace is the run's configuration, attribute names as argparse derives them.
_FLAGS = {
    "--model": dict(help="path to a model JSON file"),
    "--builtin": dict(help="builtin model name (see symbol.builtin_models)"),
    "--seed": dict(type=int,
                   help=f"if given, add a seeded on-site perturbation of norm {PERTURB_NORM}"),
    "--h1": dict(help="dim-2 factor (builtin name or file)"),
    "--h2": dict(help="dim-1 chiral factor (builtin name or file)"),
    "--alpha": dict(default="0", help="first edge slope (p/q or -inf)"),
    "--beta": dict(default="inf", help="second edge slope (p/q or inf)"),
    "--L": dict(type=int, default=24, help="corner truncation radius"),
    "--W": dict(type=int, default=40,
                help="edge strip depth of the edge-gap and report scans (a corner "
                     f"flow's Fredholm scan is fixed at {invariants._FLOW_EDGE_W})"),
    "--t-grid": dict(type=int, default=64, help="points on the parameter circle"),
    "--k-grid": dict(type=int, default=16,
                     help="points per angle in the edge-gap and report scans (a corner "
                          "flow's Fredholm scan is fixed at %dx%d)" % invariants._FLOW_EDGE_GRID),
    "--sweep-axis": dict(type=int, help="which angle to sweep (default: last axis)"),
    "--out": dict(default=".", help="output directory"),
}

# Subcommand -> (handler, help, the flags its handler reads; "!" marks a required one).
_COMMANDS = {
    "bulk-spectrum": (cmd_bulk_spectrum, "Bloch bands along one swept angle",
                      "--model --builtin --seed --t-grid --sweep-axis --out"),
    "edge-gap": (cmd_edge_gap, "minimum gap of both edge compressions",
                 "--model --builtin --seed --alpha --beta --W --k-grid --out"),
    "corner-flow": (cmd_corner_flow, "spectral flow of the corner family",
                    "--model --builtin --seed --alpha --beta --L --t-grid --out"),
    "verify-product": (cmd_verify_product, "check sf(corner) == I_2d * I_1d for a factor pair",
                       "--h1! --h2! --alpha --beta --L --t-grid --out"),
    "report": (cmd_report, "consolidated invariant report (dim-3 model)",
               "--model --builtin --seed --alpha --beta --L --W --t-grid --k-grid "
               "--h1 --h2 --out"),
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="cornerlab",
        description="corner compressions, edge gaps, and topological invariants "
                    "of lattice Hamiltonians")
    p.add_argument("--version", action="version", version=f"cornerlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            option = flag.rstrip("!")
            sp.add_argument(option, required=flag != option, **_FLAGS[option])
        sp.set_defaults(func=func)
    return p


def _error_doc(exc):
    return json.dumps(
        {"error": {"type": exc.__class__.__name__, "message": str(exc)}},
        sort_keys=True)


def main(argv=None):
    """Entry point.

    Parameters
    ----------
    argv : list of str, optional
        Arguments; defaults to ``sys.argv[1:]``.

    Returns
    -------
    int
        0 success, 2 model/config error, 3 numerical failure, 4 gap
        assumption violated.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse takes "-inf", "-1/2" for options
        flag, value = argv[i:i + 2]
        if flag in ("--alpha", "--beta") and value.startswith("-") and value[1:2] != "-":
            argv[i:i + 2] = [f"{flag}={value}"]
    cfg = _build_parser().parse_args(argv)
    try:
        _check(cfg)
        return cfg.func(cfg)
    except GapClosedError as exc:
        print(_error_doc(exc))
        return 4
    except (EigensolverError, TrackingError, ResidualError) as exc:
        print(_error_doc(exc))
        return 3
    except (ModelError, GeometryError, OSError) as exc:
        print(_error_doc(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
