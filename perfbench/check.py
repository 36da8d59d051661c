"""Output checks for the benchmark invocations.

Each written output is checked against the paper's invariants and
against values computed here from the input file alone, with numpy and
formulas that share no code with the package under test:

* per case, |sum_j S_j - S| <= 1e-9 * max(1, |S|);
* every component is >= 0;
* a component is exactly 0 where its rectangular cell does not meet
  [min(x, y), max(x, y)] (for CRPS, the hull of the members and y);
* totals, components, Murphy means, CI bounds and point differences
  agree with the reference values below within 1e-9 * max(1, |S|),
  where S is the case total (or the reported value itself for means
  and bounds);
* bootstrap intervals have lo <= hi.

Reference values.  For point forecasts with the built-in generators,
each component is rate * |K(|u - y|) - K(|l - y|)| over the part [l, u]
of [min(x, y), max(x, y)] inside the cell, with K the antiderivative of
the elementary-score kernel (Ehm et al. 2016).  Smooth weights use
composite Gauss-Legendre quadrature on unit panels, split at the Huber
kink.  Murphy means use sorted prefix sums, CRPS the exact step-CDF sum.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9
_MAX_MESSAGES = 5

# generator constants of the CLI defaults: g' for quantiles (identity_g),
# phi'' for expectiles (scaled_quadratic_phi) and Huber (quadratic_phi)
_DERIV = {"quantile": 1.0, "expectile": 4.0, "huber_mean": 2.0}


# --- reading ---------------------------------------------------------------


def read_table(path: Path):
    """(header, ids, float matrix) of a CSV written by this benchmark or the CLI."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",", 1) for line in lines[1:] if line]
    ids = [r[0] for r in rows]
    values = np.array(
        [np.array(r[1].split(","), dtype=float) for r in rows]
    ).reshape(len(rows), len(header) - 1)
    return header, ids, values


# --- reference values ------------------------------------------------------


def _rate(spec: dict, x, y):
    if spec["functional"] == "huber_mean":
        return np.ones_like(x)
    alpha = spec["alpha"]
    return np.where(y < x, 1.0 - alpha, alpha)


def _kernel(spec: dict, d):
    """Elementary-score kernel times generator density at distance d from y."""
    c = _DERIV[spec["functional"]]
    if spec["functional"] == "quantile":
        return c * np.ones_like(d)
    if spec["functional"] == "expectile":
        return c * d
    return c * 0.5 * np.minimum(d, spec["nu"])


def _kernel_antideriv(spec: dict, d):
    c = _DERIV[spec["functional"]]
    if spec["functional"] == "quantile":
        return c * d
    if spec["functional"] == "expectile":
        return c * 0.5 * d * d
    nu = spec["nu"]
    inner = np.minimum(d, nu)
    return c * 0.5 * (0.5 * inner * inner + nu * (d - inner))


def totals(spec: dict, x, y):
    return _rate(spec, x, y) * _kernel_antideriv(spec, np.abs(x - y))


def cell_edges(cutpoints) -> list[tuple[float, float]]:
    edges = [-math.inf, *cutpoints, math.inf]
    return list(zip(edges[:-1], edges[1:]))


def rect_components(spec: dict, x, y, cutpoints):
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    rate = _rate(spec, x, y)
    out = []
    for a, b in cell_edges(cutpoints):
        left, right = np.maximum(lo, a), np.minimum(hi, b)
        meets = left < right
        ka = _kernel_antideriv(spec, np.abs(np.where(meets, left, y) - y))
        kb = _kernel_antideriv(spec, np.abs(np.where(meets, right, y) - y))
        out.append(np.where(meets, rate * np.abs(kb - ka), 0.0))
    return np.array(out)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _gauss_legendre(f, a, b, panels: int):
    """Composite rule for f on [a, b] per case; a, b are arrays."""
    total = np.zeros_like(a)
    width = (b - a) / panels
    for p in range(panels):
        lo = a + p * width
        t = lo[:, None] + 0.5 * width[:, None] * (_GL_NODES[None, :] + 1.0)
        total += 0.5 * width * (f(t) @ _GL_WEIGHTS)
    return total


def arctan_weights(center: float):
    upper = lambda t: 0.5 + np.arctan(t - center) / np.pi  # noqa: E731
    lower = lambda t: 0.5 - np.arctan(t - center) / np.pi  # noqa: E731
    return [lower, upper]


def smooth_components(spec: dict, x, y, weights):
    """Components for smooth weights, integrating in d = |t - y|."""
    d = np.abs(x - y)
    sign = np.where(x >= y, 1.0, -1.0)
    rate = _rate(spec, x, y)
    # split at the Huber kink so that each piece is smooth
    kink = np.minimum(d, spec["nu"]) if spec["functional"] == "huber_mean" else d
    panels = max(1, math.ceil(float(d.max())))
    out = []
    for w in weights:
        def f(s, w=w):
            return _kernel(spec, s) * w(y[:, None] + sign[:, None] * s)

        part = _gauss_legendre(f, np.zeros_like(d), kink, panels)
        part += _gauss_legendre(f, kink, d, panels)
        out.append(rate * part)
    return np.array(out)


def murphy_means(spec: dict, x, y, thresholds):
    """Mean elementary expectile or quantile score on a grid, exactly.

    A case adds (1 - a) * k(theta - y) for y <= theta < x and
    a * k(y - theta) for x <= theta < y, with k(d) = d (expectile) or 1
    (quantile); sorted prefix counts and sums give every threshold.
    """
    alpha = spec["alpha"]
    expectile = spec["functional"] == "expectile"
    total = np.zeros_like(thresholds)
    for mask, start, stop, rate, sgn in (
        (y < x, y, x, 1.0 - alpha, 1.0),
        (x < y, x, y, alpha, -1.0),
    ):
        ys = y[mask]
        for ends, sign in ((start[mask], 1.0), (stop[mask], -1.0)):
            order = np.argsort(ends, kind="stable")
            k = np.searchsorted(ends[order], thresholds, side="right")
            count = k.astype(float)
            sums = np.concatenate(([0.0], np.cumsum(ys[order])))[k]
            if expectile:
                total += sign * rate * sgn * (thresholds * count - sums)
            else:
                total += sign * rate * count
    return total / x.size


def murphy_grid(x_all, y_all, n: int):
    lo = min(x_all.min(), y_all.min())
    hi = max(x_all.max(), y_all.max())
    span = hi - lo
    pad = 0.05 * span if span > 0 else 1.0
    return np.linspace(lo - pad, hi + pad, n)


def crps_components(obs, members, cutpoints):
    """Exact threshold-weighted CRPS of each ensemble per rectangular cell."""
    n, m = members.shape
    cuts = np.broadcast_to(np.asarray(cutpoints, dtype=float), (n, len(cutpoints)))
    edges = np.sort(np.hstack([members, obs[:, None], cuts]), axis=1)
    left, width = edges[:, :-1], np.diff(edges, axis=1)
    below = np.empty(left.shape)
    for start in range(0, n, 2000):
        rows = slice(start, start + 2000)
        below[rows] = (members[rows, None, :] <= left[rows, :, None]).sum(axis=2)
    heights = (below / m - (obs[:, None] <= left)) ** 2
    cell = np.searchsorted(np.asarray(cutpoints, dtype=float), left, side="right")
    return np.array(
        [((cell == j) * heights * width).sum(axis=1) for j in range(len(cutpoints) + 1)]
    )


# --- checks ----------------------------------------------------------------


class Report:
    """Failures of one invocation plus the invariants as seen."""

    def __init__(self):
        self.messages: list[str] = []
        self.max_identity_residual = 0.0
        self.min_component = math.inf

    def fail(self, what: str, bad=None) -> None:
        if bad is not None:
            idx = np.flatnonzero(bad)
            if idx.size == 0:
                return
            what = f"{what} in {idx.size} entries (first at {idx[0]})"
        if len(self.messages) < _MAX_MESSAGES:
            self.messages.append(what)
        elif len(self.messages) == _MAX_MESSAGES:
            self.messages.append("...")

    def close(self, what: str, got, want, scale=None) -> None:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.fail(f"{what}: shape {got.shape} != {want.shape}")
            return
        scale = np.abs(want) if scale is None else np.abs(scale)
        self.fail(what + " differs from reference",
                  ~(np.abs(got - want) <= TOL * np.maximum(1.0, scale)))


def check_cases_file(report: Report, path: Path, ids, want_totals, want_comps,
                     hull=None, cutpoints=None) -> np.ndarray | None:
    """Cases file against reference totals and components; returns totals."""
    if not path.is_file():
        report.fail(f"missing {path.name}")
        return None
    header, got_ids, vals = read_table(path)
    k = want_comps.shape[0]
    if header != ["case_id", "total"] + [f"component_{j}" for j in range(k)]:
        report.fail(f"{path.name}: header {header}")
        return None
    if got_ids != ids:
        report.fail(f"{path.name}: case ids differ from the input")
        return None
    tot, comps = vals[:, 0], vals[:, 1:].T
    residual = np.abs(comps.sum(axis=0) - tot)
    report.max_identity_residual = max(report.max_identity_residual, float(residual.max()))
    report.min_component = min(report.min_component, float(comps.min()))
    report.fail(f"{path.name}: identity", ~(residual <= TOL * np.maximum(1.0, np.abs(tot))))
    report.fail(f"{path.name}: negative component", comps < 0)
    if cutpoints is not None:
        lo, hi = hull
        for j, (a, b) in enumerate(cell_edges(cutpoints)):
            apart = (hi < a) | (lo >= b)
            report.fail(f"{path.name}: component {j} not exactly 0 off its cell",
                        apart & (comps[j] != 0.0))
    report.close(f"{path.name}: totals", tot, want_totals)
    report.close(f"{path.name}: components", comps, want_comps,
                 scale=np.broadcast_to(want_totals, want_comps.shape))
    return tot


def check_summary(report: Report, path: Path, totals, comps) -> None:
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
        mean = summary["mean"]
        report.close(f"{path.name}: mean total", mean["total"], totals.mean())
        report.close(f"{path.name}: mean components", mean["components"], comps.mean(axis=1))
        if summary["n"] != totals.size:
            report.fail(f"{path.name}: n = {summary['n']}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        report.fail(f"{path.name}: unreadable summary ({exc!r})")


def check_compare(report: Report, path: Path, spec: dict, x_a, x_b, y, cutpoints,
                  ci: str) -> None:
    sides = []
    for x in (x_a, x_b):
        sides.append((totals(spec, x, y), rect_components(spec, x, y, cutpoints)))
    rows = np.vstack([sides[0][0] - sides[1][0], sides[0][1] - sides[1][1]])
    try:
        rep = json.loads(path.read_text(encoding="utf-8"))
        for label, (tot, comps) in zip(("A", "B"), sides):
            report.close(f"{path.name}: mean {label}", rep["means"][label]["total"], tot.mean())
            got = np.asarray(rep["means"][label]["components"], dtype=float)
            report.close(f"{path.name}: mean {label} components", got, comps.mean(axis=1))
            report.fail(f"{path.name}: negative mean component", got < 0)
        diff = [rep["difference"]["total"]] + rep["difference"]["components"]
        report.close(f"{path.name}: differences", diff, rows.mean(axis=1))
        bounds = np.asarray([rep["ci"]["total"]] + rep["ci"]["components"], dtype=float)
        if ci == "normal":
            half = 1.96 * rows.std(axis=1, ddof=1) / math.sqrt(rows.shape[1])
            want = np.column_stack([rows.mean(axis=1) - half, rows.mean(axis=1) + half])
            report.close(f"{path.name}: normal CI bounds", bounds, want)
        else:
            report.fail(f"{path.name}: bootstrap lo > hi", ~(bounds[:, 0] <= bounds[:, 1]))
            if rep["ci"].get("bootstrap_samples") is None:
                report.fail(f"{path.name}: bootstrap sample count missing")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        report.fail(f"{path.name}: unreadable report ({exc!r})")


def check_murphy(report: Report, prefix: Path, spec: dict, x_a, x_b, y, grid: int) -> None:
    path = prefix.with_name(prefix.name + ".murphy.csv")
    if not path.is_file():
        report.fail(f"missing {path.name}")
        return
    header, theta, vals = read_table(path)
    if header != ["theta", "A_mean", "B_mean"] or vals.shape[0] != grid:
        report.fail(f"{path.name}: header {header}, {vals.shape[0]} rows")
        return
    thresholds = murphy_grid(np.concatenate([x_a, x_b]), np.concatenate([y, y]), grid)
    report.close(f"{path.name}: thresholds", np.array(theta, dtype=float), thresholds)
    for col, x in enumerate((x_a, x_b)):
        want = murphy_means(spec, x, y, thresholds)
        report.close(f"{path.name}: column {header[col + 1]}", vals[:, col], want)
        report.fail(f"{path.name}: negative mean", vals[:, col] < 0)
    meta = prefix.with_name(prefix.name + ".murphy.json")
    if not meta.is_file():
        report.fail(f"missing {meta.name}")
