"""Command line interface.

Subcommands
-----------
score               score one system's cases, optionally decomposed
compare             paired comparison of two systems with a CI
murphy              mean elementary score curves over a threshold grid
crps                CRPS of ensemble forecasts, optionally decomposed
synth               draw the synthetic two-system experiment
hedge               run the event-selection hedging simulation
validate-partition  check that a partition config sums to one

Every subcommand accepts ``--config FILE`` with a JSON object whose
keys mirror the long flag names (underscores for dashes); explicit
flags override config values.  The config key ``generator`` selects a
named scoring generator (identity_g, quadratic_phi,
scaled_quadratic_phi) when the default for the functional is not
wanted.

Outputs go to ``--out`` as a path prefix; each subcommand appends its
own suffixes (for example ``run1`` becomes ``run1.cases.csv`` and
``run1.summary.json``).  Numbers in files carry 12 significant
digits; summaries are computed from the rounded per-case values, so
re-deriving a summary from a written cases file reproduces it exactly.
A short human-readable summary is printed to stdout.

Exit codes: 0 on success, 2 for invalid inputs or configuration, 3
when numerical integration cannot reach its accuracy target.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .elementary import murphy_curve, write_murphy_csv, write_murphy_meta
from .ensemble import crps, crps_components, read_ensemble_csv
from .errors import NumericError, ValidationError
from .evaluation import (
    STREAMS,
    SyntheticConfig,
    case_scores,
    compare,
    generate_synthetic,
    simulate_hedging,
)
from .io import (
    read_cases_csv,
    read_json,
    read_paired_csv,
    write_json,
    write_paired_csv,
    write_scores_csv,
)
from .partition import load_partition_config, partition_config
from .scoring import FUNCTIONALS, GeneratorSpec, ScoringSpec

__all__ = ["main"]

_GENERATORS = {
    "identity_g": GeneratorSpec.identity_g,
    "quadratic_phi": GeneratorSpec.quadratic_phi,
    "scaled_quadratic_phi": GeneratorSpec.scaled_quadratic_phi,
}
_DEFAULT_GENERATOR = {
    "quantile": "identity_g",
    "expectile": "scaled_quadratic_phi",
    "huber_mean": "quadratic_phi",
}


def _get(args, cfg: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return cfg.get(key, default)


def _get_float(args, cfg, key, default=None):
    value = _get(args, cfg, key, default)
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{key} must be a number, got {value!r}") from None


def _get_int(args, cfg, key, default=None):
    value = _get(args, cfg, key, default)
    if value is None:
        return None
    if isinstance(value, float) and value != int(value):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{key} must be an integer, got {value!r}") from None


def _given(**values) -> dict:
    """The values a flag or the config set; the library's defaults fill the rest."""
    return {key: value for key, value in values.items() if value is not None}


def _require(value, flag: str):
    if value is None:
        raise ValidationError(
            f"--{flag.replace('_', '-')} is required (flag or config key)"
        )
    return value


def _build_spec(functional, alpha, nu, generator=None) -> ScoringSpec:
    functional = _require(functional, "functional")
    if functional not in FUNCTIONALS:
        raise ValidationError(
            f"unknown functional {functional!r}, expected one of {FUNCTIONALS}"
        )
    kind = generator if generator is not None else _DEFAULT_GENERATOR[functional]
    if kind not in _GENERATORS:
        raise ValidationError(
            f"unknown generator {kind!r}, expected one of {sorted(_GENERATORS)}"
        )
    return ScoringSpec(functional, _GENERATORS[kind](), alpha=alpha, nu=nu)


def _load_partition(args, cfg):
    path = _get(args, cfg, "partition")
    if path is None:
        return None
    return load_partition_config(path)


def _parse_labels(value) -> tuple[str, str]:
    if value is None:
        return ("A", "B")
    if isinstance(value, (list, tuple)):
        parts = [str(p).strip() for p in value]
    else:
        parts = [p.strip() for p in str(value).split(",")]
    if len(parts) != 2 or not all(parts):
        raise ValidationError(
            f"labels must be two comma-separated names, got {value!r}"
        )
    return (parts[0], parts[1])


def _parse_grid(value):
    if value is None:
        return None
    if isinstance(value, bool):
        raise ValidationError(f"grid must be N or lo,hi,n, got {value!r}")
    if isinstance(value, (int, float)):
        if float(value) != int(value):
            raise ValidationError(f"grid point count must be an integer, got {value}")
        return int(value)
    if isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        parts = [p.strip() for p in str(value).split(",")]
    try:
        if len(parts) == 1:
            return int(str(parts[0]))
        if len(parts) == 3:
            return (float(parts[0]), float(parts[1]), int(str(parts[2])))
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"grid must be N or lo,hi,n, got {value!r}")


def _write_scores(out, ids, score_echo, partition, totals, comps) -> int:
    """Write the cases CSV and the summary JSON, then print the summary."""
    columns = {"total": totals}
    if comps is not None:
        columns.update((f"component_{j}", c) for j, c in enumerate(comps))
    total, *components = write_scores_csv(f"{out}.cases.csv", ids, columns).values()
    summary = {
        "n": len(ids),
        "score": score_echo,
        "partition": None if partition is None else partition_config(partition),
        "mean": {"total": total, "components": None if comps is None else components},
    }
    write_json(summary, f"{out}.summary.json")
    print(f"{len(ids)} cases, mean score {float(np.mean(totals)):.2f}")
    if comps is not None:
        print(
            "  ".join(
                f"component {j}: {float(np.mean(c)):.2f}" for j, c in enumerate(comps)
            )
        )
    print(f"wrote {out}.cases.csv and {out}.summary.json")
    return 0


def _cmd_score(args, cfg) -> int:
    spec = _build_spec(
        _get(args, cfg, "functional"),
        _get_float(args, cfg, "alpha"),
        _get_float(args, cfg, "nu"),
        cfg.get("generator"),
    )
    partition = _load_partition(args, cfg)
    cases = read_cases_csv(_require(_get(args, cfg, "input"), "input"))
    out = _require(_get(args, cfg, "out"), "out")
    totals, comps = case_scores(spec, cases, partition)
    return _write_scores(out, cases.ids, spec.describe(), partition, totals, comps)


def _cmd_compare(args, cfg) -> int:
    spec = _build_spec(
        _get(args, cfg, "functional"),
        _get_float(args, cfg, "alpha"),
        _get_float(args, cfg, "nu"),
        cfg.get("generator"),
    )
    partition = _load_partition(args, cfg)
    cases_a, cases_b = read_paired_csv(_require(_get(args, cfg, "input"), "input"))
    out = _require(_get(args, cfg, "out"), "out")
    report = compare(
        cases_a,
        cases_b,
        spec,
        partition,
        labels=_parse_labels(_get(args, cfg, "labels")),
        **_given(
            ci=_get(args, cfg, "ci"),
            bootstrap_samples=_get_int(args, cfg, "bootstrap_samples"),
            seed=_get_int(args, cfg, "seed"),
        ),
    )
    write_json(report.to_dict(), f"{out}.report.json")
    for line in report.summary_lines():
        print(line)
    print(f"wrote {out}.report.json")
    return 0


def _cmd_murphy(args, cfg) -> int:
    functional = _require(_get(args, cfg, "functional"), "functional")
    alpha = _get_float(args, cfg, "alpha")
    nu = _get_float(args, cfg, "nu")
    grid = _parse_grid(_get(args, cfg, "grid"))
    out = _require(_get(args, cfg, "out"), "out")
    input_path = _get(args, cfg, "input")
    inputs = _get(args, cfg, "inputs")
    if (input_path is None) == (inputs is None):
        raise ValidationError("pass exactly one of --input (paired) or --inputs")
    if input_path is not None:
        label_a, label_b = _parse_labels(_get(args, cfg, "labels"))
        cases_a, cases_b = read_paired_csv(input_path)
        systems = [
            (label_a, (cases_a.forecasts, cases_a.observations)),
            (label_b, (cases_b.forecasts, cases_b.observations)),
        ]
    else:
        if isinstance(inputs, str):
            inputs = [inputs]
        systems = []
        for p in inputs:
            cases = read_cases_csv(p)
            systems.append((Path(p).stem, (cases.forecasts, cases.observations)))
    curve = murphy_curve(systems, functional, alpha=alpha, nu=nu, grid=grid)
    write_murphy_csv(curve, f"{out}.murphy.csv")
    write_murphy_meta(curve, f"{out}.murphy.json")
    print(
        f"murphy curve: {len(curve.thresholds)} thresholds in "
        f"[{curve.thresholds[0]:.2f}, {curve.thresholds[-1]:.2f}]"
    )
    for i, name in enumerate(curve.names):
        print(f"  {name}: grid-average elementary score {curve.means[i].mean():.2f}")
    print(f"wrote {out}.murphy.csv and {out}.murphy.json")
    return 0


def _cmd_crps(args, cfg) -> int:
    partition = _load_partition(args, cfg)
    ensembles = read_ensemble_csv(_require(_get(args, cfg, "input"), "input"))
    out = _require(_get(args, cfg, "out"), "out")
    y = ensembles.observations
    totals = crps(ensembles, y)
    comps = None if partition is None else crps_components(ensembles, y, partition)
    return _write_scores(out, ensembles.ids, {"kind": "crps"}, partition, totals, comps)


def _cmd_synth(args, cfg) -> int:
    config = SyntheticConfig(
        **_given(
            n=_get_int(args, cfg, "n"),
            seed=_get_int(args, cfg, "seed"),
            clim_mean=_get_float(args, cfg, "clim_mean"),
            clim_sd=_get_float(args, cfg, "clim_sd"),
            err_b_sd=_get_float(args, cfg, "err_b_sd"),
            err_a_center=_get_float(args, cfg, "err_a_center"),
            err_a_base=_get_float(args, cfg, "err_a_base"),
        )
    )
    out = _require(_get(args, cfg, "out"), "out")
    cases_a, cases_b = generate_synthetic(config)
    write_paired_csv(cases_a, cases_b, f"{out}.cases.csv")
    meta = {
        **dataclasses.asdict(config),
        "labels": ["A", "B"],
        "streams": STREAMS["synthetic"],
    }
    write_json(meta, f"{out}.meta.json")
    print(
        f"drew {config.n} paired cases (seed {config.seed}); "
        f"wrote {out}.cases.csv and {out}.meta.json"
    )
    return 0


def _cmd_hedge(args, cfg) -> int:
    report = simulate_hedging(
        _require(_get_int(args, cfg, "option"), "option"),
        **_given(
            n=_get_int(args, cfg, "n"),
            seed=_get_int(args, cfg, "seed"),
            threshold=_get_float(args, cfg, "threshold"),
            mu_mean=_get_float(args, cfg, "mu_mean"),
            mu_sd=_get_float(args, cfg, "mu_sd"),
            log_sd=_get_float(args, cfg, "log_sd"),
            rival_sd=_get_float(args, cfg, "rival_sd"),
        ),
    )
    out = _require(_get(args, cfg, "out"), "out")
    write_json(report.to_dict(), f"{out}.hedge.json")
    for line in report.summary_lines():
        print(line)
    print(f"wrote {out}.hedge.json")
    return 0


def _cmd_validate_partition(args, cfg) -> int:
    path = _require(_get(args, cfg, "partition"), "partition")
    partition = load_partition_config(path, validate=False)
    report = partition.validate()
    status = "valid" if report.passed else "INVALID"
    print(
        f"{path}: {status} ({report.n_weights} weights, "
        f"{report.n_probe} probe points, tolerance {report.tolerance:g})"
    )
    print(
        f"max deviation of the weight sum from 1: {report.max_sum_error:.3e} "
        f"at t = {report.worst_point:.6g}"
    )
    for msg in report.messages:
        print(f"  {msg}")
    return 0 if report.passed else 2


def _add_config_out(p, out=True):
    p.add_argument("--config", help="JSON file with defaults for these flags")
    if out:
        p.add_argument("--out", help="output path prefix")


def _add_spec_flags(p):
    p.add_argument(
        "--functional", choices=list(FUNCTIONALS), help="functional being forecast"
    )
    p.add_argument("--alpha", type=float, help="quantile or expectile level in (0,1)")
    p.add_argument("--nu", type=float, help="positive Huber cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veriscore",
        description="Score, decompose, and compare point forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score one system's forecast cases")
    _add_config_out(p)
    _add_spec_flags(p)
    p.add_argument("--input", help="cases CSV (case_id, forecast, obs)")
    p.add_argument("--partition", help="partition-of-unity config JSON")
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("compare", help="paired comparison of two systems")
    _add_config_out(p)
    _add_spec_flags(p)
    p.add_argument(
        "--input", help="paired CSV (case_id, forecast_a, forecast_b, obs)"
    )
    p.add_argument("--partition", help="partition-of-unity config JSON")
    p.add_argument("--ci", choices=["normal", "bootstrap"], help="interval method")
    p.add_argument(
        "--bootstrap-samples",
        dest="bootstrap_samples",
        type=int,
        help="bootstrap resample count",
    )
    p.add_argument("--seed", type=int, help="seed for the bootstrap stream")
    p.add_argument("--labels", help="two comma-separated system names (default A,B)")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("murphy", help="mean elementary score curves")
    _add_config_out(p)
    _add_spec_flags(p)
    p.add_argument("--input", help="paired CSV for two systems")
    p.add_argument(
        "--inputs", nargs="+", help="one cases CSV per system (names from filenames)"
    )
    p.add_argument("--labels", help="system names for --input (default A,B)")
    p.add_argument("--grid", help="threshold grid: point count N or lo,hi,n")
    p.set_defaults(handler=_cmd_murphy)

    p = sub.add_parser("crps", help="CRPS of ensemble forecasts")
    _add_config_out(p)
    p.add_argument("--input", help="ensemble CSV (case_id, obs, m1..mk)")
    p.add_argument("--partition", help="partition-of-unity config JSON")
    p.set_defaults(handler=_cmd_crps)

    p = sub.add_parser("synth", help="draw the synthetic two-system experiment")
    _add_config_out(p)
    p.add_argument("--n", type=int, help="number of cases")
    p.add_argument("--seed", type=int, help="seed")
    p.add_argument("--clim-mean", dest="clim_mean", type=float)
    p.add_argument("--clim-sd", dest="clim_sd", type=float)
    p.add_argument("--err-b-sd", dest="err_b_sd", type=float)
    p.add_argument("--err-a-center", dest="err_a_center", type=float)
    p.add_argument("--err-a-base", dest="err_a_base", type=float)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("hedge", help="event-selection hedging simulation")
    _add_config_out(p)
    p.add_argument("--option", type=int, help="assessment rule 1..5")
    p.add_argument("--n", type=int, help="number of events")
    p.add_argument("--seed", type=int, help="seed")
    p.add_argument("--threshold", type=float, help="event threshold")
    p.add_argument("--mu-mean", dest="mu_mean", type=float)
    p.add_argument("--mu-sd", dest="mu_sd", type=float)
    p.add_argument("--log-sd", dest="log_sd", type=float)
    p.add_argument("--rival-sd", dest="rival_sd", type=float)
    p.set_defaults(handler=_cmd_hedge)

    p = sub.add_parser(
        "validate-partition", help="check a partition config sums to one"
    )
    _add_config_out(p, out=False)
    p.add_argument("--partition", help="partition-of-unity config JSON")
    p.set_defaults(handler=_cmd_validate_partition)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = {} if args.config is None else read_json(args.config)
        return args.handler(args, cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
