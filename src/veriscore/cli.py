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
keys are the subcommand's long flag names (underscores for dashes).
A config value goes through its flag's own type and choices, a key
that is not a flag of the subcommand is an error, and a flag given on
the command line overrides the config.  ``score`` and ``compare`` take
``--generator`` (identity_g, quadratic_phi, scaled_quadratic_phi) when
the default generator for the functional is not wanted.

Outputs go to ``--out`` as a path prefix; each subcommand appends its
own suffixes (for example ``run1`` becomes ``run1.cases.csv`` and
``run1.summary.json``).  Per-case values and the statistics computed
from them carry 12 significant digits (echoed settings keep full
precision); summaries are computed from the rounded per-case values,
so re-deriving a summary from a written cases file reproduces it exactly.
A short human-readable summary is printed to stdout; the means it
prints are the summary's means, to two decimals.

Exit codes: 0 on success, 2 for invalid inputs or configuration, 3
when numerical integration cannot reach its accuracy target or a score
is not finite (no output file is written then).
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path

import numpy as np

from .elementary import murphy_curve, write_murphy_csv, write_murphy_meta
from .ensemble import crps, read_ensemble_csv
from .errors import NumericError, ValidationError
from .evaluation import (
    STREAMS,
    SyntheticConfig,
    case_scores,
    compare,
    generate_synthetic,
    require_finite,
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


def _int(value) -> int:
    """int() that does not truncate: "3" and 3.0 give 3, 2.5 is an error."""
    number = int(value)
    if not isinstance(value, str) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


_int.__name__ = "int"  # argparse names the type in its messages


def _merge_config(args, cfg: dict) -> None:
    """Give each flag left unset its config value, through the flag's own type."""
    for key, value in cfg.items():
        action = args.flags.get(key)
        where = f"config key {key!r} for {args.command}"
        if action is None:
            raise ValidationError(
                f"unknown {where}; expected one of {sorted(args.flags)}"
            )
        if isinstance(value, bool):  # no flag is boolean
            raise ValidationError(f"{where}: invalid value {value!r}")
        if value is None or getattr(args, key) is not None:
            continue  # a given flag overrides the config
        if action.nargs == "+" and isinstance(value, str):
            value = [value]
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"{where}: invalid value {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ValidationError(
                f"{where}: invalid choice {value!r} "
                f"(choose from {list(action.choices)})"
            )
        setattr(args, key, value)


def _require(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValidationError(
            f"--{name.replace('_', '-')} is required (flag or config key)"
        )
    return value


def _given(args, *names) -> dict:
    """The values a flag or the config set; the library's defaults fill the rest."""
    values = {name: getattr(args, name) for name in names}
    return {name: value for name, value in values.items() if value is not None}


def _build_spec(args) -> ScoringSpec:
    functional = _require(args, "functional")
    generator = _GENERATORS[args.generator or _DEFAULT_GENERATOR[functional]]
    return ScoringSpec(functional, generator(), alpha=args.alpha, nu=args.nu)


def _load_partition(args):
    return None if args.partition is None else load_partition_config(args.partition)


def _parse_labels(value) -> tuple[str, str]:
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
    print(f"{len(ids)} cases, mean score {total:.2f}")
    if comps is not None:
        print("  ".join(f"component {j}: {c:.2f}" for j, c in enumerate(components)))
    print(f"wrote {out}.cases.csv and {out}.summary.json")
    return 0


def _write_report(report, path: str) -> int:
    """Write a report's JSON, then print its summary."""
    write_json(report.to_dict(), path)
    for line in report.summary_lines():
        print(line)
    print(f"wrote {path}")
    return 0


def _cmd_score(args) -> int:
    spec = _build_spec(args)
    partition = _load_partition(args)
    cases = read_cases_csv(_require(args, "input"))
    out = _require(args, "out")
    totals, comps = case_scores(spec, cases, partition)
    return _write_scores(out, cases.ids, spec.describe(), partition, totals, comps)


def _cmd_compare(args) -> int:
    spec = _build_spec(args)
    partition = _load_partition(args)
    cases_a, cases_b = read_paired_csv(_require(args, "input"))
    out = _require(args, "out")
    options = _given(args, "labels", "ci", "bootstrap_samples", "seed")
    report = compare(cases_a, cases_b, spec, partition, **options)
    return _write_report(report, f"{out}.report.json")


def _cmd_murphy(args) -> int:
    functional = _require(args, "functional")
    out = _require(args, "out")
    if (args.input is None) == (args.inputs is None):
        raise ValidationError("pass exactly one of --input (paired) or --inputs")
    if args.inputs is not None and args.labels is not None:
        raise ValidationError(
            "--labels names the systems of --input; --inputs takes its names "
            "from the file names"
        )
    if args.input is not None:
        named = zip(args.labels or ("A", "B"), read_paired_csv(args.input))
    else:
        named = [(Path(p).stem, read_cases_csv(p)) for p in args.inputs]
    systems = [(name, (c.forecasts, c.observations)) for name, c in named]
    curve = murphy_curve(
        systems, functional, alpha=args.alpha, nu=args.nu, grid=args.grid
    )
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


def _cmd_crps(args) -> int:
    partition = _load_partition(args)
    ensembles = read_ensemble_csv(_require(args, "input"))
    out = _require(args, "out")
    # an overflow shows as a score that require_finite names, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        totals, comps = crps(ensembles, ensembles.observations, partition)
    require_finite(ensembles.ids, totals, comps)
    return _write_scores(out, ensembles.ids, {"kind": "crps"}, partition, totals, comps)


def _cmd_synth(args) -> int:
    fields = [f.name for f in dataclasses.fields(SyntheticConfig)]
    config = SyntheticConfig(**_given(args, *fields))
    out = _require(args, "out")
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


def _cmd_hedge(args) -> int:
    report = simulate_hedging(
        _require(args, "option"),
        **_given(
            args, "n", "seed", "threshold", "mu_mean", "mu_sd", "log_sd", "rival_sd"
        ),
    )
    return _write_report(report, f"{_require(args, 'out')}.hedge.json")


def _cmd_validate_partition(args) -> int:
    path = _require(args, "partition")
    try:
        report = load_partition_config(path).report
    except ValidationError as exc:
        if exc.report is None:
            raise
        report = exc.report
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veriscore",
        description="Score, decompose, and compare point forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, *flags):
        # the flags' actions are the schema of the subcommand's config keys
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of flag values; given flags win")
        actions = [p.add_argument(flag, **kw) for flag, kw in flags]
        p.set_defaults(handler=handler, flags={a.dest: a for a in actions})

    def flag(name, help_text=None, **kw):
        return (name, dict(kw, help=help_text))

    out = flag("--out", "output path prefix")
    partition = flag("--partition", "partition-of-unity config JSON")
    spec = [
        flag("--functional", "functional being forecast", choices=list(FUNCTIONALS)),
        flag("--alpha", "quantile or expectile level in (0,1)", type=float),
        flag("--nu", "positive finite Huber cap", type=float),
    ]
    generator = flag(
        "--generator",
        "named scoring generator, if not the functional's default",
        choices=list(_GENERATORS),
    )
    seed = flag("--seed", "seed", type=_int)

    command(
        "score", _cmd_score, "score one system's forecast cases",
        out, *spec, generator, partition,
        flag("--input", "cases CSV (case_id, forecast, obs)"),
    )
    command(
        "compare", _cmd_compare, "paired comparison of two systems",
        out, *spec, generator, partition,
        flag("--input", "paired CSV (case_id, forecast_a, forecast_b, obs)"),
        flag("--ci", "interval method", choices=["normal", "bootstrap"]),
        flag("--bootstrap-samples", "bootstrap resample count", type=_int),
        flag("--seed", "seed for the bootstrap stream", type=_int),
        flag("--labels", "two comma-separated system names (default A,B)",
             type=_parse_labels),
    )
    command(
        "murphy", _cmd_murphy, "mean elementary score curves",
        out, *spec,
        flag("--input", "paired CSV for two systems"),
        flag("--inputs", "one cases CSV per system (names from filenames)",
             nargs="+"),
        flag("--labels", "system names for --input (default A,B)",
             type=_parse_labels),
        flag("--grid", "threshold grid: point count N or lo,hi,n", type=_parse_grid),
    )
    command(
        "crps", _cmd_crps, "CRPS of ensemble forecasts",
        out, partition, flag("--input", "ensemble CSV (case_id, obs, m1..mk)"),
    )
    command(
        "synth", _cmd_synth, "draw the synthetic two-system experiment",
        out, flag("--n", "number of cases", type=_int), seed,
        *(flag(f"--{name}", type=float) for name in (
            "clim-mean", "clim-sd", "err-b-sd", "err-a-center", "err-a-base"
        )),
    )
    command(
        "hedge", _cmd_hedge, "event-selection hedging simulation",
        out, flag("--option", "assessment rule 1..5", type=_int),
        flag("--n", "number of events", type=_int), seed,
        flag("--threshold", "event threshold", type=float),
        *(flag(f"--{name}", type=float) for name in (
            "mu-mean", "mu-sd", "log-sd", "rival-sd"
        )),
    )
    command(
        "validate-partition", _cmd_validate_partition,
        "check a partition config sums to one", partition,
    )
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -5,40,17`` into ``--flag=-5,40,17``.

    argparse reads a value that starts with '-' and is not a plain
    number, such as a grid with a negative lower end, as the next flag.
    No flag here starts with '-' and a digit, so such a value belongs to
    the flag before it.
    """
    out = []
    for arg in argv:
        if out and re.match(r"-\.?\d", arg) and re.fullmatch(r"--[\w-]+", out[-1]):
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_attach_negative_values(argv))
        if args.config is not None:
            _merge_config(args, read_json(args.config))
        return args.handler(args)
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
