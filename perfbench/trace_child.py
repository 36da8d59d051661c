"""Traced replay of one workload in a single interpreter.

Run by ``run.py --trace 1`` as ``python trace_child.py SPEC.json``.  The
child times ``import veriscore.cli``, then wraps the package's public
functions where their callers look them up (the modules use
from-imports, so ``veriscore.cli.read_cases_csv`` is wrapped, not only
``veriscore.io.read_cases_csv``), and calls ``veriscore.cli.main(argv)``
once per invocation.  Each call becomes a span [name, start, end,
parent index, attributes]; spans stay in memory until the run ends.
``tracemalloc`` runs only inside ``compare`` and ``murphy_curve``.

After the timed part, a magnitude probe scores x = y + 1 at
|y| in {1e3, 1e6, 1e9, 1e12} through the public API and lists the
(spec, |y|) pairs that break the identity, nonnegativity or the exact
total.  All timestamps are ``time.perf_counter()`` values, which share
one clock with the parent process.
"""

import sys
import time

T_START = time.perf_counter()

import veriscore.cli  # noqa: E402

T_IMPORTED = time.perf_counter()

import json  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import veriscore.evaluation  # noqa: E402

import check  # noqa: E402  (this script's directory is on sys.path)

SPANS = []
STACK = []


def _rows(args, kwargs, result):
    first = result[0] if isinstance(result, tuple) else result
    return {"rows": len(first)}


def _rows_written(args, kwargs, result):
    ids = args[1] if len(args) > 1 else kwargs.get("ids", ())
    return {"rows": len(ids)}


def _components(args, kwargs, result):
    regions = tuple(args[0])
    closed = all(getattr(r, "has_closed_form", False) for r in regions)
    return {"closed": closed, "case_regions": int(np.size(result))}


def _compare(args, kwargs, result):
    boot = kwargs.get("ci") == "bootstrap"
    return {"resamples": int(kwargs.get("bootstrap_samples", 0)) if boot else 0}


def _murphy(args, kwargs, result):
    cases = sum(np.size(pair[1][0]) for pair in args[0])
    return {"cells": int(result.thresholds.size * cases)}


cli, ev = veriscore.cli, veriscore.evaluation
# (module, attribute, span name, attributes from (args, kwargs, result), tracemalloc)
WRAPS = [
    (cli, "read_cases_csv", "io.read", _rows, False),
    (cli, "read_paired_csv", "io.read", _rows, False),
    (cli, "write_scores_csv", "io.write", _rows_written, False),
    (cli, "write_json", "io.write", None, False),
    (cli, "mean_of_rounded", "io.round", None, False),
    (cli, "load_partition_config", "partition.load", None, False),
    (ev, "score", "scoring.score", None, False),
    (ev, "score_components", "decomposition.components", _components, False),
    (cli, "case_scores", "evaluation.case_scores", None, False),
    (ev, "case_scores", "evaluation.case_scores", None, False),
    (cli, "compare", "evaluation.compare", _compare, True),
    (cli, "murphy_curve", "elementary.murphy", _murphy, True),
    (cli, "write_murphy_csv", "elementary.write", None, False),
    (cli, "write_murphy_meta", "elementary.write", None, False),
    (cli, "read_ensemble_csv", "crps.read", _rows, False),
    (cli, "crps", "crps.total", None, False),
    (cli, "crps_components", "crps.components", None, False),
]


def span(fn, name, attrs=None, trace_memory=False):
    clock = time.perf_counter

    def wrapped(*args, **kwargs):
        sid = len(SPANS)
        record = [name, 0.0, 0.0, STACK[-1] if STACK else None, {}]
        SPANS.append(record)
        STACK.append(sid)
        if trace_memory:
            tracemalloc.start()
        record[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = clock()
            if trace_memory:
                record[4]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            STACK.pop()
        if attrs is not None:
            record[4].update(attrs(args, kwargs, result))
        return result

    return wrapped


def install() -> list[str]:
    missing = []
    for module, attr, name, attrs, trace_memory in WRAPS:
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
            continue
        setattr(module, attr, span(fn, name, attrs, trace_memory))
    return missing


def run_invocation(argv) -> int:
    try:
        return int(span(cli.main, "cli.main")(argv) or 0)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is one failed invocation, not a lost run
        traceback.print_exc()
        return 1


def magnitude_probe() -> list[str]:
    from veriscore import (
        decompose,
        huber_loss,
        rectangular_partition,
        score,
        score_components,
        squared_error,
    )

    partition = rectangular_partition([10.0])
    failures = []
    specs = (
        ("squared_error", squared_error(), {"functional": "expectile", "alpha": 0.5}),
        ("huber_loss(5)", huber_loss(5.0), {"functional": "huber_mean", "nu": 5.0}),
    )
    for label, spec, ref_spec in specs:
        exact = float(check.totals(ref_spec, np.array([1.0]), np.array([0.0]))[0])
        for magnitude in (1e3, 1e6, 1e9, 1e12):
            y = magnitude
            x = y + 1.0
            total = float(score(spec, x, y))
            comps = np.asarray(score_components(decompose(spec, partition), x, y), dtype=float)
            bound = check.TOL * max(1.0, abs(total))
            broken = []
            if not abs(comps.sum() - total) <= bound:
                broken.append("identity")
            if np.any(comps < 0):
                broken.append("negative component")
            if not abs(total - exact) <= check.TOL * max(1.0, exact):
                broken.append("total")
            if broken:
                failures.append(
                    f"{label} at |y|={magnitude:g}: {', '.join(broken)} "
                    f"(total {total!r}, components {comps.tolist()})"
                )
    return failures


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    unwrapped = install()
    codes = [run_invocation(argv) for argv in spec["invocations"]]
    t_end = time.perf_counter()
    result = {
        "start": T_START,
        "imported": T_IMPORTED,
        "end": t_end,
        "exit_codes": codes,
        "unwrapped": unwrapped,
        "spans": SPANS,
        "probe_failures": magnitude_probe(),
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
