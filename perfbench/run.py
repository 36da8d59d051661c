"""End-to-end benchmark of the veriscore command line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cases-1e5 --seed 0 --seconds 30 --trace 0

The program under test is the checkout's ``src/`` tree, run as a user
runs it: one fresh interpreter per subcommand (``python -m veriscore.cli``),
start-up included, single-threaded, one invocation after another.  Inputs
are generated from ``--seed`` by ``inputs.py`` outside the timed region.

``--trace 0`` times untraced repetitions of the workload and prints the
end-to-end metrics.  ``--trace 1`` adds one traced run, a single child
process (``trace_child.py``) that replays the same invocations in-process
with spans around the calls into each package module, and prints the
per-layer metrics.  Every invocation's outputs go through ``check.py``;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import check
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

RUN_LIMIT_S = 170.0  # every run must finish well inside 180 s
SETUP_REPEATS = 3
P4, NZ = "partition4.json", "normalized.json"
EXPECTILE = {"functional": "expectile", "alpha": 0.5}
QUANTILE_90 = {"functional": "quantile", "alpha": 0.9}
HUBER_5 = {"functional": "huber_mean", "nu": 5.0}


def _spec_flags(spec: dict) -> list[str]:
    flags = ["--functional", spec["functional"]]
    if "alpha" in spec:
        flags += ["--alpha", repr(spec["alpha"])]
    if "nu" in spec:
        flags += ["--nu", repr(spec["nu"])]
    return flags


def _invocation(out: str, command: str, source: str, cases: int, check_spec: dict,
                *flags: str) -> dict:
    argv = [command, *flags, "--input", f"in/{source}", "--out", f"out/{out}"]
    return {"out": out, "argv": argv, "cases": cases,
            "check": dict(check_spec, input=source)}


def _workloads() -> dict:
    """Workload name -> inputs, partition and invocations (see BENCHMARK.json)."""
    n, n_ens, n_quad = 100_000, 20_000, 2_000
    return {
        "cases-1e5": {
            "inputs": ["cases.csv", "paired.csv"],
            "partition": P4,
            "invocations": [
                _invocation("score", "score", "cases.csv", n,
                            {"kind": "cases", "spec": EXPECTILE, "weights": "rect"},
                            *_spec_flags(EXPECTILE), "--partition", f"in/{P4}"),
                _invocation("cmp", "compare", "paired.csv", 2 * n,
                            {"kind": "compare", "spec": QUANTILE_90, "ci": "normal"},
                            *_spec_flags(QUANTILE_90), "--partition", f"in/{P4}",
                            "--ci", "normal"),
                _invocation("murphy", "murphy", "paired.csv", 2 * n,
                            {"kind": "murphy", "spec": EXPECTILE, "grid": 501},
                            *_spec_flags(EXPECTILE), "--grid", "501"),
            ],
        },
        "bootstrap-1e5": {
            "inputs": ["paired.csv"],
            "partition": P4,
            "invocations": [
                _invocation("boot", "compare", "paired.csv", 2 * n,
                            {"kind": "compare", "spec": EXPECTILE, "ci": "bootstrap"},
                            *_spec_flags(EXPECTILE), "--partition", f"in/{P4}",
                            "--ci", "bootstrap", "--bootstrap-samples", "1000",
                            "--seed", "0"),
            ],
        },
        "ensemble-2e4x50": {
            "inputs": ["ensemble.csv"],
            "partition": P4,
            "invocations": [
                _invocation("crps", "crps", "ensemble.csv", n_ens, {"kind": "crps"},
                            "--partition", f"in/{P4}"),
            ],
        },
        "quadrature-2e3": {
            "inputs": ["cases2k.csv"],
            "partition": NZ,
            "invocations": [
                _invocation("quad-expectile", "score", "cases2k.csv", n_quad,
                            {"kind": "cases", "spec": EXPECTILE, "weights": "arctan"},
                            *_spec_flags(EXPECTILE), "--partition", f"in/{NZ}"),
                _invocation("quad-huber", "score", "cases2k.csv", n_quad,
                            {"kind": "cases", "spec": HUBER_5, "weights": "arctan"},
                            *_spec_flags(HUBER_5), "--partition", f"in/{NZ}"),
            ],
        },
    }


WORKLOADS = _workloads()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts children in the work directory and keeps the run's deadline."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.deadline = started + RUN_LIMIT_S
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def spawn(self, argv: list[str], log: str):
        """Run one child to completion: (wall s, peak RSS MB, exit code, start)."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise TimeoutError("run time limit reached")
        with open(self.workdir / f"{log}.log", "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, start

    def cli(self, argv: list[str], log: str):
        return self.spawn([sys.executable, "-m", "veriscore.cli", *argv], log)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


# --- checking ----------------------------------------------------------------


class Inputs:
    """Parsed input files, read once per run for the reference values."""

    def __init__(self, directory: Path):
        self.directory = directory
        self._cache = {}

    def __getitem__(self, name: str):
        if name not in self._cache:
            self._cache[name] = check.read_table(self.directory / name)
        return self._cache[name]


def check_invocation(inv: dict, data: Inputs, outdir: Path) -> check.Report:
    report = check.Report()
    try:
        _check_outputs(report, inv, data, outdir / inv["out"])
    except (OSError, ValueError, IndexError) as exc:
        report.fail(f"{inv['out']}: unreadable output ({exc!r})")
    return report


def _check_outputs(report: check.Report, inv: dict, data: Inputs, prefix: Path) -> None:
    spec = inv["check"]
    _, ids, vals = data[spec["input"]]
    kind = spec["kind"]
    if kind == "cases":
        x, y = vals[:, 0], vals[:, 1]
        if spec["weights"] == "rect":
            comps = check.rect_components(spec["spec"], x, y, inputs.CUTPOINTS)
            cuts = inputs.CUTPOINTS
        else:
            comps = check.smooth_components(
                spec["spec"], x, y, check.arctan_weights(inputs.RAMP_CENTER))
            cuts = None
        want = check.totals(spec["spec"], x, y)
        hull = (np.minimum(x, y), np.maximum(x, y))
        got = check.check_cases_file(report, prefix.with_name(prefix.name + ".cases.csv"),
                                     ids, want, comps, hull, cuts)
        if got is not None:
            check.check_summary(report, prefix.with_name(prefix.name + ".summary.json"),
                                want, comps)
    elif kind == "compare":
        check.check_compare(report, prefix.with_name(prefix.name + ".report.json"),
                            spec["spec"], vals[:, 0], vals[:, 1], vals[:, 2],
                            inputs.CUTPOINTS, spec["ci"])
    elif kind == "murphy":
        check.check_murphy(report, prefix, spec["spec"], vals[:, 0], vals[:, 1],
                           vals[:, 2], spec["grid"])
    elif kind == "crps":
        obs, members = vals[:, 0], vals[:, 1:]
        comps = check.crps_components(obs, members, inputs.CUTPOINTS)
        hull = (np.minimum(members.min(axis=1), obs), np.maximum(members.max(axis=1), obs))
        got = check.check_cases_file(report, prefix.with_name(prefix.name + ".cases.csv"),
                                     ids, comps.sum(axis=0), comps, hull, inputs.CUTPOINTS)
        if got is not None:
            check.check_summary(report, prefix.with_name(prefix.name + ".summary.json"),
                                comps.sum(axis=0), comps)


def output_digests(outdir: Path, inv: dict) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.glob(inv["out"] + ".*"))
    }


class Verifier:
    """Checks outputs; byte-identical repeats of a checked output reuse its verdict."""

    def __init__(self, runner: Runner, data: Inputs):
        self.runner = runner
        self.data = data
        self.verdicts = {}
        self.reports = []

    def verify(self, inv: dict, outdir: Path, rc: int, label: str) -> dict:
        digests = output_digests(outdir, inv)
        if rc != 0:
            self.runner.record(False, f"{label}: exit code {rc}")
            return digests
        key = (inv["out"], tuple(sorted(digests.items())))
        if key not in self.verdicts:
            report = check_invocation(inv, self.data, outdir)
            self.reports.append(report)
            self.verdicts[key] = report.messages
        messages = self.verdicts[key]
        self.runner.record(not messages, f"{label}: " + "; ".join(messages))
        return digests


# --- measuring ---------------------------------------------------------------


def measure_setup(runner: Runner, partition: str, repeats: int) -> list[float]:
    """Wall times of validate-partition in fresh interpreters."""
    times = []
    for k in range(repeats):
        wall, _, rc, _ = runner.cli(["validate-partition", "--partition", f"in/{partition}"],
                                    f"setup{k}")
        log = (runner.workdir / f"setup{k}.log").read_text(errors="replace")
        runner.record(rc == 0 and ": valid (" in log, f"validate-partition exit {rc}")
        times.append(wall)
    return times


def run_repetition(runner: Runner, verifier: Verifier, workload: dict) -> tuple[float, float]:
    """One untraced pass over the workload: (wall s, largest child peak RSS MB)."""
    outdir = runner.workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir()
    wall, peak, results = 0.0, 0.0, []
    for inv in workload["invocations"]:
        w, rss, rc, _ = runner.cli(inv["argv"], inv["out"])
        wall += w
        peak = max(peak, rss)
        results.append((inv, rc))
    for inv, rc in results:
        verifier.verify(inv, outdir, rc, inv["out"])
    return wall, peak


def run_untraced(runner: Runner, verifier: Verifier, workload: dict, budget: float,
                 reserve: float):
    """Repeat the workload until the next pass would overrun the budget.

    ``reserve`` counts further passes of the same length that must still
    fit afterwards (the traced pass in a traced run).
    """
    started = time.perf_counter()
    walls, peaks = [], []
    while True:
        wall, peak = run_repetition(runner, verifier, workload)
        walls.append(wall)
        peaks.append(peak)
        elapsed = time.perf_counter() - started
        if elapsed + (1.0 + reserve) * statistics.median(walls) > budget:
            return walls, peaks


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it (max if too few)."""
    n = len(samples)
    if n < 11:
        return "max", max(samples)
    pct = math.floor(100 * (n - 10) / n)
    return f"p{pct}", float(np.percentile(samples, pct))


# --- traced run ----------------------------------------------------------------


def load_reference(workload: str, seed: int, input_record: dict):
    """Output digests recorded for these exact inputs, or None."""
    try:
        entry = json.loads(REFERENCE.read_text())[workload][str(seed)]
    except (OSError, ValueError, KeyError):
        return None
    wanted = {k: v["sha256"] for k, v in input_record.items()}
    return entry["outputs"] if entry["inputs"] == wanted else None


def self_times(spans: list) -> list[float]:
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(trace: dict, t_spawn: float) -> dict:
    spans = trace["spans"]
    selfs = self_times(spans)
    wall = trace["end"] - t_spawn
    m = {
        "import.cli_s": trace["imported"] - t_spawn,
        "io.read_s": 0.0, "io.rows_read": 0, "io.write_s": 0.0, "io.rows_written": 0,
        "io.round_s": 0.0, "partition.load_s": 0.0, "scoring.score_s": 0.0,
        "decomposition.closed_s": 0.0, "decomposition.closed_case_regions": 0,
        "decomposition.quad_s": 0.0, "decomposition.quad_case_regions": 0,
        "evaluation.compare_s": 0.0, "evaluation.case_scores_s": 0.0,
        "evaluation.bootstrap_resamples": 0, "evaluation.peak_traced_mb": 0.0,
        "elementary.murphy_s": 0.0, "elementary.murphy_cells": 0,
        "elementary.peak_traced_mb": 0.0, "elementary.write_s": 0.0,
        "crps.read_s": 0.0, "crps.total_s": 0.0, "crps.components_s": 0.0, "crps.cases": 0,
        "cli.self_s": wall - trace["imported"] + t_spawn,
    }
    simple = {
        "io.read": "io.read_s", "io.write": "io.write_s", "io.round": "io.round_s",
        "partition.load": "partition.load_s", "scoring.score": "scoring.score_s",
        "evaluation.compare": "evaluation.compare_s",
        "evaluation.case_scores": "evaluation.case_scores_s",
        "elementary.murphy": "elementary.murphy_s", "elementary.write": "elementary.write_s",
        "crps.read": "crps.read_s", "crps.total": "crps.total_s",
        "crps.components": "crps.components_s",
    }
    for (name, start, end, parent, attrs), own in zip(spans, selfs):
        if name == "cli.main":
            m["cli.self_s"] -= (end - start) - own
        elif name == "decomposition.components":
            path = "closed" if attrs["closed"] else "quad"
            m[f"decomposition.{path}_s"] += own
            m[f"decomposition.{path}_case_regions"] += attrs["case_regions"]
        else:
            m[simple[name]] += own
        if name == "io.read":
            m["io.rows_read"] += attrs.get("rows", 0)
        elif name == "io.write":
            m["io.rows_written"] += attrs.get("rows", 0)
        elif name == "evaluation.compare":
            m["evaluation.bootstrap_resamples"] += attrs["resamples"]
            m["evaluation.peak_traced_mb"] = max(m["evaluation.peak_traced_mb"],
                                                 attrs["peak_bytes"] / 2**20)
        elif name == "elementary.murphy":
            m["elementary.murphy_cells"] += attrs["cells"]
            m["elementary.peak_traced_mb"] = max(m["elementary.peak_traced_mb"],
                                                 attrs["peak_bytes"] / 2**20)
        elif name == "crps.read":
            m["crps.cases"] += attrs.get("rows", 0)
    regions = m["decomposition.quad_case_regions"]
    m["decomposition.quad_us_per_case_region"] = (
        1e6 * m["decomposition.quad_s"] / regions if regions else 0.0)
    accounted = sum(v for k, v in m.items() if k.endswith("_s"))
    if abs(accounted - wall) > 1e-6 * max(1.0, wall):
        raise RuntimeError(f"layer self times sum to {accounted} s, traced wall {wall} s")
    m["trace.wall_s"] = wall
    m["trace.spans"] = len(spans)
    return m


def run_traced(runner: Runner, verifier: Verifier, workload: dict, name: str, seed: int,
               input_record: dict, untraced_median: float) -> tuple[dict, dict]:
    outdir = runner.workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir()
    spec_path = runner.workdir / "trace_spec.json"
    trace_path = runner.workdir / "trace.json"
    spec_path.write_text(json.dumps({
        "invocations": [inv["argv"] for inv in workload["invocations"]],
        "result": str(trace_path),
    }))
    _, _, rc, t_spawn = runner.spawn(
        [sys.executable, str(HERE / "trace_child.py"), str(spec_path)], "trace")
    if rc != 0:
        raise RuntimeError(f"traced child exited with {rc}; see {runner.workdir}/trace.log")
    trace = json.loads(trace_path.read_text())
    metrics = layer_metrics(trace, t_spawn)
    reference = load_reference(name, seed, input_record)
    identical = with_reference = 0
    for inv, code in zip(workload["invocations"], trace["exit_codes"]):
        digests = verifier.verify(inv, outdir, code, "traced " + inv["out"])
        if reference is not None:
            with_reference += len(digests)
            identical += sum(reference.get(f) == d for f, d in digests.items())
    residual, smallest = 0.0, math.inf
    for report in verifier.reports:
        residual = max(residual, report.max_identity_residual)
        smallest = min(smallest, report.min_component)
    metrics.update({
        "decomposition.max_identity_residual": residual,
        "decomposition.min_component": smallest if math.isfinite(smallest) else 0.0,
        "decomposition.magnitude_probe_failures": len(trace["probe_failures"]),
        "cli.outputs_byte_identical": identical,
        "cli.outputs_with_reference": with_reference,
        "trace.overhead_s": metrics["trace.wall_s"] - untraced_median,
    })
    return metrics, trace


# --- main ------------------------------------------------------------------------


def provenance() -> dict:
    """Machine, library versions and the size of the code under test."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    try:
        with open("/proc/meminfo") as fh:
            ram_kb = int(fh.readline().split()[1])
    except (OSError, ValueError, IndexError):
        ram_kb = 0
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(ram_kb / 2**20, 2),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "veriscore" / "cli.py").is_file():
        print(f"error: no package source at {SRC}/veriscore", file=sys.stderr)
        return 2
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        input_record = inputs.write_inputs(workdir / "in", args.seed, workload["inputs"])
        runner = Runner(workdir, started)
        verifier = Verifier(runner, Inputs(workdir / "in"))
        measure_from = time.perf_counter()
        # a traced run times no set-up but still fills the bytecode and file
        # caches first, as the set-up calls do for an untraced run
        setup = measure_setup(runner, workload["partition"],
                              1 if args.trace else SETUP_REPEATS)
        budget = args.seconds - (time.perf_counter() - measure_from)
        walls, peaks = run_untraced(runner, verifier, workload, budget,
                                    reserve=1.0 if args.trace else 0.0)
        cases = sum(inv["cases"] for inv in workload["invocations"])
        wall = statistics.median(walls)
        if args.trace:
            metrics, trace = run_traced(runner, verifier, workload, args.workload,
                                        args.seed, input_record, wall)
            detail = {"probe_failures": trace["probe_failures"],
                      "unwrapped": trace["unwrapped"]}
        else:
            metrics = {
                "wall_s": wall,
                "cases_per_s": cases / wall,
                "peak_rss_mb": statistics.median(peaks),
                "setup_s": statistics.median(setup),
            }
            label, value = tail(walls)
            detail = {"wall_samples": walls, f"wall_{label}_s": value,
                      "peak_rss_samples_mb": peaks, "setup_samples_s": setup}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared_metrics(bool(args.trace))
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    failed_share = runner.failed / runner.attempted
    detail.update({"workload": args.workload, "seed": args.seed, "cases": cases,
                   "failed_share": failed_share, "failures": runner.messages[:10],
                   "inputs": input_record, "machine": provenance()})
    print(json.dumps(detail))
    for name, unit in units.items():
        print(f"{name:42s} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_share':42s} {failed_share:>16.6g} ratio")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
