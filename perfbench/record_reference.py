"""Record the current source tree's output digests as the benchmark reference.

Usage, from the root of a source checkout::

    python3 perfbench/record_reference.py 0 1 2

runs every workload once per given seed, checks the outputs as a
benchmark run does, and stores the sha256 of each output file, keyed by
workload, seed and input digests, in ``perfbench/reference.json``.  The
traced run counts the outputs that still match as
``cli.outputs_byte_identical``.  Record only at a commit whose outputs
are the intended reference.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import inputs
import run


def record(name: str, workload: dict, seed: int) -> dict:
    workdir = run.ROOT / ".perfbench_work" / f"record-{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        written = inputs.write_inputs(workdir / "in", seed, workload["inputs"])
        runner = run.Runner(workdir, time.perf_counter())
        verifier = run.Verifier(runner, run.Inputs(workdir / "in"))
        outdir = workdir / "out"
        outdir.mkdir()
        outputs = {}
        for inv in workload["invocations"]:
            _, _, rc, _ = runner.cli(inv["argv"], inv["out"])
            outputs.update(verifier.verify(inv, outdir, rc, inv["out"]))
        if runner.failed:
            raise SystemExit(f"{name} seed {seed} fails its checks: {runner.messages}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"inputs": {k: v["sha256"] for k, v in written.items()}, "outputs": outputs}


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    seeds = [int(s) for s in argv]
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    for name, workload in run.WORKLOADS.items():
        for seed in seeds:
            reference.setdefault(name, {})[str(seed)] = record(name, workload, seed)
            print(f"recorded {name} seed {seed}", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
