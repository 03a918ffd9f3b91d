"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload engine-f --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout (it imports ``src/repro``).  Set
up happens first: three fresh interpreters each import the program and
build the workload's inputs, and ``setup_s`` is their median time from
process start to the first timed call.  Then this process builds the
same inputs and repeats whole rounds of the workload's operations for about
``--seconds``: a round starts only if it should end within them.  Every
round's outputs are checked after its clock stops (and outside the trace).
The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any operation failed.

``--trace 0`` reports the end-to-end metrics (``wall_s`` is the median
round).  ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics of the traced ones (per-round means), the traced
wall time, and the difference to the untraced median as
``trace_overhead_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
WORKLOAD_NAMES = ("engine-f", "engine-teps", "paper-scalar")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run only the set-up and print its duration (see module doc).
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _isolate(workdir: Path) -> None:
    """One BLAS thread, and no calibration table from the user's home."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["REPRO_CALIBRATION"] = str(workdir / "kernel_calibration.json")


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def _probe_setup(args) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        out = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", "0", "--setup-probe", repr(started),
            ],
            capture_output=True, text=True, env=os.environ.copy(),
            timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _kernel_counts(delta: dict) -> dict:
    prefix = "engine.blocks."
    return {
        name[len(prefix):]: int(value)
        for name, value in delta.get("counters", {}).items()
        if name.startswith(prefix)
    }


class Runner:
    """Runs rounds of one workload's operations and tallies their outcome."""

    def __init__(self, ops, metrics_registry) -> None:
        self.ops = ops
        self.metrics = metrics_registry
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.kernels: dict = {}
        self.last_delta: dict = {}

    def round(self, tracer=None) -> tuple[float, list]:
        """One round: every operation once.  Returns its wall time and outputs.

        An output is ``None`` when its operation raised.
        """
        outputs = []
        baseline = self.metrics.snapshot()
        started = time.perf_counter()
        for op in self.ops:
            try:
                if tracer is None:
                    outputs.append(op.run())
                else:
                    with tracer.span(op.span):
                        outputs.append(op.run())
            except Exception:
                # A ConvergenceError or any other fault fails this
                # operation only: it is counted and the round goes on.
                traceback.print_exc(file=sys.stderr)
                outputs.append(None)
        wall = time.perf_counter() - started
        self.last_delta = self.metrics.delta(baseline)
        for name, count in _kernel_counts(self.last_delta).items():
            self.kernels[name] = self.kernels.get(name, 0) + count
        return wall, outputs

    def checked_round(self, trace=None) -> float:
        """One round, then the check of its outputs.  Returns its wall time.

        A traced round's outputs are checked after the trace is taken
        down: the checks call wrapped functions, whose spans would count
        as the program's work.  The outputs are dropped on return, so no
        round holds the previous round's arrays.
        """
        if trace is None:
            wall, outputs = self.round()
        else:
            with trace:
                wall, outputs = self.round(trace.tracer)
        self.check(outputs)
        return wall

    def check(self, outputs: list) -> None:
        """Check one round's outputs and count the operations that failed."""
        for op, output in zip(self.ops, outputs):
            self.attempted += 1
            if output is None:
                self.failed += 1
                continue
            try:
                failures = op.check(output)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                failures = [f"check raised {type(exc).__name__}: {exc}"]
            if failures:
                self.failed += 1
                self.check_failures.extend(f"{op.span}: {f}" for f in failures)


def _layer_metrics(traces: list, deltas: list, walls: list, untraced: list, workloads, ops) -> dict:
    """Per-round means of the layer metrics over the traced rounds."""
    rounds = len(traces)
    totals: dict = {}
    counts: dict = {}
    for trace, delta in zip(traces, deltas):
        for name, entry in trace.totals().items():
            slot = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for key in slot:
                slot[key] += entry[key]
        for name, value in trace.counts.items():
            counts[name] = counts.get(name, 0) + value
        for name, value in delta["counters"].items():
            counts[name] = counts.get(name, 0) + value

    def get(span, key):
        return totals.get(span, {}).get(key, 0.0) / rounds

    def counter(name):
        return counts.get(name, 0) / rounds

    traced_wall = sum(walls) / rounds
    block_s = get("kernels.block", "s")
    steps = counter("engine.replica_steps")
    op_spans = {op.span for op in ops}
    attributed = sum(
        entry["self_s"] for name, entry in totals.items() if name not in op_spans
    ) / rounds
    out = {
        "selection.draw_s": (get("selection.draw", "s"), "s"),
        "selection.draw_calls": (get("selection.draw", "calls"), "count"),
        "kernels.block_s": (block_s, "s"),
        "kernels.block_calls": (get("kernels.block", "calls"), "count"),
        "kernels.replica_steps": (steps, "count"),
        "kernels.ns_per_replica_step": (block_s * 1e9 / steps if steps else 0.0, "ns"),
        "batch.run_self_s": (get("batch.run", "self_s"), "s"),
        "batch.until_phi_self_s": (get("batch.until_phi", "self_s"), "s"),
        "batch.resync_s": (get("batch.resync", "s"), "s"),
        "batch.resync_calls": (get("batch.resync", "calls"), "count"),
        "batch.blocks": (counter("engine.rng_blocks"), "count"),
        "batch.snapshot_switches": (counter("engine.snapshot_switches"), "count"),
        "driver.harvest_self_s": (get("driver.harvest", "self_s"), "s"),
        "cache.store_s": (get("cache.store", "s"), "s"),
        "cache.load_s": (get("cache.load", "s"), "s"),
        "cache.hits": (counter("cache.hits"), "count"),
        "core.run_s": (get("core.run", "s"), "s"),
        "core.run_calls": (get("core.run", "calls"), "count"),
        "core.init_s": (get("core.init", "s"), "s"),
        "core.init_calls": (get("core.init", "calls"), "count"),
        "core.potential_resets": (counter("core.potential_resets"), "count"),
        "graphs.from_graph_s": (get("graphs.from_graph", "s"), "s"),
        "graphs.from_graph_calls": (get("graphs.from_graph", "calls"), "count"),
        "theory.exact_s": (get("theory.exact", "s"), "s"),
    }
    for eid in workloads.SCALAR_OVERRIDES:
        out[f"exp.{eid}.wall_s"] = (get(f"exp.{eid}", "s"), "s")
    for cell in (
        "reg-node-k1", "reg-node-k2", "reg-edge", "irr-node-k1",
        "static-node-k1", "dynamic-edge-lazy",
    ):
        out[f"cell.{cell}.wall_s"] = (get(f"cell.{cell}", "s"), "s")
    out["traced_wall_s"] = (traced_wall, "s")
    out["residual_s"] = (traced_wall - attributed, "s")
    out["trace_overhead_s"] = (statistics.median(walls) - statistics.median(untraced), "s")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"no program source at {ROOT / 'src' / 'repro'}")
    workdir = ROOT / ".perfbench_work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _isolate(workdir)
        if args.setup_probe is not None:
            workloads = _import_program()
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            print(repr(time.perf_counter() - args.setup_probe))
            return 0
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(args, workdir: Path) -> int:
    import resource

    workloads = _import_program()
    setup_samples = _probe_setup(args)
    from layers import LayerTrace
    from repro.obs import METRICS

    runner = Runner(workloads.WORKLOADS[args.workload](args.seed, workdir), METRICS)
    untraced: list[float] = []
    traced_walls: list[float] = []
    traces: list = []
    deltas: list = []
    started = time.perf_counter()
    while True:
        untraced.append(runner.checked_round())
        if args.trace:
            trace = LayerTrace()
            traced_walls.append(runner.checked_round(trace))
            traces.append(trace)
            deltas.append(runner.last_delta)
        # Stop when one more round at the pace so far would overrun the
        # budget, so a run lasts at most about --seconds (and one round).
        elapsed = time.perf_counter() - started
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break

    if args.trace:
        metrics = _layer_metrics(
            traces, deltas, traced_walls, untraced, workloads, runner.ops
        )
    else:
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (statistics.median(untraced), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (peak_mib, "MiB"),
        }
    for failure in runner.check_failures:
        print(f"check failed: {failure}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(untraced)} untraced and {len(traced_walls)} traced rounds, "
          f"untraced walls {[round(w, 4) for w in untraced]}, "
          f"setup samples {[round(s, 4) for s in setup_samples]}")
    print(f"kernel blocks by kernel: {json.dumps(runner.kernels, sort_keys=True)}")
    result = {
        "correct": not runner.check_failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
