#!/usr/bin/env python3
"""greenmat benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload tropical_preservers --seed 42 --seconds 40 --trace 0

Set-up imports greenmat from ./src and generates the seeded inputs; it
runs INITIAL_SETUPS times before the first pass and once more before
every later pass, and `setup_s` is the median.  Whole passes of the
workload run until --seconds is used up (at least two, so every output
is compared byte for byte with the first pass).  Every op is timed on
its own and checked after the pass.

Between ops a fixed probe is timed every PROBE_EVERY_S of op time, and
every end-to-end timing is scaled by PROBE_REF_S over the probe's median
in the run: the time the run would have taken on a host as fast as the
baseline host (see `probe`).

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of traced passes, which
alternate with untraced ones (see tracing.py); the spans are written to
.perfbench_runs/.  The line before it records the environment and the
sample counts.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

import program

WORKLOADS = ("tropical_preservers", "reference_deciders", "boolean_exhaustive", "cli_requests")
#: Set-ups before the first pass; every later pass adds one more.
INITIAL_SETUPS = 5
OUT_DIR = program.ROOT / ".perfbench_runs"
#: Seconds of op time between two timings of the probe.
PROBE_EVERY_S = 0.2
#: The probe's median on the 2-vCPU host the baseline was recorded on.
PROBE_REF_S = 0.009


def probe() -> float:
    """Time a fixed piece of pure-Python work of the kinds greenmat does:
    dict updates with Fraction sums, a sort and building lists.

    Other tenants of a shared host slow it by 30% and more, in phases
    that last from seconds to tens of minutes, and slow the program with
    it.  The per-run median of this probe follows the program closely
    enough that, in the baseline's ten runs per workload, scaling by it
    cut the spread of `wall_s` from 0.17, 0.14 and 0.09 to 0.06, 0.03
    and 0.06.  The cyclic collector is off inside it, so it never
    collects, and times, garbage the program left.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(1500):
            key = (i % 37, i % 11)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
        ranked = sorted(((v, k) for k, v in acc.items()), reverse=True)
        [list(k) for _, k in ranked for _ in range(20)]
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _workload_factory(name):
    if name == "cli_requests":
        import cli_mix

        return cli_mix.cli_requests
    import workloads

    return getattr(workloads, name)


class Run:
    """Set-ups and passes of one workload, with the cross-pass and
    correctness checks."""

    def __init__(self, workload: str, seed: int, workdir):
        self.build = _workload_factory(workload)
        self.seed = seed
        self.workdir = workdir
        self.prog = None
        self.ops: list = []
        self.setup_times: list[float] = []
        self.first: list[str | None] = []
        self.pass_walls: list[float] = []
        self.pass_latencies: list[list[float]] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # failures that make the run incorrect
        self.known_defects: list[str] = []  # malformed input that escaped as an exception

    def setup(self) -> None:
        """Import greenmat afresh and build the seeded ops, timed."""
        self.prog, self.ops = None, []
        gc.collect()  # drop the copy the previous set-up imported
        files: dict = {}
        t0 = time.perf_counter()
        prog = program.load()
        ops = self.build(prog, self.seed, self.workdir, files)
        self.setup_times.append(time.perf_counter() - t0)
        if len(self.setup_times) == 1:
            # the ops read these files; every set-up renders the same text.
            # Written untimed: file-system latency is noise no program change moves
            for path, text in files.items():
                path.write_text(text, encoding="utf-8")
        self.prog, self.ops = prog, ops

    def one_pass(self, tracer=None) -> float:
        """Run every op once; each pass after the first starts from a fresh set-up."""
        if self.pass_walls:
            self.setup()
        clear = self.prog._boolspace.space.cache_clear
        results = []
        lat = []
        gc.collect()  # each pass starts from the same heap
        self.probes.append(probe())
        since_probe = 0.0
        if tracer is not None:
            tracer.pass_id += 1
            tracer.install(self.prog)
        try:
            for i, op in enumerate(self.ops):
                clear()  # every op starts cold, as a fresh `greenmat` invocation does
                if tracer is not None:
                    tracer.op_id = i
                t0 = time.perf_counter()
                try:
                    out, err = op.call(), None
                except Exception as exc:  # a failed operation; the run goes on
                    where = traceback.extract_tb(exc.__traceback__)[-1]
                    out, err = None, (f"{type(exc).__name__}: {str(exc)[:120]} "
                                      f"at {pathlib.Path(where.filename).name}:{where.lineno}")
                lat.append(time.perf_counter() - t0)
                results.append((out, err))
                since_probe += lat[-1]
                if since_probe >= PROBE_EVERY_S:
                    self.probes.append(probe())
                    since_probe = 0.0
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = sum(lat)
        self._check(results)
        self.pass_walls.append(wall)
        self.pass_latencies.append(lat)
        return wall

    def _check(self, results) -> None:
        first_pass = not self.first
        for i, (op, (out, err)) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            if err is not None:
                self.failed += 1
                msg = f"{op.label}: raised {err}"
                (self.known_defects if op.expect_exit_2 else self.wrong).append(msg)
                if first_pass:
                    self.first.append(None)
                continue
            rendered = op.render(out)
            if first_pass:
                self.first.append(rendered)
                msg = op.check(out)
            elif self.first[i] is None or rendered != self.first[i]:
                msg = f"{op.label}: output differs from the first pass"
            else:
                msg = None
            if msg is not None:
                self.failed += 1
                self.wrong.append(msg)


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile."""
    k = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(k) - 1]


def end_to_end(run: Run) -> dict:
    # each op's latency is its median over the passes, scaled to the
    # baseline host's speed by the probe (see `probe`)
    scale = PROBE_REF_S / statistics.median(run.probes)
    per_op = sorted(statistics.median(op) * scale for op in zip(*run.pass_latencies))
    wall = sum(per_op)  # one pass at the median cost of every op
    return {
        "setup_s": (statistics.median(run.setup_times) * scale, "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_share": (1 - run.failed / run.attempted, "share"),
        "latency_p50_ms": (statistics.median(per_op) * 1000, "ms"),
        "latency_p99_ms": (_quantile(per_op, 0.99) * 1000, "ms"),
        "requests_per_s": (len(run.ops) / wall, "1/s"),
    }


def measure(args, run: Run):
    for _ in range(INITIAL_SETUPS):
        run.setup()
    start = time.perf_counter()
    if not args.trace:
        while len(run.pass_walls) < 2 or (
            time.perf_counter() - start + statistics.median(run.pass_walls) <= args.seconds
        ):
            run.one_pass()
        return end_to_end(run), {}

    import tracing

    # untraced and traced passes alternate, so drift in machine speed
    # cancels out of the overhead; at least one of each
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    while not traced or (
        time.perf_counter() - start + untraced[-1] + 1.5 * traced[-1] <= args.seconds
    ):
        untraced.append(run.one_pass())
        traced.append(run.one_pass(tracer))
    summary = tracer.summary(len(traced))
    metrics = summary["metrics"]
    # means, like the per-pass totals above, so shares of trace.wall_s add up
    metrics["trace.wall_s"] = statistics.fmean(traced)
    metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(untraced)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                       "passes": len(traced), "untraced_wall_s": untraced,
                       "traced_wall_s": traced, "metrics": metrics,
                       "env": program.environment(args.seed)})
    extra = {"trace_file": str(path.relative_to(program.ROOT)),
             "verify_self_s_by_suite": summary["verify_self_s_by_suite"],
             "boolspace_table_build_s_by_table": summary["boolspace_table_build_s_by_table"],
             "untraced_wall_s": statistics.fmean(untraced)}
    return {k: (v, _unit(k)) for k, v in metrics.items()}, extra


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workdir = OUT_DIR / f"inputs-{args.workload}-{args.seed}"
    run = Run(args.workload, args.seed, workdir)
    try:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        metrics, extra = measure(args, run)
    except program.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in (run.wrong + run.known_defects)[:10]:
        print(f"failure: {msg}", file=sys.stderr)
    print(json.dumps({
        "env": program.environment(args.seed),
        "workload": args.workload,
        "passes": len(run.pass_walls),
        "ops_per_pass": len(run.ops),
        "setup_samples_s": run.setup_times,
        "probe_samples": len(run.probes),
        "probe_median_s": statistics.median(run.probes),
        "unscaled_wall_s": sum(statistics.median(op) for op in zip(*run.pass_latencies)),
        "pass_walls_s": run.pass_walls,
        "failures_wrong_output": len(run.wrong),
        "failures_known_defect": len(run.known_defects),
        **extra,
    }))
    print(json.dumps({
        # a malformed input escaping as an exception is a failed op, counted
        # in `failed`; any other failure (wrong output or exit code, a failed
        # or changed suite report, an exception on valid input) is incorrect
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
