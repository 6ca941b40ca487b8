#!/usr/bin/env python3
"""The rdcontrol benchmark: one command, three workloads.

    python3 perfbench/run.py --workload box_wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workload's scenario documents are generated from ``--seed`` and
written under ``perfbench/out/``.  The run then measures set-up time in
fresh processes and repeats whole passes over the workload's operations
for ``--seconds``, checking every output against the independent
references in ``benchref``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of traced passes (see README.md).  The
last line of standard output is one JSON object; a wrong output makes
``correct`` false, names the failed check on standard error and exits 1.
"""

import os

# one thread everywhere: numpy's BLAS pool is sized when numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import benchgen  # noqa: E402
import benchref  # noqa: E402
import benchtrace  # noqa: E402
from probe import SRC, import_rdcontrol, load_documents  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 8
PROBE_TIMEOUT_S = 120
MB = 2.0**20
STOP_RULE = "src/rdcontrol/orchestrator.py:366"
LIBRARY_WORKLOADS = ("box_wide", "shared_channel")


class CpuRotation:
    """Pins this process (and the children it starts) to one allowed CPU at
    a time, moving to the next on every ``next()``.

    On a shared host one vCPU can run far slower than the other for
    minutes, and the scheduler tends to keep a process where it is; taking
    successive samples on each CPU in turn lets the fastest sample of an
    operation come from whichever CPU was quick.
    """

    def __init__(self):
        self.allowed = sorted(os.sched_getaffinity(0))
        self.count = 0

    def next(self):
        os.sched_setaffinity(0, {self.allowed[self.count % len(self.allowed)]})
        self.count += 1

    def restore(self):
        os.sched_setaffinity(0, set(self.allowed))


def measure_setup(docdir: Path, cpus: CpuRotation) -> list:
    """Set-up seconds of SETUP_REPEATS fresh processes, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        cpus.next()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(docdir)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Outcome:
    """What one operation returned, or the exception it raised."""

    def __init__(self, name, seconds, value=None, error=None):
        self.name = name
        self.seconds = seconds
        self.value = value
        self.error = error


def run_cli(rd, argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rd.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def build_operations(rd, workload, inputs, scenarios, workdir):
    """The pass: a list of (name, thunk).  Library thunks return a
    SolveReport; CLI thunks return (exit code, stdout, stderr)."""
    docdir = workdir / "docs"
    if workload in LIBRARY_WORKLOADS:
        return [
            (name, (lambda scn=scn: rd.orchestrator.solve(scn)))
            for name, scn in scenarios.items()
        ]
    ops = []
    for name in benchgen.PAPER_CASES:
        doc = str(docdir / f"{name}.json")
        csv = str(workdir / f"trace_{name}.csv")
        ops.append((f"solve:{name}", ["solve", doc, "--out", csv]))
    for name, steps in inputs["verify_steps"].items():
        ops.append((f"verify:{name}", ["verify", str(docdir / f"{name}.json"), "--steps", str(steps)]))
    f1 = inputs["fig1"]
    ops.append(
        (
            "fig1",
            ["fig1", "--K", repr(f1["K"]), "--p", repr(f1["p"]), "--c-min", repr(f1["c_min"]),
             "--c-max", repr(f1["c_max"]), "--steps", str(f1["steps"]),
             "--out", str(workdir / "fig1.csv")],
        )
    )
    ops.append(("mac", ["mac", str(docdir / "distortion.json"), "--out", str(workdir / "mac.csv")]))
    return [(name, (lambda argv=argv: run_cli(rd, argv))) for name, argv in ops]


def run_pass(ops):
    outcomes = []
    start = time.perf_counter()
    for name, thunk in ops:
        t0 = time.perf_counter()
        try:
            value = thunk()
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
            outcomes.append(Outcome(name, time.perf_counter() - t0, error=error))
            continue
        outcomes.append(Outcome(name, time.perf_counter() - t0, value=value))
    return time.perf_counter() - start, outcomes


def failure_reason(outcome, workload):
    """None if the operation succeeded, else why it failed."""
    if outcome.error is not None:
        return f"raised {outcome.error}"
    if workload in LIBRARY_WORKLOADS:
        report = outcome.value
        if report.converged:
            return None
        return f"converged=False after {report.iterations} iterations"
    code = outcome.value[0]
    return None if code == 0 else f"exit code {code}: {outcome.value[2].strip()[:200]}"


def stall_cause(report, scn):
    if report.gap < scn.tol_gap and report.trace.max_violation[-1] >= scn.tol_feas:
        return (
            f"relative gap {report.gap:.3g} < tol_gap {scn.tol_gap:g}, but the raw "
            f"window average violates by {report.trace.max_violation[-1]:.3g} >= tol_feas "
            f"{scn.tol_feas:g}; the stopping rule at {STOP_RULE} requires both"
        )
    return f"relative gap {report.gap:.3g} (tol_gap {scn.tol_gap:g}) not met"


def _csv_data_rows(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _stdout_field(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise benchref.CheckFailed("cli_output", f"no '{key}:' line in {stdout!r}")


class Checker:
    """Checks every pass's outputs; the first pass is the reference for
    the determinism check of later passes."""

    def __init__(self, workload, inputs, workdir):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.refs = {}
        self.first = None
        if workload in LIBRARY_WORKLOADS:
            self.refs = {n: benchref.reference_optimum(d) for n, d in inputs["docs"].items()}
        else:
            self.mac_ref = benchref.distortion_lp(inputs["docs"]["distortion"])

    def check(self, outcomes):
        fingerprint = []
        for o in outcomes:
            if o.error is not None:
                fingerprint.append((o.name, "error"))
                continue
            if self.workload in LIBRARY_WORKLOADS:
                fingerprint.append(self._check_solve(o))
            else:
                fingerprint.append(self._check_cli(o))
        if self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            raise benchref.CheckFailed(
                "deterministic", "a repeated pass gave different results from the first"
            )

    def _check_solve(self, o):
        report = o.value
        doc = self.inputs["docs"][o.name]
        rec = report.recovered
        if rec is None:
            raise benchref.CheckFailed("feasible", f"{o.name}: no recovered point")
        try:
            benchref.check_solution(
                doc, self.refs[o.name], rec.alpha, rec.beta, rec.c, rec.r,
                report.recovered_objective, report.best_dual, report.trace.dual_obj,
            )
        except benchref.CheckFailed as exc:
            raise benchref.CheckFailed(exc.check, f"{o.name}: {exc.detail}") from exc
        return (o.name, report.iterations, report.recovered_objective, report.converged)

    def _check_cli(self, o):
        code, stdout, _ = o.value
        kind, _, case = o.name.partition(":")
        if kind == "solve":
            iterations = int(_stdout_field(stdout, "iterations"))
            rows = _csv_data_rows(self.workdir / f"trace_{case}.csv")
            if len(rows) != iterations:
                raise benchref.CheckFailed(
                    "trace_csv", f"{case}: {len(rows)} data rows for {iterations} iterations"
                )
            for row in rows:
                if not all(math.isfinite(float(v)) for v in row):
                    raise benchref.CheckFailed("trace_csv", f"{case}: non-finite value in {row}")
            return (o.name, code, iterations)
        if kind == "verify":
            if code != 0:
                raise benchref.CheckFailed("verify_exit", f"{case}: verify exited {code}")
            return (o.name, code, stdout)
        if kind == "fig1":
            rows = _csv_data_rows(self.workdir / "fig1.csv")
            benchref.check_fig1_rows(self.inputs["fig1"], [[float(v) for v in r] for r in rows])
            return (o.name, code, len(rows))
        objective = float(_stdout_field(stdout, "objective"))
        if abs(objective - self.mac_ref) > 1e-9 * (1.0 + abs(self.mac_ref)):
            raise benchref.CheckFailed(
                "mac_objective", f"printed {objective!r}, linprog gives {self.mac_ref!r}"
            )
        return (o.name, code, objective)


class SolveStats:
    """Per-pass facts about every SolveReport, gathered by the solve wrapper."""

    def __init__(self):
        self.iterations = 0
        self.useful = 0
        self.trace_bytes = 0

    def observe(self, args, report):
        scn = args[0]
        tr = report.trace
        self.iterations += report.iterations
        self.trace_bytes += sum(
            getattr(tr, f).nbytes for f in tr.__dataclass_fields__
        )
        best_dual = np.minimum.accumulate(tr.dual_obj)
        with np.errstate(invalid="ignore"):
            gap = (best_dual - tr.primal_obj) / (1.0 + np.abs(tr.primal_obj))
        hit = np.flatnonzero(gap < scn.tol_gap)
        self.useful += int(hit[0]) + 1 if hit.size else report.iterations


PER_LAYER_TIMED = (
    "orchestrator.solve",
    "orchestrator.dual_iterate",
    "orchestrator.lagrangian_value",
    "orchestrator.primal_objective",
    "orchestrator.primal_violation",
    "layers.compression_subproblem",
    "layers.congestion_subproblem",
    "layers.compression_given_rate",
    "regions.violation",
    "regions.max_weight",
    "scenario.load_scenario",
    "cli.write_trace_csv",
    "oracle.grid_search_num",
)
PER_LAYER_COUNTED = (
    "orchestrator.primal_objective",
    "orchestrator.primal_violation",
    "layers.compression_subproblem",
    "layers.congestion_subproblem",
    "layers.compression_given_rate",
    "regions.violation",
    "regions.max_weight",
)


def traced_round(rd, ops, docdir):
    """One traced load of every document plus one traced pass."""
    tracer = benchtrace.Tracer()
    stats = SolveStats()
    hooks = {"orchestrator.solve": stats.observe}
    with benchtrace.patched(benchtrace.layer_targets(rd), tracer, hooks):
        load_documents(rd, docdir)
        seconds, outcomes = run_pass(ops)
    return seconds, outcomes, tracer, stats


def observed_pass(rd, ops):
    """An untraced pass except for one timer per solve call."""
    tracer = benchtrace.Tracer()
    stats = SolveStats()
    with benchtrace.patched(benchtrace.solve_targets(rd), tracer,
                            {"orchestrator.solve": stats.observe}):
        seconds, outcomes = run_pass(ops)
    return seconds, outcomes, tracer, stats


def keep_fastest(fastest, outcomes):
    for o in outcomes:
        fastest[o.name] = min(fastest.get(o.name, math.inf), o.seconds)


def csv_megabytes(workload, workdir):
    if workload != "cli_paper":
        return 0.0
    return sum((workdir / f"trace_{n}.csv").stat().st_size for n in benchgen.PAPER_CASES) / MB


def per_layer_metrics(traced, observed, overhead_s, csv_mb):
    """Times from the fastest traced round; counts repeat in every round."""
    _, tracer, stats = min(traced, key=lambda t: t[0])
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("orchestrator.iterations", stats.iterations, "count")
    iter_us = min(
        tr.inclusive_s("orchestrator.solve") / st.iterations * 1e6 if st.iterations else 0.0
        for _, tr, st in observed
    )
    put("orchestrator.iter_us", iter_us, "us")
    ratio = stats.useful / stats.iterations if stats.iterations else 0.0
    put("orchestrator.useful_iter_ratio", ratio, "ratio")
    put("orchestrator.trace_mb", stats.trace_bytes / MB, "MB")
    for name in PER_LAYER_TIMED:
        if name in PER_LAYER_COUNTED:
            put(f"{name}.calls", tracer.calls(name), "count")
        put(f"{name}.self_s", tracer.self_s(name), "s")
    put("cli.trace_csv_mb", csv_mb, "MB")
    put("tracing.overhead_s", overhead_s, "s")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=benchgen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rdcontrol" / "__init__.py").is_file():
        raise SystemExit(f"error: no rdcontrol package under {SRC}; run from a full checkout")

    workdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    docdir = workdir / "docs"
    docdir.mkdir(parents=True, exist_ok=True)
    for stale in docdir.glob("*.json"):
        stale.unlink()
    inputs = benchgen.workload_inputs(args.workload, args.seed)
    for name, doc in inputs["docs"].items():
        (docdir / f"{name}.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")

    cpus = CpuRotation()
    setup_times = measure_setup(docdir, cpus)
    rd = import_rdcontrol()
    scenarios = load_documents(rd, docdir)
    ops = build_operations(rd, args.workload, inputs, scenarios, workdir)
    try:
        checker = Checker(args.workload, inputs, workdir)
    except benchref.CheckFailed as exc:
        raise SystemExit(f"CHECK FAILED [{exc.check}]: {exc.detail}") from exc

    plain, traced, observed = [], [], []
    fastest = {}  # operation -> its fastest untraced time in this run
    fastest_traced = {}
    attempted = failed = 0
    reasons = {}
    csv_mb = 0.0
    correct = True
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace and len(observed) > len(traced):
            seconds, outcomes, tracer, stats = traced_round(rd, ops, docdir)
            traced.append((seconds, tracer, stats))
            keep_fastest(fastest_traced, outcomes)
        else:  # a traced pass runs on the CPU of the plain pass before it
            cpus.next()
            if args.trace:
                seconds, outcomes, tracer, stats = observed_pass(rd, ops)
                observed.append((seconds, tracer, stats))
            else:
                seconds, outcomes = run_pass(ops)
            plain.append(seconds)
            keep_fastest(fastest, outcomes)
        for o in outcomes:
            attempted += 1
            reason = failure_reason(o, args.workload)
            if reason is not None:
                failed += 1
                if o.name not in reasons and args.workload in LIBRARY_WORKLOADS and o.error is None:
                    reason += "; " + stall_cause(o.value, scenarios[o.name])
                reasons.setdefault(o.name, reason)
        try:
            checker.check(outcomes)
        except benchref.CheckFailed as exc:
            print(f"CHECK FAILED [{exc.check}]: {exc.detail}", file=sys.stderr)
            correct = False
            break
        csv_mb = csv_megabytes(args.workload, workdir)
        if time.perf_counter() >= deadline and (not args.trace or traced):
            break

    cpus.restore()
    for name, reason in reasons.items():
        print(f"failed operation {name}: {reason}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        overhead_s = sum(fastest_traced.values()) - sum(fastest.values())
        metrics = per_layer_metrics(traced, observed, overhead_s, csv_mb) if correct else {}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "pass_s": {"value": sum(fastest.values()), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    passes = len(plain) + len(traced)
    print(
        f"{args.workload} seed={args.seed}: {passes} passes, {attempted} operations, "
        f"{failed} failed; set-up runs {[round(t, 4) for t in setup_times]}; "
        f"untraced passes {[round(t, 4) for t in plain]}; "
        f"sum of fastest operation times {sum(fastest.values()):.4f}",
        file=sys.stderr,
    )
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    for csv in workdir.glob("*.csv"):
        csv.unlink()
    record = dict(result)
    if args.trace and traced:  # per-name span totals of the fastest traced round
        record["spans"] = min(traced, key=lambda t: t[0])[1].stats
    (workdir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
