"""Command-line front end.

Subcommands:

* ``solve``  — run the dual solver on a scenario file, write the iteration
  trace as CSV.  Each row is ``iter``, then ``mu_i``, ``lambda_i``,
  ``alpha_i``, ``beta_i``, ``c_i`` and ``r_i`` for every source, and ends
  in ``primal_obj,dual_obj`` (the best incumbent objective so far, -inf
  before the first, and the dual value).  Exit 0 on convergence, 2 on
  non-convergence (including a run with no finite incumbent, printed as
  ``recovered: none``), 1 on input error.
* ``verify`` — solve and cross-check against the grid-search oracle.
* ``fig1``   — sweep the closed-form compression rule over a grid of
  compressed rates and write (c, alpha_star, D, s_eff) rows.  The command
  checks only its grid, finite bounds with ``0 < c_min < c_max`` and 2
  to ``MAX_FIG1_STEPS`` points, before it allocates;
  ``compression_given_rate`` and ``operating_point`` refuse a bad ``K``
  or ``p``.
* ``mac``    — solve the two-user MAC distortion program, cross-check the
  closed form against the LP vertex oracle (exit 3 on mismatch), and write
  plot-ready region/corner data.

All CSV numbers use 12 significant digits with '.' as decimal separator,
so identical inputs produce byte-identical files.  Text label cells, such
as the first column of the ``mac`` CSV, are written verbatim.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import mac as mac_mod
from .errors import RdControlError
from .layers import compression_given_rate, operating_point
from .oracle import default_grid, grid_search_num
from .orchestrator import Scenario, SolveReport, solve
from .scenario import load_mac_scenario, load_scenario

_GFMT = ".12g"

# fig1 builds one grid array and one Python row per step before writing
MAX_FIG1_STEPS = 10**6

# trace rows write_trace_csv handles at a time: it derives their alpha, beta
# and c and turns them into Python lists, so writing a long trace never
# holds its whole table as lists and text, nor its derived columns
_CSV_CHUNK = 1024


def fmt(x) -> str:
    """Locale-independent 12-significant-digit rendering."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), _GFMT)


def _write_csv(path: str | Path, header: list[str], row: str, rows) -> None:
    """Write the header line, then ``row % tuple(cells)`` for each of
    ``rows``; ``row`` ends in a newline, and "%.12g" renders a float
    exactly as :func:`fmt` does."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        f.writelines(row % tuple(cells) for cells in rows)


def write_trace_csv(path: str | Path, report: SolveReport, n: int) -> None:
    header = ["iter"]
    for name in ("mu", "lambda", "alpha", "beta", "c", "r"):
        header.extend(f"{name}_{i}" for i in range(n))
    header += ["primal_obj", "dual_obj"]
    tr = report.trace

    def rows():
        for start in range(0, len(tr), _CSV_CHUNK):
            part = slice(start, start + _CSV_CHUNK)
            columns = (
                tr.t[part], tr.mu[part], tr.lam[part], *tr.primal(part), tr.r[part],
                tr.primal_obj[part], tr.dual_obj[part],
            )
            yield from np.column_stack(columns).tolist()

    _write_csv(path, header, "%d," + ",".join(["%.12g"] * (6 * n + 2)) + "\n", rows())


def _print_summary(report: SolveReport) -> None:
    print(f"converged: {'yes' if report.converged else 'no'}")
    print(f"iterations: {report.iterations}")
    print(f"stop_reason: {report.stop_reason}")
    print(f"recovered_objective: {fmt(report.recovered_objective)}")
    print(f"best_dual: {fmt(report.best_dual)}")
    print(f"relative_gap: {fmt(report.gap)}")
    rec = report.recovered
    if rec is None:  # no repaired point had a finite objective
        print("recovered: none")
        return
    for name, vec in (("alpha", rec.alpha), ("beta", rec.beta), ("c", rec.c), ("r", rec.r)):
        print(f"{name}: [{', '.join(fmt(v) for v in vec)}]")


def _apply_overrides(scn: Scenario, args) -> Scenario:
    kwargs = {}
    if args.max_iters is not None:
        kwargs["max_iters"] = args.max_iters
    if args.gamma0 is not None:
        # only the scale changes; the document keeps its step rule
        kwargs["step"] = replace(scn.step, gamma0=args.gamma0)
    return replace(scn, **kwargs) if kwargs else scn


def cmd_solve(args) -> int:
    scn = _apply_overrides(load_scenario(args.scenario), args)
    report = solve(scn)
    write_trace_csv(args.out, report, scn.n)
    _print_summary(report)
    return 0 if report.converged else 2


def cmd_verify(args) -> int:
    if not (math.isfinite(args.rtol) and args.rtol >= 0):  # NaN would fail every comparison
        raise RdControlError(f"--rtol must be finite and >= 0, got {args.rtol}")
    scn = _apply_overrides(load_scenario(args.scenario), args)
    # the grid and the oracle refuse a bad --steps before the solve runs
    result = grid_search_num(scn, default_grid(scn, steps=args.steps))
    report = solve(scn)
    print(f"solver_objective: {fmt(report.recovered_objective)}")
    print(f"oracle_objective: {fmt(result.objective)}")
    if not result.found:
        print("oracle: no feasible point on the grid")
        return 2
    rel = abs(report.recovered_objective - result.objective) / max(1.0, abs(result.objective))
    print(f"relative_difference: {fmt(rel)}")
    ok = report.converged and rel <= args.rtol
    print(f"verdict: {'ok' if ok else 'mismatch'}")
    return 0 if ok else 2


def cmd_fig1(args) -> int:
    for flag, bound in (("--c-min", args.c_min), ("--c-max", args.c_max)):
        if not math.isfinite(bound):  # linspace would warn and fill the grid with NaN
            raise RdControlError(f"{flag} must be finite, got {bound}")
    if not 0.0 < args.c_min < args.c_max:
        raise RdControlError(
            f"need 0 < c_min < c_max, got [{args.c_min}, {args.c_max}]"
        )
    if not 2 <= args.steps <= MAX_FIG1_STEPS:
        raise RdControlError(f"steps must be in [2, {MAX_FIG1_STEPS}], got {args.steps}")
    grid = np.linspace(args.c_min, args.c_max, args.steps)
    # max(1/K, c_min), so 1/K when it lies inside the grid; refuses every K
    # that LogLinear refuses
    breakpoint_c = compression_given_rate(args.K, args.c_min)
    if args.c_min < breakpoint_c < args.c_max:
        grid = np.unique(np.append(grid, breakpoint_c))
    rows = []
    for c in grid:
        c = float(c)
        alpha_star = compression_given_rate(args.K, c)
        s_eff, D = operating_point(args.p, args.K, c)
        rows.append([c, alpha_star, D, s_eff])
    _write_csv(args.out, ["c", "alpha_star", "D", "s_eff"], "%.12g,%.12g,%.12g,%.12g\n", rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_mac(args) -> int:
    scn = load_mac_scenario(args.scenario)
    corner = mac_mod.solve_corner(scn)
    x1, x2, lp_obj = mac_mod.lp_oracle(scn)

    h = mac_mod.entropy_point(scn)
    v12 = scn.region.vertex([0, 1])  # (C1, C12 - C1)
    v21 = scn.region.vertex([1, 0])  # (C12 - C2, C2)
    chosen = (h[0] - corner.x[0], h[1] - corner.x[1])
    rows = [
        ["region_vertex_0", 0.0, 0.0],
        ["region_vertex_1", v12[0], 0.0],
        ["region_vertex_2", v12[0], v12[1]],
        ["region_vertex_3", v21[0], v21[1]],
        ["region_vertex_4", 0.0, v21[1]],
        ["entropy_point", h[0], h[1]],
        ["chosen_corner", chosen[0], chosen[1]],
    ]
    _write_csv(args.out, ["label", "rate_1", "rate_2"], "%s,%.12g,%.12g\n", rows)

    print(f"case: {corner.case}")
    print(f"D: [{fmt(corner.D[0])}, {fmt(corner.D[1])}]")
    print(f"x: [{fmt(corner.x[0])}, {fmt(corner.x[1])}]")
    print(f"objective: {fmt(corner.objective)}")
    print(f"oracle_objective: {fmt(lp_obj)}")
    if abs(corner.objective - lp_obj) > 1e-9:
        print(
            f"MISMATCH: corner objective {fmt(corner.objective)} != "
            f"oracle {fmt(lp_obj)}",
            file=sys.stderr,
        )
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    # input errors (including usage errors) exit with code 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rdcontrol", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the dual solver on a scenario file")
    p_solve.add_argument("scenario", help="scenario JSON file")
    p_solve.add_argument("--out", required=True, help="trace CSV output path")
    p_solve.add_argument("--max-iters", type=int, dest="max_iters", default=None)
    p_solve.add_argument("--gamma0", type=float, default=None, help="override step scale")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="solve and cross-check against the grid oracle")
    p_verify.add_argument("scenario", help="scenario JSON file")
    p_verify.add_argument("--steps", type=int, default=400, help="grid points per axis")
    p_verify.add_argument("--rtol", type=float, default=0.01)
    p_verify.add_argument("--max-iters", type=int, dest="max_iters", default=None)
    p_verify.add_argument("--gamma0", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("fig1", help="compression-rule sweep over compressed rates")
    p_fig.add_argument("--K", type=float, required=True, help="distortion price")
    p_fig.add_argument("--p", type=float, required=True, help="Bernoulli parameter")
    p_fig.add_argument("--c-min", type=float, dest="c_min", required=True)
    p_fig.add_argument("--c-max", type=float, dest="c_max", required=True)
    p_fig.add_argument("--steps", type=int, default=200)
    p_fig.add_argument("--out", required=True, help="CSV output path")
    p_fig.set_defaults(func=cmd_fig1)

    p_mac = sub.add_parser("mac", help="two-user MAC distortion program")
    p_mac.add_argument("scenario", help="MAC scenario JSON file")
    p_mac.add_argument("--out", required=True, help="region/corner CSV output path")
    p_mac.set_defaults(func=cmd_mac)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RdControlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
