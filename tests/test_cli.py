import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cases
from rdcontrol import (
    BinarySource,
    BoxRegion,
    DomainError,
    LogLinear,
    LogRate,
    Scenario,
    SolverCaps,
    SourceSpec,
    binary_entropy,
    compression_given_rate,
    operating_point,
    solve,
)
from rdcontrol.cli import _CSV_CHUNK, MAX_FIG1_STEPS, fmt, main, write_trace_csv
from rdcontrol.scenario import load_scenario

SRC = Path(__file__).resolve().parent.parent / "src"


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def solver_doc(caps=(10.0,), max_iters=20_000):
    return {
        "sources": [
            {
                "kind": "binary",
                "s": 1.0,
                "p": 0.5,
                "V": {"kind": "log_linear", "K": 1.0},
                "U": {"kind": "log_rate", "w": 1.0},
            }
            for _ in caps
        ],
        "region": {"kind": "box", "caps": list(caps)},
        "solver": {
            "step": {"kind": "diminishing", "gamma0": 0.3},
            "max_iters": max_iters,
            "caps": {"alpha_max": 50.0, "c_max": 50.0, "c_min": 1e-9},
        },
    }


def mac_doc(P=(3.0, 3.0), deltas=(2.0, 1.0)):
    return {
        "sources": [
            {"kind": "binary", "s": 1.0, "p": 0.5,
             "V": {"kind": "linear_entropy_penalty", "delta": deltas[0]}},
            {"kind": "binary", "s": 1.0, "p": 0.5,
             "V": {"kind": "linear_entropy_penalty", "delta": deltas[1]}},
        ],
        "region": {"kind": "mac", "powers": list(P), "noise": 1.0},
    }


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ----------------------------------------------------------------- start-up

def test_import_loads_no_scipy():
    # a fresh interpreter: this test process may have imported scipy already
    probe = "import sys, rdcontrol, rdcontrol.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_module_run_exits_one_on_malformed_document(tmp_path):
    doc = solver_doc()
    doc["sources"] = "x"
    path = write_scenario(tmp_path, doc)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "rdcontrol.cli", "solve", path, "--out", str(tmp_path / "t.csv")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "sources" in proc.stderr and "Traceback" not in proc.stderr


# -------------------------------------------------------------------- solve

def test_solve_exit_zero_and_trace(tmp_path, capsys):
    scn = write_scenario(tmp_path, solver_doc(caps=(2.0, 0.6)))
    out = tmp_path / "trace.csv"
    code = main(["solve", scn, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "converged: yes" in stdout
    assert "stop_reason: gap" in stdout.splitlines()
    header, rows = read_csv(out)
    assert header[:5] == ["iter", "mu_0", "mu_1", "lambda_0", "lambda_1"]
    assert header[-2:] == ["primal_obj", "dual_obj"]
    assert len(header) == 1 + 6 * 2 + 2
    assert 1 <= len(rows) <= 20_000


def test_solve_max_iters_one_exits_two(tmp_path):
    # a cap below c_min: no point is an incumbent, so nothing certifies row 1
    scn = write_scenario(tmp_path, solver_doc(caps=(1e-10,)))
    out = tmp_path / "trace.csv"
    code = main(["solve", scn, "--out", str(out), "--max-iters", "1"])
    assert code == 2
    _, rows = read_csv(out)
    assert len(rows) == 1


def test_solve_without_finite_incumbent_exits_two(tmp_path, capsys):
    # LogRate on a zero-capacity link: every repaired point has c = 0
    scn = write_scenario(tmp_path, solver_doc(caps=(0.0,), max_iters=200))
    code = main(["solve", scn, "--out", str(tmp_path / "trace.csv")])
    assert code == 2
    captured = capsys.readouterr()
    assert "recovered: none" in captured.out
    assert "stop_reason: no_incumbent" in captured.out.splitlines()
    assert "Traceback" not in captured.err


def test_gamma0_override_keeps_the_step_rule(tmp_path):
    # --gamma0 rescales the document's rule: a constant step stays constant
    def run(kind, gamma0, *extra):
        doc = solver_doc(caps=(1e-10, 0.6), max_iters=300)  # 1e-10 < c_min: no early stop
        doc["solver"]["step"] = {"kind": kind, "gamma0": gamma0}
        out = tmp_path / f"{kind}-{gamma0}-{len(extra)}.csv"
        main(["solve", write_scenario(tmp_path, doc), "--out", str(out), *extra])
        return out.read_bytes()

    overridden = run("constant", 0.3, "--gamma0", "0.05")
    assert overridden == run("constant", 0.05)
    assert overridden != run("diminishing", 0.05)


def test_solve_schema_error_exit_one_names_field(tmp_path, capsys):
    doc = solver_doc()
    doc["region"] = {"kind": "mac", "powers": [-3.0], "noise": 1.0}
    scn = write_scenario(tmp_path, doc)
    code = main(["solve", scn, "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "region.powers[0]" in capsys.readouterr().err


def test_solve_oversized_integer_exit_one(tmp_path, capsys):
    doc = solver_doc()
    doc["sources"][0]["V"]["K"] = 10**400  # no float value
    code = main(["solve", write_scenario(tmp_path, doc), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "sources[0].V.K" in err
    assert "Traceback" not in err


def test_solve_invalid_json_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    code = main(["solve", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "line" in capsys.readouterr().err  # json's line/column diagnostics


def test_missing_file_exit_one(tmp_path):
    assert main(["solve", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize(
    "payload, word",
    [
        (b'{"sources": "\xff"}', "UTF-8"),
        (b"[" * 100_000 + b"]" * 100_000, "nested"),
        (b'{"sources": [' + b"1" * 5000 + b"]}", "digits"),
    ],
    ids=["not-utf8", "nested-100000", "integer-5000-digits"],
)
def test_unreadable_scenario_file_exit_one(tmp_path, capsys, payload, word):
    path = tmp_path / "scenario.json"
    path.write_bytes(payload)
    code = main(["solve", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert word in err and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "doc, message",
    [([], "scenario: expected an object"), ({"sources": {}}, "sources: expected an array")],
    ids=["array-document", "object-sources"],
)
def test_document_of_the_wrong_shape_exit_one(tmp_path, capsys, doc, message):
    code = main(["solve", write_scenario(tmp_path, doc), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_usage_error_exit_one(tmp_path, capsys):
    assert main(["solve"]) == 1  # missing scenario and --out
    capsys.readouterr()


# -------------------------------------------------------------------- verify

def test_verify_agrees_with_oracle(tmp_path, capsys):
    scn = write_scenario(tmp_path, solver_doc(caps=(10.0,)))
    code = main(["verify", scn, "--steps", "500"])
    assert code == 0
    assert "verdict: ok" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.01"])
def test_verify_refuses_a_bad_rtol(tmp_path, value, capsys):
    # a NaN tolerance compares false with every difference, so it would
    # print a mismatch and exit 2 on an exact agreement
    scn = write_scenario(tmp_path, solver_doc(caps=(10.0,)))
    assert main(["verify", scn, "--steps", "500", f"--rtol={value}"]) == 1
    captured = capsys.readouterr()
    assert "--rtol" in captured.err and "verdict" not in captured.out


@pytest.mark.parametrize(
    "steps, named", [("0", "steps"), ("1", "steps"), ("-3", "steps"), ("2500001", "points")]
)
def test_verify_refuses_a_bad_steps_before_solving(tmp_path, steps, named, monkeypatch, capsys):
    # the grid spaces its lower ends by c_hi / (10 * steps), so 0 steps
    # divided by zero before the grid checked its axes; 2,500,001 steps
    # make two axes of 5,000,002 points, above MAX_GRID_POINTS
    def no_solve(scn):
        raise AssertionError("verify solved before checking --steps")

    monkeypatch.setattr("rdcontrol.cli.solve", no_solve)
    scn = write_scenario(tmp_path, solver_doc(caps=(10.0,)))
    assert main(["verify", scn, f"--steps={steps}"]) == 1
    captured = capsys.readouterr()
    assert named in captured.err and "Traceback" not in captured.err
    assert "verdict" not in captured.out


def test_verify_warns_nothing_on_a_huge_rate_weight(tmp_path):
    # w*ln(c) overflows to -inf at the grid's c = 1e-3 < 1, below the
    # scenario's c_min = 0; that is its float value, not a fault to report.
    # w*ln(c_max) = 1.5e308 is finite, so the scenario admits this w.
    doc = solver_doc(caps=(0.5,))
    doc["sources"][0]["U"]["w"] = 5e307
    doc["solver"]["caps"] = {"alpha_max": 20.0, "c_max": 20.0, "c_min": 0.0}
    scn = write_scenario(tmp_path, doc)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "rdcontrol.cli", "verify", scn,
         "--steps", "50"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert "verdict: ok" in proc.stdout


@pytest.mark.parametrize(
    "w, caps",
    [(1.7e308, {"c_max": 20.0}), (1e307, {"c_max": 1.0, "c_min": 1e-9})],
    ids=["at-c_max", "at-c_min"],
)
def test_verify_refuses_a_rate_weight_whose_log_term_overflows(tmp_path, w, caps, capsys):
    # every dual value was inf, verify ran 50,000 iterations and printed
    # relative_difference 0 beside verdict: mismatch
    doc = solver_doc(caps=(0.5,))
    doc["sources"][0]["U"]["w"] = w
    doc["solver"]["caps"] = {"alpha_max": 20.0, **caps}
    assert main(["verify", write_scenario(tmp_path, doc), "--steps", "50"]) == 1
    captured = capsys.readouterr()
    assert "sources[0].U.w" in captured.err and "Traceback" not in captured.err
    assert "verdict" not in captured.out


def test_verify_without_a_feasible_grid_point_exits_two(tmp_path, capsys):
    # a LogRate source on a link of cap 0: no c on the grid is >= c_min > 0
    doc = solver_doc(caps=(0.0,), max_iters=50)
    assert main(["verify", write_scenario(tmp_path, doc), "--steps", "50"]) == 2
    out = capsys.readouterr().out
    assert "oracle: no feasible point on the grid" in out and "verdict" not in out


def test_verify_agrees_on_a_64_link_box(tmp_path, capsys):
    # the grid cap once counted 64 * 1,600^2 points here, not the 204,800
    # axis points the scan builds, and refused the grid
    path = write_scenario(tmp_path, cases.box64_doc())
    tol_gap = load_scenario(path).tol_gap
    assert main(["verify", path, "--steps", "1600", f"--rtol={tol_gap}"]) == 0
    assert "verdict: ok" in capsys.readouterr().out


# --------------------------------------------------------------------- fig1

def test_fig1_rows_and_breakpoint(tmp_path):
    out = tmp_path / "fig.csv"
    code = main(["fig1", "--K", "1", "--p", "0.5", "--c-min", "0.1",
                 "--c-max", "2.0", "--steps", "64", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["c", "alpha_star", "D", "s_eff"]
    cs = [float(r[0]) for r in rows]
    assert 1.0 in cs  # breakpoint c = 1/K on the grid exactly
    for r in rows:
        c, alpha, d, s_eff = map(float, r)
        if c >= 1.0:
            assert d == 0.0
            assert alpha == c
        else:
            assert binary_entropy(d) == pytest.approx(1.0 - c, abs=1e-9)


def test_fig1_entropy_slope(tmp_path):
    out = tmp_path / "fig.csv"
    K, p = 2.0, 0.3
    main(["fig1", "--K", str(K), "--p", str(p), "--c-min", "0.01",
          "--c-max", "1.0", "--steps", "200", "--out", str(out)])
    _, rows = read_csv(out)
    hp = binary_entropy(p)
    below = [(float(r[0]), float(r[2])) for r in rows if float(r[0]) < 1.0 / K]
    hs = [binary_entropy(d) for _, d in below]
    # finite differences of H(D) against the c spacing recover -K*H(p)
    for (c0, _), (c1, _), h0, h1 in zip(below, below[1:], hs, hs[1:]):
        slope = (h1 - h0) / (c1 - c0)
        assert slope == pytest.approx(-K * hp, abs=1e-6)


@pytest.mark.parametrize(
    "args",
    [
        ["--K", "0", "--p", "0.5", "--c-min", "0.1", "--c-max", "1.0"],
        ["--K", "1", "--p", "1.0", "--c-min", "0.1", "--c-max", "1.0"],
        ["--K", "1", "--p", "0.5", "--c-min", "1.0", "--c-max", "1.0"],
        ["--K", "1", "--p", "0.5", "--c-min", "0.1", "--c-max", "1.0", "--steps", "1"],
    ],
)
def test_fig1_domain_violations_exit_one(tmp_path, args, capsys):
    code = main(["fig1", *args, "--out", str(tmp_path / "x.csv")])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value", [("--c-max", "inf"), ("--c-max", "-inf"), ("--c-min", "nan")]
)
def test_fig1_refuses_non_finite_bounds_by_flag(tmp_path, flag, value):
    bounds = {"--c-min": "0.1", "--c-max": "2.0", flag: value}
    argv = ["fig1", "--K", "1", "--p", "0.5", *(f"{f}={v}" for f, v in bounds.items())]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "rdcontrol.cli", *argv, "--out", str(tmp_path / "x.csv")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    # the grid is checked before numpy sees it
    assert proc.stderr == f"error: {flag} must be finite, got {float(value)}\n"


@pytest.mark.parametrize("K", [math.inf, math.nan, 0.0, -1.0, 5e-324])
def test_fig1_and_its_layers_apply_the_rule_of_K(tmp_path, K, capsys):
    # one rule for K, LogLinear's: finite, > 0, and 1/K finite
    for call in (lambda: compression_given_rate(K, 0.5), lambda: operating_point(0.3, K, 0.5)):
        with pytest.raises(DomainError) as info:
            call()
        assert info.value.field == "K"
    out = tmp_path / "x.csv"
    code = main(["fig1", f"--K={K}", "--p", "0.3", "--c-min", "0.1", "--c-max", "2",
                 "--steps", "5", "--out", str(out)])
    assert code == 1
    assert "K" in capsys.readouterr().err
    assert not out.exists()


def test_fig1_steps_cap_refused_before_allocating(tmp_path, monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("fig1 built its grid before checking --steps")

    monkeypatch.setattr(np, "linspace", no_grid)
    out = tmp_path / "x.csv"
    code = main(["fig1", "--K", "1", "--p", "0.5", "--c-min", "0.1", "--c-max", "1.0",
                 "--steps", str(MAX_FIG1_STEPS + 1), "--out", str(out)])
    assert code == 1
    assert str(MAX_FIG1_STEPS) in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------- mac

def test_mac_case_a(tmp_path, capsys):
    scn = write_scenario(tmp_path, mac_doc(P=(15.0, 15.0)))
    out = tmp_path / "mac.csv"
    code = main(["mac", scn, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "case: A" in stdout
    assert "D: [0, 0]" in stdout
    header, rows = read_csv(out)
    assert header == ["label", "rate_1", "rate_2"]
    labels = [r[0] for r in rows]
    assert labels.count("entropy_point") == 1
    assert labels.count("chosen_corner") == 1
    assert sum(1 for l in labels if l.startswith("region_vertex")) == 5


def test_mac_case_b_on_sum_face(tmp_path, capsys):
    scn = write_scenario(tmp_path, mac_doc(P=(3.0, 3.0), deltas=(2.0, 1.0)))
    out = tmp_path / "mac.csv"
    code = main(["mac", scn, "--out", str(out)])
    assert code == 0
    assert "case: B" in capsys.readouterr().out
    _, rows = read_csv(out)
    chosen = next(r for r in rows if r[0] == "chosen_corner")
    r1, r2 = float(chosen[1]), float(chosen[2])
    # the chosen compressed-rate point exhausts the sum capacity
    assert r1 + r2 == pytest.approx(0.5 * np.log2(7.0), abs=1e-9)


def test_mac_oracle_mismatch_exits_three(tmp_path, monkeypatch, capsys):
    import rdcontrol.cli as cli_mod

    scn = write_scenario(tmp_path, mac_doc())
    real = cli_mod.mac_mod.solve_corner

    def broken(s):
        sol = real(s)
        return type(sol)(sol.case, sol.D, sol.x, sol.objective + 1.0)

    monkeypatch.setattr(cli_mod.mac_mod, "solve_corner", broken)
    code = main(["mac", scn, "--out", str(tmp_path / "m.csv")])
    assert code == 3
    assert "MISMATCH" in capsys.readouterr().err


# ------------------------------------------------------------- determinism

def run_twice(tmp_path, argv_fn):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        assert main(argv_fn(str(out))) in (0, 2)
        outs.append(out.read_bytes())
    return outs


def test_csv_outputs_byte_identical(tmp_path):
    scn = write_scenario(tmp_path, solver_doc(caps=(2.0, 0.6), max_iters=2000))
    macscn = write_scenario(tmp_path, mac_doc(), name="mac.json")
    a, b = run_twice(tmp_path, lambda o: ["solve", scn, "--out", o])
    assert a == b
    a, b = run_twice(
        tmp_path,
        lambda o: ["fig1", "--K", "1.7", "--p", "0.4", "--c-min", "0.05",
                   "--c-max", "2.0", "--steps", "99", "--out", o],
    )
    assert a == b
    a, b = run_twice(tmp_path, lambda o: ["mac", macscn, "--out", o])
    assert a == b


def test_csv_round_trip_reemission(tmp_path):
    out = tmp_path / "fig.csv"
    main(["fig1", "--K", "0.9", "--p", "0.21", "--c-min", "0.03",
          "--c-max", "3.0", "--steps", "151", "--out", str(out)])
    text = out.read_text()
    lines = text.splitlines()
    rebuilt = [lines[0]]
    for line in lines[1:]:
        rebuilt.append(",".join(fmt(float(cell)) for cell in line.split(",")))
    assert "\n".join(rebuilt) + "\n" == text


def test_fmt_is_stable_under_parse():
    values = [0.1, 1 / 3, 1e-9, 123456.789, 5.0, 2.0 ** -40, np.pi]
    for v in values:
        s = fmt(v)
        assert fmt(float(s)) == s


def test_solve_link_below_c_min_exits_two(tmp_path, capsys):
    # cap 1e-10 < c_min 1e-9: the capped problem is infeasible, so no
    # repaired point may be certified, not even for a Zero rate utility
    doc = solver_doc(caps=(1e-10,), max_iters=200)
    del doc["sources"][0]["U"]
    code = main(["solve", write_scenario(tmp_path, doc), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    out = capsys.readouterr().out
    assert "converged: no" in out
    assert "recovered: none" in out


def per_cell_trace_csv(report, n):
    """The trace CSV written one fmt() call per cell, as the reference."""
    tr = report.trace
    header = ["iter"] + [
        f"{name}_{i}" for name in ("mu", "lambda", "alpha", "beta", "c", "r") for i in range(n)
    ] + ["primal_obj", "dual_obj"]
    lines = [",".join(header)]
    for k in range(len(tr)):
        cells = [str(int(tr.t[k]))]
        for col in (tr.mu, tr.lam, tr.alpha, tr.beta, tr.c, tr.r):
            cells.extend(fmt(v) for v in col[k])
        cells += [fmt(tr.primal_obj[k]), fmt(tr.dual_obj[k])]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def no_incumbent_scenario():
    # LogRate on a zero-capacity link: every primal_obj cell is -inf
    return Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0)),),
        region=BoxRegion((0.0,)),
        max_iters=200,
    )


def long_box16():
    # c_min above some caps: no incumbent, so the loop runs all 2,624 rows
    return replace(cases.box16(), caps=SolverCaps(alpha_max=20.0, c_min=1.0), max_iters=2624)


@pytest.mark.parametrize(
    "factory",
    [case[1] for case in cases.SOLVER_CASES] + [no_incumbent_scenario, long_box16],
    ids=[case[0] for case in cases.SOLVER_CASES] + ["no_incumbent", "box16"],
)
def test_trace_csv_matches_per_cell_writer(tmp_path, factory):
    scn = factory()
    report = solve(scn)
    if factory is long_box16:  # the writer's chunks, with a partial last one
        assert len(report.trace) > 2 * _CSV_CHUNK and len(report.trace) % _CSV_CHUNK
    out = tmp_path / "trace.csv"
    write_trace_csv(out, report, scn.n)
    # the writer derives alpha, beta and c a chunk at a time and keeps none
    assert "_primal" not in vars(report.trace)
    want = per_cell_trace_csv(report, scn.n)
    assert out.read_bytes() == want
    if report.recovered is None:
        assert b",-inf," in want
