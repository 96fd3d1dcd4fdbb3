import json

import numpy as np
import pytest

import sirshare as ss
from sirshare.cli import main

from corpus import random_euclidean_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def lb_instance(tmp_path):
    path = tmp_path / "lb.json"
    ss.generate_lower_bound_instance(3).save(path)
    return str(path)


@pytest.fixture
def interior_line_instance(tmp_path):
    path = tmp_path / "line.json"
    ss.line_instance([-4.0, 1.0, 5.0], 0.0).save(path)
    return str(path)


# ---------------------------------------------------------------------------
# exit codes and verdicts
# ---------------------------------------------------------------------------

def test_check_route_feasible_exit_zero(lb_instance, capsys):
    code, out, _ = run_cli(capsys, "check-route", lb_instance, "--route", "1,2,3")
    assert code == 0
    assert "feasible" in out
    assert "stage 2" in out and "stage 3" in out


def test_check_route_infeasible_exit_two(lb_instance, capsys):
    code, out, _ = run_cli(capsys, "check-route", lb_instance, "--route", "3,2,1")
    assert code == 2
    assert "INFEASIBLE" in out


def test_routes_interior_dropoff_exit_two(interior_line_instance, capsys):
    code, out, _ = run_cli(capsys, "routes", interior_line_instance)
    assert code == 2
    assert "0 feasible routes" in out


def test_unknown_flag_exits_one(lb_instance, capsys):
    code, _, err = run_cli(capsys, "routes", lb_instance, "--bogus")
    assert code == 1
    assert err.strip()


def test_unreadable_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "routes", "/nonexistent/inst.json")
    assert code == 1
    assert "error" in err.lower()


def test_schema_violation_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2}))
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "error" in err.lower()


def test_witness_infeasible_exit_two(lb_instance, capsys):
    code, out, _ = run_cli(capsys, "witness", lb_instance, "--route", "3,2,1")
    assert code == 2


def test_opt_route_infeasible_exit_two(interior_line_instance, capsys):
    code, out, _ = run_cli(capsys, "opt-route", interior_line_instance)
    assert code == 2


# ---------------------------------------------------------------------------
# generate and validate round trips
# ---------------------------------------------------------------------------

GENERATE_ARGS = [
    ["generate", "lower-bound", "--n", "3"],
    ["generate", "lower-bound", "--n", "4", "--alphas", "1,2,0.5,1.5"],
    ["generate", "sqrt-tight", "--n", "5"],
    ["generate", "exp-tight", "--n", "4"],
    ["generate", "hampath", "--vertices", "4", "--edges", "1-2,2-3,3-4"],
    ["generate", "path-tsp", "--coords", "0;1;3"],
    ["generate", "path-tsp", "--coords", "0,0;3,4;1,1"],
]


@pytest.mark.parametrize("argv", GENERATE_ARGS, ids=lambda a: "-".join(a[1:3]))
def test_generate_validate_roundtrip(argv, tmp_path, capsys):
    out_file = tmp_path / "gen.json"
    code, _, _ = run_cli(capsys, *argv, "-o", str(out_file))
    assert code == 0
    code, _, _ = run_cli(capsys, "validate", str(out_file))
    assert code == 0


def test_generate_lower_bound_values(capsys):
    code, out, _ = run_cli(capsys, "generate", "lower-bound", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["distance_matrix"][0][1] == pytest.approx(0.5)
    assert data["distance_matrix"][0][3] == pytest.approx(1.0)
    assert data["n"] == 3


def test_validate_flags_claimed_metric_mismatch(tmp_path, capsys):
    inst = ss.reduce_hampath(3, [(1, 2), (2, 3)])
    data = inst.to_dict()
    data["metric_flag"] = True  # claim a metric the entries do not satisfy
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 2


# ---------------------------------------------------------------------------
# JSON output stability
# ---------------------------------------------------------------------------

SUBCOMMANDS = [
    ["validate"],
    ["check-route", "--route", "1,2,3"],
    ["witness", "--route", "1,2,3"],
    ["share", "--route", "1,2,3", "--beta", "0.5,0.25"],
    ["share", "--route", "1,2,3", "--xc"],
    ["routes"],
    ["opt-route"],
    ["starvation", "--route", "1,2,3", "--check-bounds"],
    ["starvation"],
    ["allocate"],
    ["allocate", "--m-prime", "2", "--oracle"],
]


@pytest.mark.parametrize("extra", SUBCOMMANDS, ids=lambda a: "-".join(a))
def test_json_output_byte_stable(extra, lb_instance, capsys):
    first = run_cli(capsys, extra[0], lb_instance, "--json", *extra[1:])
    second = run_cli(capsys, extra[0], lb_instance, "--json", *extra[1:])
    assert first == second
    json.loads(first[1])  # parses


def test_json_floats_have_short_digits(lb_instance, capsys):
    _, out, _ = run_cli(capsys, "check-route", lb_instance, "--json",
                        "--route", "1,2,3")
    payload = json.loads(out)
    # 1/3 rendered at 12 significant digits
    assert payload["stages"][1]["lhs"] == pytest.approx(1.0 / 3.0, rel=1e-11)
    assert "0.333333333333" in out


# ---------------------------------------------------------------------------
# subcommand behavior details
# ---------------------------------------------------------------------------

def test_share_requires_scheme_choice(lb_instance, capsys):
    code, _, err = run_cli(capsys, "share", lb_instance, "--route", "1,2,3")
    assert code == 1
    assert "--beta" in err or "--xc" in err


def test_share_ledger_values(lb_instance, capsys):
    code, out, _ = run_cli(capsys, "share", lb_instance, "--json",
                           "--route", "1,2,3", "--beta", "0,0")
    payload = json.loads(out)
    assert payload["scheme"] == "beta"
    assert payload["stages"][0]["stage"] == 2
    du = payload["du"]
    for row in du:
        assert all(b <= a + 1e-9 for a, b in zip(row, row[1:]))


def test_allocate_oracle_match(tmp_path, capsys):
    path = tmp_path / "alloc.json"
    ss.line_instance([-5.0, 5.0, -4.0], 0.0).save(path)
    code, out, _ = run_cli(capsys, "allocate", str(path), "--json", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["vehicles"] == [[1, 3], [2]]
    assert payload["total_miles"] == pytest.approx(10.0)


def test_starvation_min_route(tmp_path, capsys):
    path = tmp_path / "sqrt.json"
    ss.generate_sqrt_tight_instance(4).save(path)
    code, out, _ = run_cli(capsys, "starvation", str(path), "--json",
                           "--check-bounds")
    payload = json.loads(out)
    assert payload["route"] == [4, 3, 2, 1]
    assert payload["route_factor"] == pytest.approx(1.0)
    assert payload["bound_checks"][0]["holds"] is True


def test_multi_dropoff_route_tokens(tmp_path, capsys):
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    inst = ss.Instance(dist=ss.from_euclidean(coords), n=2, dropoff_mode="multi",
                       alpha_op=1.0, alphas=(1.0, 1.0))
    path = tmp_path / "multi.json"
    inst.save(path)
    code, out, _ = run_cli(capsys, "check-route", str(path), "--json",
                           "--route", "1,2,d2,d1")
    assert code in (0, 2)
    payload = json.loads(out)
    assert len(payload["stages"]) == 1


def test_tolerance_env_override(lb_instance, capsys, monkeypatch):
    # slightly infeasible route becomes acceptable under a huge tolerance;
    # the variable is read on each call, not when the parser was built
    monkeypatch.delenv("SIRSHARE_TOLERANCE", raising=False)
    argv = ("check-route", lb_instance, "--route", "2,1,3")
    before, _, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("SIRSHARE_TOLERANCE", "0.5")
    code, _, _ = run_cli(capsys, *argv)
    monkeypatch.delenv("SIRSHARE_TOLERANCE")
    strict_code, _, _ = run_cli(capsys, *argv)
    assert (before, code, strict_code) == (2, 0, 2)


def test_parser_is_built_once():
    assert ss.cli.build_parser() is ss.cli.build_parser()


def test_flags_do_not_leak_between_calls(lb_instance, tmp_path, capsys):
    path = tmp_path / "alloc.json"
    random_euclidean_instance(np.random.default_rng(47), 6).save(path)
    plain = [("allocate", str(path)), ("check-route", lb_instance, "--route", "2,1,3")]
    flagged = [("allocate", str(path), "--json", "--m-prime", "6"),
               ("check-route", lb_instance, "--route", "2,1,3", "--json", "--tolerance", "0.5")]
    first = [run_cli(capsys, *argv) for argv in plain]
    after = [run_cli(capsys, *argv) for argv in flagged]
    again = [run_cli(capsys, *argv) for argv in plain]
    assert again == first
    assert [code for code, _, _ in first] == [0, 2]
    assert [code for code, _, _ in after] == [0, 0]
    assert json.loads(after[0][1])["m_prime"] == 6
    assert json.loads(after[1][1])["feasible"] is True
    assert not first[0][1].startswith("{") and "vehicle(s)" in first[0][1]


@pytest.fixture
def lb4_instance(tmp_path):
    path = tmp_path / "lb4.json"
    ss.generate_lower_bound_instance(4).save(path)
    return str(path)


BAD_INPUTS = [
    ({}, ["share", "{lb3}", "--route", "1,2,3", "--beta", "0.5,x"]),
    ({}, ["generate", "hampath", "--vertices", "3", "--edges", "1-x"]),
    ({}, ["generate", "hampath", "--vertices", "3", "--edges", "12"]),
    ({}, ["generate", "lower-bound", "--alphas", "1,a,1"]),
    ({}, ["generate", "path-tsp", "--coords", "0;x;3"]),
    # 4,3,2,1 is infeasible on this instance; no tolerance may wave it through
    ({}, ["check-route", "{lb4}", "--route", "4,3,2,1", "--tolerance", "nan"]),
    ({}, ["check-route", "{lb4}", "--route", "4,3,2,1", "--tolerance", "inf"]),
    ({}, ["check-route", "{lb4}", "--route", "4,3,2,1", "--tolerance", "-0.5"]),
    ({"SIRSHARE_TOLERANCE": "abc"}, ["check-route", "{lb4}", "--route", "4,3,2,1"]),
    ({"SIRSHARE_TOLERANCE": "nan"}, ["check-route", "{lb4}", "--route", "4,3,2,1"]),
    ({}, ["routes", "{lb3}", "--cap-override", "0"]),
    ({}, ["opt-route", "{lb3}", "--cap-override", "0"]),
    ({}, ["starvation", "{lb3}", "--cap-override", "0"]),
    ({}, ["routes", "{lb3}", "--limit", "0"]),
    ({}, ["routes", "{lb3}", "--limit", "-2"]),
]


def _bad_input_id(value):
    if isinstance(value, dict):
        return " ".join(f"{k}={v}" for k, v in value.items()) or "no-env"
    return " ".join(value)


@pytest.mark.parametrize("env, argv", BAD_INPUTS, ids=_bad_input_id)
def test_bad_input_exits_one_with_error(env, argv, lb_instance, lb4_instance, capsys,
                                        monkeypatch):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [a.format(lb3=lb_instance, lb4=lb4_instance) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("field, value", [
    ("distance_matrix", [[0.0, 1.0, 2.0], [1.0, 0.0], [2.0, 1.0, 0.0]]),
    ("distance_matrix", [[0.0, 1.0, 2.0], [1.0, 0.0, "x"], [2.0, "x", 0.0]]),
    ("coords", [[0.0, 0.0], [1.0], [2.0, 0.0]]),
    ("coords", [0.0, "x", 2.0]),
    ("coords", [1e200, -1e200, 0.0]),
], ids=["ragged-matrix", "text-in-matrix", "ragged-coords", "text-in-coords",
        "overflowing-coords"])
def test_validate_rejects_malformed_table(field, value, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "dropoff_mode": "single", field: value,
                                "alpha_op": 1.0, "alphas": [1.0, 1.0], "regime": "finite"}))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert out == ""


def test_lower_bound_reverse_route_is_infeasible(lb4_instance, capsys):
    code, _, _ = run_cli(capsys, "check-route", lb4_instance, "--route", "4,3,2,1")
    assert code == 2


@pytest.mark.parametrize("tolerance", ["1e-9", "0"])
@pytest.mark.parametrize("m_prime", [None, 1, 3, 6, 7])
def test_allocate_cli_matches_library(m_prime, tolerance, tmp_path, capsys):
    # at tolerance 0 the result is certified within the solver's rounding
    path = tmp_path / "alloc.json"
    random_euclidean_instance(np.random.default_rng(47), 6).save(path)
    argv = ["allocate", str(path), "--json", "--tolerance", tolerance]
    if m_prime is not None:
        argv += ["--m-prime", str(m_prime)]
    code, out, err = run_cli(capsys, *argv)
    if m_prime == 7:
        assert code == 1
        assert err == "error: vehicle guess 7 out of range 1..6\n"
        return
    lib = ss.optimal_allocation(ss.Instance.load(path), m_prime=m_prime)  # default tolerance
    assert code == 0
    assert json.loads(out) == {
        "vehicles": [list(v) for v in lib.vehicles],
        "m_prime": lib.m_prime,
        "total_miles": float(f"{lib.total_miles:.12g}"),
    }


def test_validate_checks_the_table_once(tmp_path, capsys, monkeypatch):
    # a planted triangle violation keeps the report non-trivial
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    path = tmp_path / "planted.json"
    path.write_text(json.dumps({"n": 2, "dropoff_mode": "single", "distance_matrix": d.tolist(),
                                "alpha_op": 1.0, "alphas": [1.0, 1.0], "regime": "finite",
                                "metric_flag": True}))
    real = ss.instances.validate_metric
    calls = []

    def counted(table, rel_tol=ss.numeric.DEFAULT_REL_TOL):
        calls.append(rel_tol)
        return real(table, rel_tol)

    monkeypatch.setattr(ss.instances, "validate_metric", counted)
    for extra, expected_calls in (([], [1e-9]), (["--tolerance", "0"], [0.0])):
        calls.clear()
        code, out, _ = run_cli(capsys, "validate", str(path), "--json", *extra)
        assert code == 2  # declared metric, but it is not
        assert calls == expected_calls
        rel = expected_calls[-1]
        assert json.loads(out)["violations"] == [
            {"kind": v.kind, "indices": list(v.indices), "excess": v.excess}
            for v in real(d, rel).violations
        ]


def test_validate_reuses_the_load_check_of_an_undeclared_flag(tmp_path, capsys, monkeypatch):
    # no declared flag: the load computes it, and validate reuses that scan at its tolerance
    d = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    path = tmp_path / "planted.json"
    path.write_text(json.dumps({"n": 2, "dropoff_mode": "single", "distance_matrix": d,
                                "alpha_op": 1.0, "alphas": [1.0, 1.0], "regime": "finite"}))
    real = ss.instances.validate_metric
    calls = []

    def counted(table, rel_tol=ss.numeric.DEFAULT_REL_TOL):
        calls.append(rel_tol)
        return real(table, rel_tol)

    monkeypatch.setattr(ss.instances, "validate_metric", counted)
    for extra, expected_calls in (([], [1e-9]), (["--tolerance", "0"], [1e-9, 0.0])):
        calls.clear()
        code, out, _ = run_cli(capsys, "validate", str(path), "--json", *extra)
        assert code == 0  # computed flag False, so consistent
        assert calls == expected_calls
        assert [v["kind"] for v in json.loads(out)["violations"]] == ["triangle"]
