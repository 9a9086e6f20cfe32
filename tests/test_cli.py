import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from funcdecomp import cli, demo, expr
from funcdecomp import game as gm

from oracles import all_close
from test_expr import _record_blocks


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


def write_game(tmp_path, obj, name="game.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# decompose


def test_decompose_delta_star_worked_example(capsys):
    code, payload, _ = run_json(
        capsys, "decompose", "-d", "2", "-f", "(x1+2)*(x2+3)-6",
        "-x", "1,1", "--method", "delta-star")
    assert code == 0
    row = payload["rows"][0]
    assert row["contributions"] == [3.5, 2.5]
    assert row["total"] == 6.0


def test_decompose_fixed_cost_split(capsys):
    code, payload, _ = run_json(
        capsys, "decompose", "-d", "3", "-f", "10 + 2*(x1+x2+x3)",
        "-x", "1,2,3", "--method", "delta-star")
    assert code == 0
    assert all_close(payload["rows"][0]["contributions"], [16 / 3, 22 / 3, 28 / 3],
                     rel=1e-11, abs_=1e-11)


def test_decompose_single_argument(capsys):
    code, payload, _ = run_json(capsys, "decompose", "-d", "1", "-f", "x1^3", "-x", "2")
    assert code == 0
    assert payload["rows"][0]["contributions"] == [8.0]


def test_decompose_sequential_with_order(capsys):
    code, payload, _ = run_json(
        capsys, "decompose", "-d", "2", "-f", "x1*x2 + x1", "-x", "2,3",
        "--method", "sequential", "--perm", "2,1")
    assert code == 0
    assert payload["rows"][0]["contributions"] == [8.0, 0.0]
    # errors name the 1-based ranks as given
    for perm in ("0,1,2", "2,3,4", "1,1,3"):
        assert run(capsys, "decompose", "-d", "3", "-f", "x1*x2*x3", "-x", "1,2,3",
                   "--method", "sequential", "--perm", perm) == (
            2, "", f"error: not a permutation of 1..3: ({perm.replace(',', ', ')})\n")


def test_perm_needs_the_sequential_method(capsys):
    for method in (("--method", "as"), ("--method", "delta-star"), ()):
        code, out, err = run(capsys, "decompose", "-d", "3", "-f", "x1*x2*x3", "-x", "1,2,3",
                             *method, "--perm", "2,1,3")
        assert (code, out, err) == (2, "", "error: --perm needs --method sequential\n")


SAMPLING_OPTIONS = [("--samples", "1"), ("--seed", "3"), ("--workers", "0")]


@pytest.mark.parametrize("method", ["sequential", "as", "delta-star", "pointwise"])
@pytest.mark.parametrize("option", SAMPLING_OPTIONS, ids=lambda o: o[0])
def test_sampling_options_need_a_sampling_method(capsys, tmp_path, method, option):
    table = tmp_path / "table.csv"
    argv = ("decompose", "-d", "2", "-f", "x1*x2", "-x", "1,2", "--method", method)
    assert run(capsys, *argv, *option, "--dump-table", str(table)) == (
        2, "", f"error: {option[0]} needs --method mc or auto\n")
    assert not table.exists()
    # the first of --samples, --seed and --workers that was given is named
    assert run(capsys, *argv, "--workers", "0", *option) == (
        2, "", f"error: {option[0]} needs --method mc or auto\n")


def test_auto_accepts_the_sampling_options_at_an_exact_dimension(capsys):
    argv = ("decompose", "-d", "3", "-f", "x1*x2 + x3", "-x", "1,2,3")
    given = [part for option in SAMPLING_OPTIONS for part in option]
    plain = run(capsys, *argv)
    assert plain[0] == 0 and run(capsys, *argv, *given) == plain


def test_decompose_method_auto_resolves_to_delta_star(capsys):
    code, payload, _ = run_json(capsys, "decompose", "-d", "2", "-f", "x1 + 7", "-x", "1,1")
    assert code == 0
    assert payload["method"] == "delta_star"


def test_decompose_monte_carlo(capsys):
    code, payload, _ = run_json(
        capsys, "decompose", "-d", "2", "-f", "x1*x2", "-x", "2,3",
        "--method", "mc", "--samples", "500", "--seed", "3")
    assert code == 0
    row = payload["rows"][0]
    assert "standard_error" in row
    assert abs(sum(row["contributions"]) - 6.0) < 1e-9


def test_decompose_points_csv(capsys, tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("x1,x2\n1,1\n2,3\n")
    code, payload, _ = run_json(
        capsys, "decompose", "-d", "2", "-f", "x1*x2", "--points-csv", str(path))
    assert code == 0
    assert len(payload["rows"]) == 2
    assert payload["rows"][1]["contributions"] == [3.0, 3.0]


@pytest.mark.parametrize("text, message", [
    ("x1,x2\n1,2\n3,abc\n", "line 3: bad value 'abc'"),
    ("x1,x2\n1,2\n\nnan,1\n", "line 4: value 'nan' is not finite"),
    ("x1,x2\n1,inf\n", "line 2: value 'inf' is not finite"),
])
def test_points_csv_errors_name_the_line(capsys, tmp_path, text, message):
    path = tmp_path / "points.csv"
    path.write_text(text)
    assert run(capsys, "decompose", "-d", "2", "-f", "x1*x2", "--points-csv", str(path)) == (
        2, "", f"error: {message}\n")


@pytest.mark.parametrize("method", ["delta-star", "as", "sequential", "pointwise", "mc"])
def test_points_csv_reports_the_first_error_in_point_order(capsys, tmp_path, method):
    path = tmp_path / "points.csv"
    path.write_text("x1,x2\n1,2\n-2,1\nnan,1\n")
    samples = ("--samples", "20") if method == "mc" else ()
    code, out, err = run(capsys, "decompose", "-d", "2", "-f", "ln(x1+1)*x2",
                         "--points-csv", str(path), "--method", method, *samples)
    assert (code, out, err) == (2, "", "error: ln of non-positive value -1.0\n")
    # F(0) = 1: the origin check comes before the second point's domain error
    code, out, err = run(capsys, "decompose", "-d", "2", "-f", "1+ln(x1+1)*x2",
                         "--points-csv", str(path), "--method", method, *samples)
    if method != "delta-star":
        assert code == 4 and out == "" and err.endswith("hint: use --method delta-star\n")
    else:
        assert (code, out, err) == (2, "", "error: ln of non-positive value -1.0\n")


def test_values_starting_with_a_minus_in_equals_form(capsys):
    code, payload, _ = run_json(
        capsys, "decompose", "-d", "2", "--function=-x1^2", "--point=-1.5,2",
        "--method", "delta-star")
    assert code == 0
    row = payload["rows"][0]
    assert row["contributions"] == [-2.25, 0.0]
    assert row["total"] == -2.25


def test_exit_code_2_on_parse_error(capsys):
    code, _, err = run(capsys, "decompose", "-d", "2", "-f", "x3 + 1", "-x", "1,1")
    assert code == 2
    assert "position" in err


def test_exit_code_2_on_bad_point(capsys):
    code, _, err = run(capsys, "decompose", "-d", "2", "-f", "x1", "-x", "1,zap")
    assert code == 2


def test_exit_code_2_above_the_sampling_dimension_cap(capsys):
    terms = "+".join(f"x{i}" for i in range(1, 65))
    code, _, err = run(capsys, "decompose", "-d", "64", "-f", terms, "-x", ",".join(["1"] * 64),
                       "--samples", "200")
    assert code == 2
    assert "dimension 64 exceeds the cap 63" in err


def test_sequential_runs_above_the_sampling_dimension_cap(capsys):
    terms = "+".join(f"x{i}" for i in range(1, 101))
    code, out, _ = run(capsys, "decompose", "-d", "100", "-f", terms, "-x", ",".join(["1"] * 100),
                       "--method", "sequential", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["contributions"] == [1.0] * 100


def test_decompose_long_sum_and_product(capsys):
    for text, total in (("+".join(["x1"] * 5000), 5000.0), ("*".join(["x1"] * 2000), 1.0)):
        code, payload, _ = run_json(capsys, "decompose", "-d", "2", "-f", text, "-x", "1,1")
        assert code == 0
        assert payload["rows"][0]["total"] == total


def test_exit_code_2_on_nesting_too_deep(capsys):
    for text in ("(" * 300 + "x1" + ")" * 300, "-" * 1500 + "x1", "^".join(["x1"] * 1200)):
        code, out, err = run(capsys, "decompose", "-d", "1", f"--function={text}", "-x", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: expression nested too deeply") and err.count("\n") == 1


def test_decompose_method_names_above_the_exact_cap(capsys):
    terms = "+".join(f"x{i}" for i in range(1, 22))
    point = ",".join(["1"] * 21)
    _, auto, _ = run_json(capsys, "decompose", "-d", "21", "-f", terms, "-x", point,
                          "--samples", "20")
    _, mc, _ = run_json(capsys, "decompose", "-d", "21", "-f", terms, "-x", point,
                        "--samples", "20", "--method", "mc")
    assert auto["method"] == "monte_carlo_delta_star(seed=0, n=20)"
    assert mc["method"] == "monte_carlo(seed=0, n=20)"


def test_exit_code_4_on_origin_violation(capsys):
    code, _, err = run(capsys, "decompose", "-d", "2", "-f", "x1 + 1", "-x", "1,1",
                       "--method", "as")
    assert code == 4
    assert "delta-star" in err


def test_exit_code_4_when_the_origin_fails_before_a_later_point(capsys):
    code, _, err = run(capsys, "decompose", "-d", "2", "-f", "1 + ln(1 - x2)", "-x", "1,1",
                       "--method", "as")
    assert code == 4
    assert "delta-star" in err


@pytest.mark.parametrize("d, hint", [(20, "hint: use --method delta-star\n"),
                                     (30, "hint: use --method auto\n"),
                                     (63, "hint: use --method auto\n"),
                                     (70, "")])
def test_origin_hint_names_a_method_that_runs_at_the_dimension(capsys, d, hint):
    point = ",".join(["1"] * d)
    for method, samples in (("mc", ("--samples", "10")), ("sequential", ())):
        code, out, err = run(capsys, "decompose", "-d", str(d), "-f", "x1 + 1", "-x", point,
                             "--method", method, *samples)
        if method == "mc" and d > 63:
            assert code == 2 and "exceeds the cap 63" in err
            continue
        assert code == 4 and out == ""
        assert err.count("\n") == 1 + bool(hint) and err.endswith("evenly\n" + hint)
    if hint:
        suggested = hint.split()[-1]
        samples = ("--samples", "10") if suggested == "auto" else ()
        code, _, _ = run(capsys, "decompose", "-d", str(d), "-f", "x1 + 1", "-x", point,
                         "--method", suggested, *samples)
        assert code == 0


def test_residual_tolerance_controls_exit(capsys):
    # large scale makes the additivity residual measurably non-zero
    args = ("decompose", "-d", "3", "-f", "1e10*(exp(x1)-1) + x2*x3 + 1e-7*x1*x3",
            "-x", "0.31,0.77,0.93")
    code, _, _ = run(capsys, *args, "--tol", "1e-30")
    assert code == 1
    code, _, _ = run(capsys, *args, "--tol", "1")
    assert code == 0
    # a tolerance that is not a finite number of at least 0 is refused before any output
    for tol in ("nan", "-1", "inf"):
        assert run(capsys, *args, "--tol", tol) == (
            2, "", f"error: tolerance must be a finite number of at least 0, "
                   f"got {float(tol)!r}\n")


# ---------------------------------------------------------------------------
# masked tables


def dump_and_reload(capsys, tmp_path, d, text, x):
    table = tmp_path / "table.csv"
    code, direct, _ = run(
        capsys, "decompose", "-d", str(d), "-f", text, "-x", x,
        "--dump-table", str(table), "--format", "csv")
    assert code == 0
    code, relayed, _ = run(
        capsys, "decompose", "-d", str(d), "--table-csv", str(table), "-x", x,
        "--format", "csv")
    assert code == 0
    return direct, relayed


def test_table_round_trip_is_byte_identical(capsys, tmp_path):
    direct, relayed = dump_and_reload(
        capsys, tmp_path, 3, "x1*x2*x3 - 0.25*x2 + exp(x3) - 1", "0.7,-1.3,0.9")
    assert direct == relayed


def test_dump_table_is_capped_before_evaluating(capsys, tmp_path):
    table = tmp_path / "table.csv"
    code, out, err = run(capsys, "decompose", "-d", "21", "-f", "x1*x21",
                         "-x", ",".join(["1"] * 21), "--samples", "10", "--dump-table", str(table))
    assert (code, out, err) == (2, "", "error: dimension 21 exceeds the cap 20 of this method\n")
    assert not table.exists()


def test_exit_code_3_on_incomplete_table(capsys, tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("mask,value\n,0.0\n1,1.0\n2,2.0\n")  # missing 1+2
    code, _, err = run(capsys, "decompose", "-d", "2", "--table-csv", str(table),
                       "-x", "1,1")
    assert code == 3
    assert "incomplete" in err


def test_exit_code_3_on_duplicate_mask(capsys, tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("mask,value\n,0.0\n1,1.0\n1,2.0\n1+2,3.0\n")
    code, _, err = run(capsys, "decompose", "-d", "2", "--table-csv", str(table),
                       "-x", "1,1")
    assert code == 3


def test_exit_code_3_on_bad_header(capsys, tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("subset,value\n,0.0\n")
    code, _, _ = run(capsys, "decompose", "-d", "1", "--table-csv", str(table), "-x", "1")
    assert code == 3


def test_exit_code_3_on_non_finite_table_value(capsys, tmp_path):
    for bad in ("nan", "inf", "-inf"):
        table = tmp_path / "table.csv"
        table.write_text(f"mask,value\n,0.0\n1,{bad}\n")
        code, out, err = run(capsys, "decompose", "-d", "1", "--table-csv", str(table),
                             "-x", "1")
        assert code == 3
        assert out == ""
        assert err == f"error: line 3: value '{bad}' is not finite\n"


def test_table_mode_requires_anchor_point(capsys, tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("mask,value\n,0.0\n1,1.0\n")
    code, _, _ = run(capsys, "decompose", "-d", "1", "--table-csv", str(table))
    assert code == 2


# ---------------------------------------------------------------------------
# shapley


def test_shapley_two_player_game(capsys, tmp_path):
    path = write_game(tmp_path, {"d": 2, "values": {"1": 1, "2": 2, "1,2": 4}})
    code, payload, _ = run_json(capsys, "shapley", path)
    assert code == 0
    assert payload["shares"] == [1.5, 2.5]
    assert payload["residual"] == 0.0


def test_shapley_zero_game(capsys, tmp_path):
    path = write_game(tmp_path, {"d": 2, "values": {"": 0, "1": 0, "2": 0, "1,2": 0}})
    code, payload, _ = run_json(capsys, "shapley", path)
    assert code == 0
    assert payload["shares"] == [0.0, 0.0]


def test_shapley_additive_game(capsys, tmp_path):
    w = [1.0, 2.0, 3.0]
    values = {}
    for m in range(1, 8):
        key = ",".join(str(i + 1) for i in range(3) if m >> i & 1)
        values[key] = sum(w[i] for i in range(3) if m >> i & 1)
    path = write_game(tmp_path, {"d": 3, "values": values})
    code, payload, _ = run_json(capsys, "shapley", path)
    assert code == 0
    assert payload["shares"] == w


def test_shapley_exit_3_on_missing_coalition(capsys, tmp_path):
    path = write_game(tmp_path, {"d": 2, "values": {"1": 1, "2": 2}})
    code, _, err = run(capsys, "shapley", path)
    assert code == 3
    assert "missing" in err


def test_shapley_exit_4_on_normalization(capsys, tmp_path):
    path = write_game(tmp_path, {"d": 1, "values": {"": 0.5, "1": 1}})
    code, _, err = run(capsys, "shapley", path)
    assert code == 4
    assert "hint" not in err  # --method belongs to decompose only


def test_shapley_exit_3_on_boolean_dimension(capsys, tmp_path):
    code, out, err = run(capsys, "shapley", write_game(tmp_path, {"d": True, "values": {"1": 2.0}}))
    assert code == 3
    assert out == "" and err.startswith("error:")


def test_shapley_exit_3_on_a_payoff_beyond_the_float_range(capsys, tmp_path):
    path = write_game(tmp_path, {"d": 1, "values": {"1": 10 ** 400}})  # a 401-digit integer
    code, out, err = run(capsys, "shapley", path)
    assert (code, out, err) == (3, "", "error: payoff for '1' is not a finite number\n")


def test_shapley_exit_3_on_a_non_finite_payoff(capsys, tmp_path):
    for text, key in [('{"d": 2, "values": {"2": Infinity, "1": NaN, "1,2": 1}}', "2"),
                      ('{"d": 1, "values": {"": NaN, "1": 1}}', ""),
                      ('{"d": 1, "values": {"": 0, "1": -Infinity}}', "1")]:
        path = tmp_path / "game.json"
        path.write_text(text)
        code, out, err = run(capsys, "shapley", str(path))
        assert (code, out, err) == (3, "", f"error: payoff for '{key}' is not a finite number\n")


def test_shapley_exit_3_on_a_payoff_of_more_digits_than_int_may_convert(capsys, tmp_path):
    path = tmp_path / "game.json"
    path.write_text('{"d": 1, "values": {"1": 1' + "0" * 5000 + "}}")
    code, out, err = run(capsys, "shapley", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: an integer in the game JSON has more than ")
    assert err.count("\n") == 1 and "set_int_max_str_digits" not in err
    path.write_text('{"d": 1, "values": {')  # text that is not JSON stays a usage error
    code, out, err = run(capsys, "shapley", str(path))
    assert (code, out) == (2, "") and err.startswith("error: Expecting")


def test_shapley_reads_keys_in_any_spelling(capsys, tmp_path):
    (tmp_path / "a").mkdir()
    spelled = write_game(tmp_path / "a", {"d": 2, "values": {" 02 , 1": 4, "+1": 1, "2 ": 2}})
    canonical = write_game(tmp_path, {"d": 2, "values": {"1": 1, "2": 2, "1,2": 4}})
    assert run(capsys, "shapley", spelled) == run(capsys, "shapley", canonical)
    code, out, err = run(capsys, "shapley", write_game(tmp_path, {"d": 2, "values": {"1,01": 1}}))
    assert (code, out, err) == (3, "", "error: repeated index in coalition key '1,01'\n")


def test_deeply_nested_json_is_one_error_line(capsys, tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "game.json"
    path.write_text('{"d": 1, "values": {"1": ' + deep + "}}")
    code, out, err = run(capsys, "shapley", str(path))
    assert (code, out, err) == (3, "", "error: the game JSON nests too deeply to read\n")
    path = tmp_path / "corpus.json"
    path.write_text('{"d": 2, "families": ' + deep + "}")
    code, out, err = run(capsys, "axioms", str(path))
    assert (code, out, err) == (2, "", "error: corpus spec: the JSON nests too deeply to read\n")


def test_json_files_are_read_as_utf8_in_an_ascii_locale(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": src}
    env.pop("PYTHONUTF8", None)
    (tmp_path / "game.json").write_text('{"d": 1, "values": {"\u00e9": 1}}', encoding="utf-8")
    (tmp_path / "corpus.json").write_text('{"d": 2, "\u00e9": 1}', encoding="utf-8")
    (tmp_path / "points.csv").write_text("x1,x2\n1,2\n3,\u00e9\n", encoding="utf-8")
    (tmp_path / "table.csv").write_text("mask,value\n,0\n1,1\n2,2\n1+2,\u00e9\n",
                                        encoding="utf-8")
    # stderr is ASCII here, so the key or value prints escaped
    for argv, code, err in [(["shapley", "game.json"], 3, "error: bad coalition key '\\xe9'\n"),
                            (["axioms", "corpus.json"], 2,
                             "error: corpus spec: unknown key '\\xe9'\n"),
                            (["decompose", "-d", "2", "-f", "x1*x2", "--points-csv", "points.csv"],
                             2, "error: line 3: bad value '\\xe9'\n"),
                            (["decompose", "-d", "2", "--table-csv", "table.csv", "-x", "1,1"],
                             3, "error: line 5: bad value '\\xe9'\n")]:
        done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "funcdecomp", *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (code, "", err)


def test_json_errors_name_the_offset_in_the_file_as_written(capsys, tmp_path):
    # a CRLF line end is two characters of the file, and the offset counts both
    for command, text in (("shapley", '{"d": 2,\r\n "values": x}'),
                          ("axioms", '{"d": 2,\r\n "seed": x}')):
        path = tmp_path / "input.json"
        path.write_bytes(text.encode())
        code, out, err = run(capsys, command, str(path))
        at = text.index("x")
        assert (code, out) == (2, "")
        assert err == f"error: Expecting value: line 2 column {at - 9} (char {at})\n"


def load_perfbench(monkeypatch, name):
    here = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(here))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", here / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_game_is_read_without_its_dict(capsys, tmp_path, monkeypatch):
    workloads = load_perfbench(monkeypatch, "workloads")
    text = workloads.game_op(np.random.default_rng([1, 0])).files["game.json"]
    path = tmp_path / "game.json"
    path.write_text(text)
    whole, dict_reads = [], []

    def counted(fn, calls, test=lambda *args: True):
        def wrapper(*args, **kwargs):
            calls.append(test(*args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(json, "loads", counted(json.loads, whole, lambda s, *_: s == text))
    monkeypatch.setattr(gm, "_payoffs_by_key", counted(gm._payoffs_by_key, dict_reads))
    monkeypatch.setattr(cli, "game_from_json", counted(cli.game_from_json, dict_reads))
    code, payload, _ = run_json(capsys, "shapley", str(path))
    assert (code, whole.count(True), dict_reads) == (0, 0, [])
    assert payload["d"] == 18


def test_the_benchmark_expressions_take_no_scalar_fallback(tmp_path, monkeypatch):
    # the first operations of the benchmark's expression workloads: a d = 16
    # polynomial over its 2^16 masks, the sampler's one call of about 71k
    # prefix masks at d = 40, and the default axiom suite; every block they
    # evaluate is clean, so none runs its points through the scalar path
    workloads = load_perfbench(monkeypatch, "workloads")
    clean = _record_blocks(monkeypatch)
    out = str(tmp_path / "report")
    for make in (workloads.exact_op, workloads.sampled_op, workloads.axioms_op):
        clean.clear()
        for op in range(2):
            argv = make(np.random.default_rng([1, op])).argv
            assert cli.main([arg.replace("{out}", out) for arg in argv]) == 0
        assert clean and all(clean)


def test_every_game_layout_gives_the_same_report(capsys, tmp_path):
    values = np.random.default_rng(9).uniform(-3, 3, 1 << 7)
    items = [(gm._coalition_key(m), float(values[m])) for m in range(1, 1 << 7)]
    shuffled = list(items)
    np.random.default_rng(2).shuffle(shuffled)
    texts = [json.dumps({"d": 7, "values": dict(items)}),
             json.dumps({"d": 7, "values": dict(items)}, separators=(",", ":")),
             json.dumps({"d": 7, "values": dict(items)}, indent=2),
             json.dumps({"d": 7, "values": dict(shuffled)})]
    fast = [gm.mask_ordered_game(io.StringIO(t)) is not None for t in texts]
    assert fast == [True, False, False, False]
    reports = []
    for k, text in enumerate(texts):
        (tmp_path / str(k)).mkdir()
        path = tmp_path / str(k) / "game.json"
        path.write_text(text)
        reports.append(run(capsys, "shapley", str(path), "--format", "json"))
    assert reports[0][0] == 0
    assert reports == reports[:1] * len(texts)


# ---------------------------------------------------------------------------
# axioms


def test_axioms_delta_star_passes(capsys):
    code, out, _ = run(capsys, "axioms", "--functions", "6", "--points", "10",
                       "--perms", "2", "-d", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and all(obj["status"] != "fail" for obj in lines)
    assert {obj["axiom"] for obj in lines} >= {"A1", "A2", "A9"}


def test_axioms_sequential_fails_a2_with_witness(capsys):
    code, out, _ = run(capsys, "axioms", "--principle", "sequential",
                       "--functions", "6", "--points", "10", "--perms", "3", "-d", "3")
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    failing = [obj for obj in lines if obj["axiom"] == "A2" and obj["status"] == "fail"]
    assert failing and failing[0]["witnesses"]


def test_axioms_corpus_spec_file(capsys, tmp_path):
    spec = {
        "d": 2, "n_points": 8, "n_permutations": 2, "seed": 5,
        "families": [
            {"family": "polynomial", "count": 2},
            {"family": "example1"},
        ],
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "axioms", str(path))
    assert code == 0
    assert out.strip()


def test_axioms_empty_corpus_exits_2(capsys, tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"d": 2, "families": []}))
    assert run(capsys, "axioms", str(path)) == (2, "", "error: no functions in the corpus\n")


@pytest.mark.parametrize("spec, message", [
    ([{"family": "polynomial"}], "corpus spec must be a JSON object, got list"),
    ({"d": 2, "families": [{"count": 2}]}, "corpus spec families[0] needs the key 'family'"),
    ({"n_functions": "3"}, "corpus spec: 'n_functions' must be of type int, got '3'"),
    ({"n_point": 5}, "corpus spec: unknown key 'n_point'"),
    ({"d": 2, "families": [{"family": "polynomial", "cout": 2}]},
     "corpus spec families[0]: unknown key 'cout'"),
    ({"d": 2, "families": [{"family": "polynomial", "families": []}]},
     "corpus spec families[0]: unknown key 'families'"),
    ({"n_points": 0}, "n_points must be at least 1, got 0"),
    ({"d": 2, "families": [{"family": "monomial", "params": {"q": [1]}}]},
     "q must be a list of d = 2 entries, got [1]"),
    ({"d": 3, "families": [{"family": "max_monomial", "params": {"q": [1, 2], "s": [1, -1]}}]},
     "q must be a list of d = 3 entries, got [1, 2]"),
    ({"d": 3, "families": [{"family": "max_monomial",
                            "params": {"q": [1, 2, 0], "s": [1, -1]}}]},
     "s must be a list of d = 3 entries, got [1, -1]"),
    ({"d": 2, "families": [{"family": "step_function", "params": {"grid": [0.5]}}]},
     "grid must be a list of d = 2 entries, got [0.5]"),
    ({"d": 3, "families": [{"family": "monomial", "params": {"q": [1.5, 1, 2]}}]},
     "q[0] must be an integer of at least 0, got 1.5"),
    ({"d": 2, "families": [{"family": "max_monomial", "params": {"q": [1, True]}}]},
     "q[1] must be an integer of at least 0, got True"),
    ({"d": 2, "families": [{"family": "monomial", "params": {"q": [2, -1]}}]},
     "q[1] must be an integer of at least 0, got -1"),
    ({"d": 2, "families": [{"family": "polynomial", "params": {"n_terms": 0}}]},
     "n_terms must be an integer of at least 1, got 0"),
    ({"d": 2, "families": [{"family": "polynomial", "params": {"degree": 0}}]},
     "degree without allow_constant must be an integer of at least 1, got 0"),
    ({"d": 2, "families": [{"family": "polynomial",
                            "params": {"degree": -1, "allow_constant": True}}]},
     "degree must be an integer of at least 0, got -1"),
    ({"d": 3, "families": [{"family": "example2", "params": {"discount_rate": 1.5}}]},
     "discount_rate and threshold must be given both or neither"),
    ({"d": 2, "families": [{"family": "polynomial", "params": {"coefficient_range": 5}}]},
     "coefficient_range must be a list of 2 numbers, got 5"),
    ({"d": 2, "families": [{"family": "polynomial", "params": {"coefficient_range": [1]}}]},
     "coefficient_range must be a list of 2 numbers, got [1]"),
    ({"d": 2, "families": [{"family": "polynomial",
                            "params": {"coefficient_range": [-1, "3"]}}]},
     "coefficient_range[1] must be a finite number, got '3'"),
    ({"d": 2, "families": [{"family": "step_function", "params": {"grid": ["a", 1]}}]},
     "grid[0] must be a finite number, got 'a'"),
    ({"d": 2, "families": [{"family": "step_function", "params": {"grid": [0.5, True]}}]},
     "grid[1] must be a finite number, got True"),
    ({"d": 2, "families": [{"family": "polynomial", "count": 1},
                           {"family": "monomial", "params": {"q": [1]}}]},
     "q must be a list of d = 2 entries, got [1]"),
    ({"d": 2, "families": [{"family": "mystery"}]},
     "unknown corpus family 'mystery'"),
    ({"tolerance": float("nan")}, "tolerance must be a finite number of at least 0, got nan"),
    ({"d": 2, "families": [{"family": "polynomial", "params": {"n_terms": 1, "degre": 9}}]},
     "family 'polynomial' has no parameter 'degre'"),
    ({"d": 2, "families": [{"family": "example1", "params": {"q": [1, 2]}}]},
     "family 'example1' has no parameter 'q'"),
    ({"d": 2, "families": [{"family": "polynomial", "count": 0}]},
     "count must be an integer of at least 1, got 0"),
    ({"d": 2, "families": [{"family": "constant", "count": -3}]},
     "count must be an integer of at least 1, got -3"),
    ({"d": 2, "families": [{"family": "constant", "params": {"c": float("inf")}}]},
     "c must be a finite number, got inf"),
    ({"d": 2, "families": [{"family": "example1", "params": {"s0": "a"}}]},
     "s0 must be a finite number, got 'a'"),
    ({"d": 2, "families": [{"family": "example1", "params": {"s0": 1e308, "c0": 10}}]},
     "s0 * c0 must be a finite number, got inf"),
    ({"d": 2, "families": [{"family": "example1", "params": {"c0": None}}]},
     "c0 must be a finite number, got None"),
    ({"d": 2, "families": [{"family": "polynomial",
                            "params": {"coefficient_range": [-1e308, 1e308]}}]},
     "coefficient_range[1] - coefficient_range[0] must be a finite number, got inf"),
    ({"d": 3, "families": [{"family": "example2", "params": {"rate": "2"}}]},
     "rate must be a finite number, got '2'"),
    ({"d": 3, "families": [{"family": "example2", "params": {"base": float("nan")}}]},
     "base must be a finite number, got nan"),
    ({"d": 3, "families": [{"family": "example2",
                            "params": {"discount_rate": True, "threshold": 5}}]},
     "discount_rate must be a finite number, got True"),
    ({"d": 3, "families": [{"family": "example2",
                            "params": {"discount_rate": 1.5, "threshold": [5]}}]},
     "threshold must be a finite number, got [5]"),
])
def test_axioms_malformed_corpus_spec_exits_2(capsys, tmp_path, spec, message):
    if "families" in spec and not message.startswith("corpus spec"):
        # an error in a family's parameters names the entry, here the last one
        message = f"corpus spec families[{len(spec['families']) - 1}]: {message}"
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "axioms", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_axioms_exits_2_when_a_sum_of_functions_overflows(capsys, tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"d": 2, "n_points": 3, "families": [
        {"family": "constant", "count": 2, "params": {"c": 1.7e308}}]}))
    assert run(capsys, "axioms", str(path)) == (
        2, "", "error: 1.0*1.7e+308 + 1.0*1.7e+308 is not finite at (0.0, 0.0): nan\n")


@pytest.mark.parametrize("flags, message", [
    (("--functions", "0"), "n_functions must be at least 1, got 0"),
    (("--functions", "-1"), "n_functions must be at least 1, got -1"),
    (("--points", "0"), "n_points must be at least 1, got 0"),
    (("--points", "-2"), "n_points must be at least 1, got -2"),
    (("--perms", "-1"), "n_permutations must be at least 0, got -1"),
    (("--tol", "nan"), "tolerance must be a finite number of at least 0, got nan"),
    (("--tol", "-1"), "tolerance must be a finite number of at least 0, got -1.0"),
])
def test_axioms_rejects_out_of_range_counts(capsys, flags, message):
    code, out, err = run(capsys, "axioms", *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_axioms_and_example3_accept_a_negative_seed(capsys):
    code, out, err = run(capsys, "axioms", "--seed", "-1", "-d", "2", "--functions", "3",
                         "--points", "4", "--perms", "1")
    assert code == 0 and err == ""
    assert [json.loads(line) for line in out.strip().splitlines()]
    code, payload, err = run_json(capsys, "example3", "--seed", "-1", "-d", "2",
                                  "--portfolio", "5", "--scenarios", "1000")
    assert code == 0 and err == ""
    assert payload["seed"] == -1


def test_axioms_rejects_a_non_positive_dimension(capsys):
    for d in ("0", "-3"):
        code, out, err = run(capsys, "axioms", "-d", d, "--functions", "2", "--points", "2")
        assert code == 2
        assert out == ""
        assert "dimension must be a positive integer" in err


# ---------------------------------------------------------------------------
# examples


def test_example1_matches_closed_form(capsys):
    code, payload, _ = run_json(capsys, "example1", "--s0", "2", "--c0", "3", "-x", "1,1")
    assert code == 0
    row = payload["rows"][0]
    assert row["contributions"] == [3.5, 2.5]
    assert row["reference"] == [3.5, 2.5]
    # here the residual is 0 and the closed form differs in the last bit, so
    # --tol decides the exit code through the deviation alone
    argv = ("example1", "--s0", "0.1", "--c0", "0.2", "-x", "0.3,1")
    code, payload, _ = run_json(capsys, *argv, "--tol", "0")
    assert (code, payload["rows"][0]["residual"]) == (1, 0.0)
    assert run_json(capsys, *argv, "--tol", "1e-16")[0] == 0


def test_example2_splits_fixed_costs_evenly(capsys):
    code, payload, _ = run_json(capsys, "example2", "--readings", "1,2,3")
    assert code == 0
    assert payload["fixed_cost_per_head"] == pytest.approx(10 / 3, rel=1e-11)
    assert all_close(payload["rows"][0]["contributions"], [16 / 3, 22 / 3, 28 / 3],
                     rel=1e-10, abs_=1e-10)


def test_example2_with_volume_discount(capsys):
    code, payload, _ = run_json(capsys, "example2", "--readings", "2,3,4",
                                "--discount-rate", "1.0", "--threshold", "5")
    assert code == 0
    row = payload["rows"][0]
    assert abs(sum(row["contributions"]) - row["total"]) < 1e-9


@pytest.mark.parametrize("flags", [("--discount-rate", "1.5"), ("--threshold", "5")])
def test_example2_needs_discount_rate_and_threshold_together(capsys, flags):
    assert run(capsys, "example2", "--readings", "1,2,3", *flags) == (
        2, "", "error: discount_rate and threshold must be given both or neither\n")


@pytest.mark.parametrize("argv, message", [
    (("example1", "--s0", "nan"), "s0 must be a finite number, got nan"),
    (("example1", "--c0", "inf"), "c0 must be a finite number, got inf"),
    (("example1", "--s0", "1e308", "--c0", "10"), "s0 * c0 must be a finite number, got inf"),
    (("example2", "--base=-inf"), "base must be a finite number, got -inf"),
    (("example2", "--rate", "inf"), "rate must be a finite number, got inf"),
    (("example2", "--discount-rate", "nan", "--threshold", "5"),
     "discount_rate must be a finite number, got nan"),
    (("example2", "--discount-rate", "1.5", "--threshold", "1e999"),
     "threshold must be a finite number, got inf"),
])
def test_example_options_must_be_finite_numbers(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_example3_zero_moves_give_zero(capsys):
    code, payload, _ = run_json(capsys, "example3", "-d", "2", "--portfolio", "10",
                                "--scenarios", "1500", "--seed", "3", "-x", "0,0")
    assert code == 0
    row = payload["rows"][0]
    assert row["total"] == 0.0
    assert row["contributions"] == [0.0, 0.0]


def test_example3_single_active_factor_takes_all(capsys):
    code, payload, _ = run_json(capsys, "example3", "-d", "3", "--portfolio", "10",
                                "--scenarios", "1500", "--seed", "3", "-x", "0.4,0,0")
    assert code == 0
    row = payload["rows"][0]
    assert row["contributions"][1] == 0.0 and row["contributions"][2] == 0.0
    assert row["contributions"][0] == row["total"]


def test_example3_symmetric_model_splits_evenly(capsys):
    code, payload, _ = run_json(capsys, "example3", "-d", "2", "--portfolio", "8",
                                "--scenarios", "2000", "--seed", "5",
                                "--loading", "0.3", "-x", "0.2,0.2")
    assert code == 0
    g1, g2 = payload["rows"][0]["contributions"]
    assert abs(g1 - g2) <= 1e-9


def test_example3_rejects_small_scenario_sets(capsys):
    code, _, err = run(capsys, "example3", "--scenarios", "500")
    assert code == 2
    assert "scenario" in err


@pytest.mark.parametrize("loading", ["nan", "inf", "-inf"])
def test_example3_loading_must_be_a_finite_number(capsys, loading):
    assert run(capsys, "example3", f"--loading={loading}") == (
        2, "", f"error: loading must be a finite number, got {loading}\n")


def test_claims_movement_checks_the_loading_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before checking the loading")

    monkeypatch.setattr(demo, "seeded_rng", no_draw)
    with pytest.raises(ValueError, match="^loading must be a finite number, got nan$"):
        demo.claims_movement(10, 2, 1000, 0, loading=float("nan"))
    # the rule of the other finite-number parameters: an int or a float only
    for loading in (True, "0.2"):
        with pytest.raises(ValueError, match="^loading must be a finite number, got "):
            demo.claims_movement(10, 2, 1000, 0, loading=loading)


# ---------------------------------------------------------------------------
# output behavior


def test_output_file_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run(capsys, "decompose", "-d", "2", "-f", "x1*x2", "-x", "2,3",
                         "--format", "json", "-o", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_table_format_renders_columns(capsys):
    code, out, _ = run(capsys, "decompose", "-d", "2", "-f", "x1*x2", "-x", "2,3")
    assert code == 0
    header, *_ = [line for line in out.splitlines() if "G1" in line]
    assert "x1" in header and "G2" in header and "residual" in header


def test_csv_format_header(capsys):
    code, out, _ = run(capsys, "decompose", "-d", "2", "-f", "x1*x2", "-x", "2,3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "x1,x2,G1,G2,total,residual"


def test_python_m_funcdecomp_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "funcdecomp", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: funcdecomp")


def test_fixed_runs_match_recorded_output(capsys, tmp_path):
    # exit code, stdout and stderr of fixed runs, hashed: a change to any printed bit shows here
    points = tmp_path / "points.csv"
    points.write_text("x1,x2,x3\n1,2,3\n-0.5,0.25,2\n0,1.5,-1\n")
    game = write_game(tmp_path, {"d": 3, "values": {
        "1": 1, "2": 2, "3": -1, "1,2": 4, "1,3": 0.5, "2,3": 3, "1,2,3": 7.25}})
    d16 = " + ".join(f"x{i}*x{i % 16 + 1}^2" for i in range(1, 17)) + " + exp(x3*x9) - 1"
    runs = [("decompose", "-d", "3", "-f", f, "-x", "1.5,-2,0.75", "--method", method)
            for f in ("x1*x2 + exp(x3) - 1 + x1^2*x3/(1 + x2^2)", "(x1+2)*(x2+3)*(x3+1)")
            for method in ("auto", "sequential", "as", "delta-star", "pointwise", "mc")]
    runs += [
        ("decompose", "-d", "16", "-f", d16, "--method", "delta-star",
         "--point=" + ",".join(str((7 * i) % 11 / 4 - 1) for i in range(16))),
        ("decompose", "-d", "3", "-f", "x1*x2*x3 + ln(1 + x1^2) + max(x2, x3)",
         "--points-csv", str(points), "--format", "json"),
        ("shapley", game),
        ("example1",), ("example2",), ("example3",),
    ]
    runs += [("axioms", "--principle", principle, "-d", "3", "--functions", "4",
              "--points", "5", "--perms", "2", "--seed", "11")
             for principle in ("as-subset", "delta-star", "first-coordinate", "sequential")]
    digest = hashlib.sha256()
    for argv in runs:
        code, out, err = run(capsys, *argv)
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == (
        "0efac99d233522e1843784f3c1f5bdc8e15d10544fc4b0095a1e0280a10d9e60")


def test_default_axiom_suites_match_recorded_output(capsys):
    # the suite at its SuiteConfig defaults, as the benchmark runs it, for
    # every principle: exit code, stdout and stderr, hashed
    digest = hashlib.sha256()
    for principle in ("as-subset", "delta-star", "first-coordinate", "sequential"):
        code, out, err = run(capsys, "axioms", "--principle", principle)
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == (
        "e2e34b43f2793f5053bd92a27550cb3e54a515de47ada34ae58eb300ae979cee")


def test_points_tables_and_sampling_runs_match_recorded_output(capsys, tmp_path):
    # the paths the digests above skip: many points for every exact method
    # and for sampling, a masked table, auto above the exact cap, and the
    # worker count, which changes no byte
    points = tmp_path / "points.csv"
    points.write_text("x1,x2,x3\n1,2,3\n-0.5,0.25,2\n0,1.5,-1\n0.125,-3,0.5\n")
    f = "x1*x2*x3 + ln(1 + x1^2) + x2*exp(x3) - x2"
    exact = [("--method", "sequential", "--perm", "3,1,2"), ("--method", "as"),
             ("--method", "pointwise"), ("--method", "delta-star")]
    runs = [("decompose", "-d", "3", "-f", f, "--points-csv", str(points), *method,
             "--format", out_format)
            for method in exact for out_format in ("table", "json", "csv")]
    runs.append(("decompose", "-d", "3", "-f", f, "--points-csv", str(points),
                 "--method", "mc", "--samples", "300", "--seed", "3", "--format", "json"))
    table = tmp_path / "table.csv"
    runs.append(("decompose", "-d", "3", "-f", "(x1+2)*(x2-1)*(x3+0.5)", "-x", "0.5,-1.5,2",
                 "--dump-table", str(table)))
    runs += [("decompose", "-d", "3", "--table-csv", str(table), "-x", "0.5,-1.5,2", *method)
             for method in (("--method", "delta-star"), ("--method", "sequential", "--perm",
                                                          "2,3,1"))]
    d22 = " + ".join(f"x{i}*x{i % 22 + 1}" for i in range(1, 23)) + " + 0.5*x1*x7*x13 + 2"
    runs.append(("decompose", "-d", "22", "-f", d22, "--samples", "200", "--seed", "8",
                 "--point=" + ",".join(str((5 * i) % 9 / 4 - 1) for i in range(22))))
    mc = ("decompose", "-d", "3", "-f", f, "-x", "1.5,-2,0.75", "--method", "mc",
          "--samples", "500", "--seed", "21")
    runs += [(*mc, "--workers", workers) for workers in ("1", "4", "0")]
    digest = hashlib.sha256()
    outputs = []
    for argv in runs:
        code, out, err = run(capsys, *argv)
        outputs.append((code, out, err))
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    digest.update(table.read_bytes())
    assert outputs[-3] == outputs[-2] and outputs[-3][0] == 0
    assert outputs[-1] == (2, "", "error: need at least 1 worker, got 0\n")
    assert digest.hexdigest() == (
        "bcde7786d794251f995bbb7cdd89624a9f6ad0b7fb12e4f33ad367553cf3c775")


def test_report_formats_and_tolerances_match_recorded_output(capsys, tmp_path):
    # the report paths the digests above skip: shapley, the examples and
    # many-point auto and sampled runs in every format, and each at --tol 0
    points = tmp_path / "points.csv"
    points.write_text("x1,x2,x3\n1,2,3\n-0.5,0.25,2\n0,1.5,-1\n")
    game = write_game(tmp_path, {"d": 3, "values": {
        "1": 0.1, "2": 0.2, "3": 0.3, "1,2": 0.7, "1,3": 0.45, "2,3": 1.1, "1,2,3": 1.3}})
    f = "x1*x2*x3 + exp(x2) - 1"
    commands = [
        ("shapley", game), ("example1",),
        ("example2", "--discount-rate", "1.5", "--threshold", "5"),
        ("example3", "--scenarios", "1000"),
        ("decompose", "-d", "3", "-f", f, "--points-csv", str(points)),
        ("decompose", "-d", "3", "-f", f, "--points-csv", str(points), "--method", "mc",
         "--samples", "200", "--seed", "4"),
    ]
    digest = hashlib.sha256()
    strict_codes = []
    for command in commands:
        for out_format in ("table", "json", "csv"):
            for tol in ((), ("--tol", "0")):
                code, out, err = run(capsys, *command, "--format", out_format, *tol)
                digest.update(f"{code}\n{out}\n{err}\n".encode())
                if tol:
                    strict_codes.append(code)
    # shapley, example3 and both decompose runs leave a rounding residual
    assert strict_codes == [1] * 3 + [0] * 6 + [1] * 9
    assert digest.hexdigest() == (
        "0140141ccf3ea82380bb59a435cad1f75c28e71366da98fa7b4ba7293f9c2e7e")


def test_claims_model_and_estimator_checks_match_recorded_output(capsys):
    # example3's model and its error order, and both estimators' checks in
    # order: the sample count, F(0), the d = 1 order and the split of F(0)
    example3 = ("example3", "-d", "4", "--portfolio", "20", "--scenarios", "1500",
                "--seed", "7", "--loading", "0.2")
    mc = ("decompose", "-d", "3", "-f", "x1*x2 + 1", "-x", "1,2,3", "--method", "mc")
    runs = [
        (*example3, "--format", "table"), (*example3, "--format", "json"),
        ("example3", "-d", "2", "--seed", "-1", "-x", "0.3,-0.2", "--format", "csv"),
        ("example3", "--scenarios", "999"),
        ("example3", "--portfolio", "0", "--scenarios", "10"),
        ("example3", "-d", "2", "-x", "1,2,3"),
        (*mc, "--samples", "1"), (*mc, "--samples", "50", "--seed", "2"),
        ("decompose", "-d", "21", "-f", "x1*x21 + 1", "--point=" + ",".join(["0.5"] * 21),
         "--samples", "50", "--seed", "2"),
        ("decompose", "-d", "3", "-f", "ln(x1) + x2", "-x", "1,2,3", "--method", "mc",
         "--samples", "10"),
        ("decompose", "-d", "1", "-f", "x1^2", "-x", "3", "--method", "mc",
         "--samples", "5", "--seed", "1"),
    ]
    digest = hashlib.sha256()
    codes = []
    for argv in runs:
        code, out, err = run(capsys, *argv)
        codes.append(code)
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert codes == [0, 0, 0, 2, 2, 2, 2, 4, 0, 2, 0]
    assert digest.hexdigest() == (
        "eb45abd83c4a1b9110bab40fbfe838d99022a7609fc2ced8f6e4e1999e6f4041")


# ---------------------------------------------------------------------------
# one way to evaluate


def test_no_package_path_calls_a_handle_as_a_function(capsys, tmp_path, monkeypatch):
    # the package reads F only through evaluate_table; fn(x) is for users
    table = tmp_path / "table.csv"
    zero = ("-f", "x1*x2 + exp(x3) - 1", "-x", "1.5,-2,0.75")
    runs = [("decompose", "-d", "3", *zero, "--method", method)
            for method in ("sequential", "as", "pointwise", "mc", "delta-star", "auto")]
    runs += [
        ("decompose", "-d", "3", "-f", "x1*x2 + 1", "-x", "1,2,3", "--method", "delta-star"),
        ("decompose", "-d", "3", "-f", "x1*x2 + 1", "-x", "1,2,3", "--method", "mc"),
        ("decompose", "-d", "3", "-f", "ln(x1) + x2", "-x", "1,2,3", "--method", "mc"),
        ("decompose", "-d", "1", "-f", "x1^2", "-x", "3", "--method", "mc", "--samples", "5"),
        ("decompose", "-d", "22", "-f", "x1*x22 + 2", "--point=" + ",".join(["0.5"] * 22),
         "--samples", "50"),
        ("decompose", "-d", "3", *zero, "--dump-table", str(table)),
        ("decompose", "-d", "3", "--table-csv", str(table), "-x", "1.5,-2,0.75",
         "--method", "mc", "--samples", "100"),
        ("example1",), ("example2",), ("example3", "--scenarios", "1000"),
    ]
    runs += [("axioms", "--principle", principle, "-d", "3", "--functions", "4",
              "--points", "5", "--perms", "2", "--seed", "11")
             for principle in ("as-subset", "delta-star")]
    outputs = [run(capsys, *argv) for argv in runs]
    assert [code for code, _, _ in outputs] == [0] * 7 + [4, 2] + [0] * 9

    def called(self, x):
        raise AssertionError(f"{self.label} called as a function")

    monkeypatch.setattr(expr.FunctionHandle, "__call__", called)
    assert [run(capsys, *argv) for argv in runs] == outputs
    fn = expr.compose_coordinate_maps(expr.ExpressionFunction("ln(x1) + x2", 2),
                                      [expr.ScaleMap(2.0), expr.ScaleMap(1.0)])
    with pytest.raises(expr.EvaluationError, match=r"^ln of non-positive value -2\.0$"):
        fn.evaluate_table([(1.0, 1.0), (-1.0, 1.0)], [3])


def test_every_benchmark_workload_runs_once_and_passes_its_check(tmp_path, monkeypatch):
    # one op of each workload of perfbench/run.py, in process: what the
    # benchmark would count as a failed or incorrect run fails here first
    bench = load_perfbench(monkeypatch, "run")
    assert bench.WORKLOADS
    for name, workload in bench.WORKLOADS.items():
        op = workload.make(np.random.default_rng([1, 0]))
        folder = tmp_path / name
        folder.mkdir()
        for file_name, content in op.files.items():
            (folder / file_name).write_text(content)
        report = folder / "report"
        argv = [a.replace("{out}", str(report)).replace("{dir}", str(folder)) for a in op.argv]
        assert cli.main(argv) == 0, name
        got = bench.w.read_report(str(report), workload.jsonl)
        assert workload.check(got, op.expected) is None, name


# ---------------------------------------------------------------------------
# benchmark tracer


def test_every_traced_name_resolves_in_the_package():
    # perfbench/tracing.py patches these names for --trace 1; a rename in the
    # package must fail here rather than in a traced benchmark run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for _, module, cls, attr in tracing.PATCHES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(vars(owner).get(attr)), f"{module} {cls or ''} has no {attr}"
