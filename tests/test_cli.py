import json

import pytest

from funcdecomp import cli

from oracles import all_close


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


def test_residual_tolerance_controls_exit(capsys):
    # large scale makes the additivity residual measurably non-zero
    args = ("decompose", "-d", "3", "-f", "1e10*(exp(x1)-1) + x2*x3 + 1e-7*x1*x3",
            "-x", "0.31,0.77,0.93")
    code, _, _ = run(capsys, *args, "--tol", "1e-30")
    assert code == 1
    code, _, _ = run(capsys, *args, "--tol", "1")
    assert code == 0


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
    code, _, _ = run(capsys, "shapley", path)
    assert code == 4


def test_shapley_exit_3_on_boolean_dimension(capsys, tmp_path):
    code, out, err = run(capsys, "shapley", write_game(tmp_path, {"d": True, "values": {"1": 2.0}}))
    assert code == 3
    assert out == "" and err.startswith("error:")


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
    code, _, err = run(capsys, "axioms", str(path))
    assert code == 2
    assert "no functions" in err


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
])
def test_axioms_malformed_corpus_spec_exits_2(capsys, tmp_path, spec, message):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "axioms", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (("--functions", "0"), "n_functions must be at least 1, got 0"),
    (("--functions", "-1"), "n_functions must be at least 1, got -1"),
    (("--points", "0"), "n_points must be at least 1, got 0"),
    (("--points", "-2"), "n_points must be at least 1, got -2"),
    (("--perms", "-1"), "n_permutations must be at least 0, got -1"),
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
