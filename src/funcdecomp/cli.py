"""Command-line front end: decompose expressions or black-box evaluation
tables, allocate coalition games, run the axiom suites, and reproduce the
three worked examples.

Exit codes: 0 success, 1 tolerance/axiom failure, 2 usage or parse error,
3 incomplete or malformed table, 4 origin-value violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys
from typing import Callable, Sequence

import numpy as np

from . import axioms, decomp, demo, montecarlo
from .core import (
    EXACT_SUBSET_CAP,
    MASK_DIMENSION_CAP,
    DimensionMismatchError,
    NonFiniteCoordinateError,
    NonzeroOriginError,
    indices_from_mask,
    mask_from_indices,
    permutation_from_ranks,
    project,
    validate_dimension,
)
from .expr import EvaluationError, ExpressionFunction, FunctionHandle, ParseError, TableFunction
from .game import GameFormatError, game_from_json, shapley

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TABLE = 3
EXIT_ORIGIN = 4

TABLE_DIGITS = 6
DATA_DIGITS = 12

log = logging.getLogger("funcdecomp")


class TableFormatError(ValueError):
    """A masked-evaluation table is incomplete or malformed."""


# ---------------------------------------------------------------------------
# Small formatting/IO helpers


def _round_sig(v: float) -> float:
    return float(f"{v:.{DATA_DIGITS}g}")


def _cell(v: float) -> str:
    return f"{v:.{TABLE_DIGITS}g}"


def _data_cell(v: float) -> str:
    return f"{v:.{DATA_DIGITS}g}"


def _write_output(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_point(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad point {text!r}; expected comma-separated numbers") from None


def _parse_ranks(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad permutation {text!r}; expected comma-separated integers") from None


def _read_points_csv(path: str, d: int) -> tuple[list[tuple[float, ...]], ValueError | None]:
    """The points of a CSV file before its first point that is not finite,
    and the error naming that point's line (None if all are finite)."""
    invalid = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = [f"x{i + 1}" for i in range(d)]
        if header is None or [h.strip() for h in header] != expected:
            raise ValueError(f"points CSV must start with header {','.join(expected)}")
        points = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d:
                raise ValueError(f"line {lineno}: expected {d} columns, got {len(row)}")
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(f"line {lineno}: bad value {cell!r}") from None
                if invalid is None and not math.isfinite(value):
                    invalid = ValueError(f"line {lineno}: value {cell!r} is not finite")
            if invalid is None:
                points.append(tuple(map(float, row)))
    if not points:
        raise invalid or ValueError("points CSV contains no points")
    return points, invalid


def _mask_key(mask: int) -> str:
    return "+".join(str(i) for i in indices_from_mask(mask))


def _parse_mask_key(text: str, d: int) -> int:
    text = text.strip()
    if not text:
        return 0
    try:
        indices = [int(part) for part in text.split("+")]
    except ValueError:
        raise TableFormatError(f"bad mask {text!r}") from None
    if len(set(indices)) != len(indices):
        raise TableFormatError(f"repeated index in mask {text!r}")
    try:
        return mask_from_indices(indices, d)
    except DimensionMismatchError as exc:
        raise TableFormatError(f"bad mask {text!r}: {exc}") from None


def _read_mask_table(path: str, d: int) -> dict[int, float]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["mask", "value"]:
            raise TableFormatError('table CSV must start with the header "mask,value"')
        table: dict[int, float] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise TableFormatError(f"line {lineno}: expected 2 columns, got {len(row)}")
            mask = _parse_mask_key(row[0], d)
            if mask in table:
                raise TableFormatError(f"line {lineno}: mask {row[0]!r} listed twice")
            try:
                value = float(row[1])
            except ValueError:
                raise TableFormatError(f"line {lineno}: bad value {row[1]!r}") from None
            if not math.isfinite(value):
                raise TableFormatError(f"line {lineno}: value {row[1]!r} is not finite")
            table[mask] = value
    missing = (1 << d) - len(table)
    if missing:
        raise TableFormatError(
            f"incomplete table: {missing} of {1 << d} masked evaluations missing"
        )
    return table


def _dump_mask_table(path: str, fn: FunctionHandle, x: Sequence[float]) -> None:
    validate_dimension(fn.d, EXACT_SUBSET_CAP)
    values = fn.evaluate_masks(x, np.arange(1 << fn.d)).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mask", "value"])
        for mask, value in enumerate(values):
            writer.writerow([_mask_key(mask), repr(value)])


# ---------------------------------------------------------------------------
# Report rendering


def _rows(points: Sequence[Sequence[float]], contributions: Sequence[Sequence[float]],
          totals: Sequence[float], errors: Sequence[Sequence[float]] | None = None) -> list[dict]:
    """One report row per point; ``errors`` are a sampled method's standard errors."""
    rows = []
    for k, (x, c, total) in enumerate(zip(points, np.asarray(contributions).tolist(),
                                          np.asarray(totals).tolist())):
        se = {} if errors is None else {"standard_error": list(errors[k])}
        rows.append({"x": list(x), "contributions": c, **se,
                     "total": total, "residual": abs(total - math.fsum(c))})
    return rows


def _decomposition_header(d: int, has_se: bool) -> list[str]:
    prefixes = ("x", "G", "SE") if has_se else ("x", "G")
    return [f"{p}{i + 1}" for p in prefixes for i in range(d)] + ["total", "residual"]


def _decomposition_cells(row: dict, has_se: bool, cell: Callable[[float], str]) -> list[str]:
    values = [*row["x"], *row["contributions"]]
    if has_se:
        values += row.get("standard_error", ())
    return [cell(v) for v in (*values, row["total"], row["residual"])]


def _render_decomposition(meta: dict, rows: list[dict], out_format: str) -> str:
    d = meta["d"]
    has_se = any("standard_error" in r for r in rows)
    if out_format == "json":
        payload = dict(meta)
        payload["rows"] = [
            {k: ([_round_sig(v) for v in val] if isinstance(val, (list, tuple)) else
                 (_round_sig(val) if isinstance(val, float) else val))
             for k, val in row.items()}
            for row in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    header = _decomposition_header(d, has_se)
    if out_format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_decomposition_cells(row, has_se, _data_cell)) for row in rows]
        return "\n".join(lines) + "\n"

    width = 12
    lines = ["  ".join(f"{k}: {v}" for k, v in meta.items())]
    lines.append(" ".join(f"{h:>{width}}" for h in header))
    for row in rows:
        cells = _decomposition_cells(row, has_se, _cell)
        lines.append(" ".join(f"{c:>{width}}" for c in cells))
        if "reference" in row:
            ref = [""] * d + [_cell(v) for v in row["reference"]]
            lines.append(" ".join(f"{c:>{width}}" for c in ref) + "  (closed form)")
    return "\n".join(lines) + "\n"


def _render_allocation(meta: dict, shares: Sequence[float], grand: float,
                       out_format: str) -> str:
    residual = abs(math.fsum(shares) - grand)
    if out_format == "json":
        payload = dict(meta)
        payload.update({
            "shares": [_round_sig(v) for v in shares],
            "grand_value": _round_sig(grand),
            "residual": _round_sig(residual),
        })
        return json.dumps(payload, indent=2) + "\n"
    header = [f"phi{i + 1}" for i in range(len(shares))] + ["grand_value", "residual"]
    if out_format == "csv":
        cells = [_data_cell(v) for v in (*shares, grand, residual)]
        return ",".join(header) + "\n" + ",".join(cells) + "\n"
    width = 12
    lines = ["  ".join(f"{k}: {v}" for k, v in meta.items())]
    lines.append(" ".join(f"{h:>{width}}" for h in header))
    cells = [_cell(v) for v in (*shares, grand, residual)]
    lines.append(" ".join(f"{c:>{width}}" for c in cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers


def _resolve_method(method: str, d: int) -> str:
    if method != "auto":
        return method
    return "delta-star" if d <= EXACT_SUBSET_CAP else "mc-delta-star"


def _decompose_rows(fn: FunctionHandle, points: list[tuple[float, ...]], method: str,
                    args: argparse.Namespace) -> tuple[str, list[dict]]:
    """The method's label and one report row per point."""
    if method in ("mc", "mc-delta-star"):
        if args.workers < 1:
            raise ValueError(f"need at least 1 worker, got {args.workers}")
        estimator = (montecarlo.estimate_as if method == "mc"
                     else montecarlo.estimate_delta_star)
        name = "monte_carlo" if method == "mc" else "monte_carlo_delta_star"
        # an estimate evaluates F(x), so it fails first wherever fn(x) would
        reports = [estimator(fn, x, args.samples, args.seed) for x in points]
        label = f"{name}(seed={reports[-1].seed}, n={reports[-1].n_samples})"
        return label, _rows(points, [r.estimate for r in reports], [fn(x) for x in points],
                           [r.standard_error for r in reports])
    if method == "sequential":
        perm = permutation_from_ranks(_parse_ranks(args.perm)) if args.perm else None
        result = decomp.sequential_arrays(fn, points, perm)
    else:  # the parser allows no other method
        result = {"as": decomp.as_subset_arrays, "pointwise": decomp.pointwise_shapley_arrays,
                  "delta-star": decomp.delta_star_arrays}[method](fn, points)
    return result.method, _rows(points, result.contributions, result.totals)


def cmd_decompose(args: argparse.Namespace) -> int:
    d = args.dimension
    if d is None:
        raise ValueError("decompose needs -d/--dimension")
    if bool(args.function) == bool(args.table_csv):
        raise ValueError("provide exactly one of -f/--function or --table-csv")

    invalid = None  # a --points-csv point that is not finite, raised after those before it
    if args.point:
        points = [_parse_point(args.point)]
    elif args.points_csv:
        if args.table_csv:
            raise ValueError("--points-csv cannot be combined with --table-csv "
                             "(a table anchors a single point)")
        points, invalid = _read_points_csv(args.points_csv, d)
    else:
        raise ValueError("provide -x/--point or --points-csv")

    if args.function:
        fn: FunctionHandle = ExpressionFunction(args.function, d)
    else:
        table = _read_mask_table(args.table_csv, d)
        anchor = points[0]
        try:
            fn = TableFunction(
                d, [(project(anchor, mask), v) for mask, v in table.items()],
                label=f"table:{os.path.basename(args.table_csv)}",
            )
        except EvaluationError as exc:
            raise TableFormatError(str(exc)) from None

    method = _resolve_method(args.method, d)
    if args.perm and method != "sequential":
        raise ValueError("--perm needs --method sequential")

    if args.dump_table:
        if not args.function:
            raise ValueError("--dump-table needs an expression function")
        _dump_mask_table(args.dump_table, fn, points[0])

    label, rows = _decompose_rows(fn, points, method, args)
    if invalid is not None:
        raise invalid
    meta = {"method": label, "d": d, "function": getattr(fn, "label", "?")}
    _write_output(_render_decomposition(meta, rows, args.format), args.output)
    worst = max(row["residual"] for row in rows)
    return EXIT_OK if worst <= args.tol else EXIT_FAIL


def _read_game_json(path: str) -> object:
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer of more digits than int() may convert
        raise GameFormatError(
            f"an integer in the game JSON has more than {sys.get_int_max_str_digits()} "
            "digits; payoffs must be finite numbers"
        ) from None


def cmd_shapley(args: argparse.Namespace) -> int:
    # the parsed JSON is freed before the kernel runs
    game = game_from_json(_read_game_json(args.game))
    allocation = shapley(game)
    meta = {"method": "shapley", "d": game.d, "game": os.path.basename(args.game)}
    _write_output(
        _render_allocation(meta, allocation.shares, game.grand_value, args.format),
        args.output,
    )
    return EXIT_OK if allocation.efficiency_gap(game) <= args.tol else EXIT_FAIL


def _corpus_from_spec_file(path: str) -> tuple[axioms.SuiteConfig, list]:
    with open(path) as fh:
        data = json.load(fh)
    settings = data  # the spec without its "families" key
    if isinstance(data, dict) and "families" in data:
        settings = {key: value for key, value in data.items() if key != "families"}
    config = axioms.build_settings(axioms.SuiteConfig, settings, "corpus spec")
    if settings is data:
        return config, axioms.default_corpus(config)
    families = data["families"]
    if not isinstance(families, list):
        raise ValueError(f"corpus spec: 'families' must be a list, got {families!r}")
    corpus = []
    for k, entry in enumerate(families):
        what = f"corpus spec families[{k}]"
        spec = axioms.build_settings(axioms.CorpusSpec, entry, what, d=config.d, seed=config.seed)
        try:
            corpus.extend(axioms.generate_corpus(spec))
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from None
    return config, corpus


def cmd_axioms(args: argparse.Namespace) -> int:
    principle = axioms.PRINCIPLES[args.principle]
    if args.corpus_spec:
        config, corpus = _corpus_from_spec_file(args.corpus_spec)
    else:
        # the suite flags are named after the SuiteConfig fields; unset ones are None
        flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(axioms.SuiteConfig)
                 if getattr(args, f.name) is not None}
        config = axioms.build_settings(axioms.SuiteConfig, flags, "options")
        corpus = axioms.default_corpus(config)
    if not corpus:
        sys.stderr.write("no functions in the corpus\n")
        return EXIT_USAGE
    records = axioms.run_axiom_suite(principle, config, corpus)
    lines = []
    failed = 0
    for record in records:
        obj = {"principle": principle.name}
        obj.update(record.to_json_dict())
        lines.append(json.dumps(obj))
        if record.verdict.status == axioms.FAIL:
            failed += 1
    _write_output("\n".join(lines) + "\n", args.output)
    log.info("%d verdicts, %d failed", len(records), failed)
    return EXIT_OK if failed == 0 else EXIT_FAIL


def cmd_example1(args: argparse.Namespace) -> int:
    fn = axioms.example1_function(args.s0, args.c0)
    x = _parse_point(args.point)
    result = decomp.delta_star_arrays(fn, [x])
    reference = axioms.example1_closed_form(args.s0, args.c0, x)
    meta = {"method": result.method, "d": 2, "function": fn.label}
    [row] = _rows([x], result.contributions, result.totals)
    row["reference"] = list(reference)
    _write_output(_render_decomposition(meta, [row], args.format), args.output)
    dev = max(abs(a - b) for a, b in zip(row["contributions"], reference))
    return EXIT_OK if dev <= args.tol and row["residual"] <= args.tol else EXIT_FAIL


def cmd_example2(args: argparse.Namespace) -> int:
    readings = _parse_point(args.readings)
    d = len(readings)
    fn = axioms.example2_function(d, args.base, args.rate,
                                  args.discount_rate, args.threshold)
    result = decomp.delta_star_arrays(fn, [readings])
    meta = {"method": result.method, "d": d, "function": fn.label,
            "fixed_cost_per_head": _round_sig(fn((0.0,) * d) / d)}
    rows = _rows([readings], result.contributions, result.totals)
    _write_output(_render_decomposition(meta, rows, args.format), args.output)
    return EXIT_OK if rows[0]["residual"] <= args.tol else EXIT_FAIL


def cmd_example3(args: argparse.Namespace) -> int:
    model = demo.build_claims_model(args.portfolio, args.factors, args.scenarios,
                                    args.seed, loading=args.loading)
    fn = model.movement_function()
    x = _parse_point(args.point) if args.point else (0.1,) * args.factors
    result = decomp.delta_star_arrays(fn, [x])
    meta = {
        "method": result.method,
        "d": args.factors,
        "function": "tail-quantile movement (99.5%)",
        "portfolio": args.portfolio,
        "scenarios": args.scenarios,
        "seed": args.seed,
        "baseline_var": _round_sig(model.baseline),
    }
    rows = _rows([x], result.contributions, result.totals)
    _write_output(_render_decomposition(meta, rows, args.format), args.output)
    return EXIT_OK if rows[0]["residual"] <= args.tol else EXIT_FAIL


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["table", "json", "csv"], default="table")
    sub.add_argument("-o", "--output", help="write the report to this file")
    sub.add_argument("--tol", type=float, default=1e-9,
                     help="residual tolerance for the exit code")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcdecomp",
        description="Additive decomposition of functions of several real arguments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="attribute a function value to its arguments")
    p.add_argument("-d", "--dimension", type=int, required=True)
    p.add_argument("-f", "--function",
                   help="expression over x1..xd; write --function=-x1^2 if it starts with -")
    p.add_argument("--table-csv", help="masked evaluations (header mask,value; "
                                       "mask like 1+3, empty for no arguments)")
    p.add_argument("-x", "--point",
                   help="comma-separated coordinates; write --point=-1.5,2 if they start with -")
    p.add_argument("--points-csv", help="CSV of points (header x1..xd)")
    p.add_argument("--method", default="auto",
                   choices=["auto", "sequential", "as", "delta-star", "pointwise", "mc"])
    p.add_argument("--perm", help="activation ranks for --method sequential, e.g. 2,1,3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility (>= 1); sampling runs in one "
                        "thread and the result is the same for any value")
    p.add_argument("--dump-table", help="also write the masked evaluations to this CSV")
    _add_common_output(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("shapley", help="allocate a coalition game")
    p.add_argument("game", help="game JSON path")
    _add_common_output(p)
    p.set_defaults(handler=cmd_shapley)

    p = sub.add_parser("axioms", help="run the axiom suite for a principle")
    p.add_argument("corpus_spec", nargs="?",
                   help="corpus spec JSON path; the suite flags below are then ignored")
    p.add_argument("--principle", default="delta-star", choices=sorted(axioms.PRINCIPLES))
    p.add_argument("-d", "--dimension", dest="d", type=int)
    p.add_argument("--functions", dest="n_functions", type=int)
    p.add_argument("--points", dest="n_points", type=int)
    p.add_argument("--perms", dest="n_permutations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output")
    p.add_argument("--tol", dest="tolerance", type=float)
    p.set_defaults(handler=cmd_axioms)

    p = sub.add_parser("example1", help="stock in foreign currency: two-factor gain split")
    p.add_argument("--s0", type=float, default=2.0)
    p.add_argument("--c0", type=float, default=3.0)
    p.add_argument("-x", "--point", default="1,1",
                   help="position and exchange-rate changes; write --point=-1,1 "
                        "if they start with -")
    _add_common_output(p)
    p.set_defaults(handler=cmd_example1)

    p = sub.add_parser("example2", help="shared utility bill split by meter readings")
    p.add_argument("--base", type=float, default=10.0)
    p.add_argument("--rate", type=float, default=2.0)
    p.add_argument("--discount-rate", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--readings", default="1,2,3",
                   help="comma-separated meter readings; write --readings=-1,2 "
                        "if they start with -")
    _add_common_output(p)
    p.set_defaults(handler=cmd_example2)

    p = sub.add_parser("example3", help="tail-quantile movement attribution (toy portfolio)")
    p.add_argument("-d", "--factors", type=int, default=3)
    p.add_argument("--portfolio", type=int, default=50)
    p.add_argument("--scenarios", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loading", type=float, default=None,
                   help="fix all factor loadings to this value (symmetric model)")
    p.add_argument("-x", "--point", help="risk-factor moves; default 0.1 each; "
                                          "write --point=-0.1,0.2 if they start with -")
    _add_common_output(p)
    p.set_defaults(handler=cmd_example3)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("DECOMP_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (TableFormatError, GameFormatError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_TABLE
    except NonzeroOriginError as exc:
        hint = ""
        if args.command == "decompose" and args.dimension <= MASK_DIMENSION_CAP:
            # a method that splits F(0) at this d: delta-star, or auto's sampled one
            method = "delta-star" if args.dimension <= EXACT_SUBSET_CAP else "auto"
            hint = f"hint: use --method {method}\n"
        sys.stderr.write(f"error: {exc}\n{hint}")
        return EXIT_ORIGIN
    except (DimensionMismatchError, NonFiniteCoordinateError, EvaluationError,
            ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
