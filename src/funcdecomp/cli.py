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
from typing import Iterable, Sequence

import numpy as np

from . import axioms, decomp, demo, montecarlo
from .core import (
    EXACT_SUBSET_CAP,
    MASK_DIMENSION_CAP,
    DimensionMismatchError,
    NonFiniteCoordinateError,
    NonzeroOriginError,
    full_mask,
    indices_from_mask,
    mask_from_indices,
    permutation_from_ranks,
    project,
    validate_dimension,
    validate_tolerance,
)
from .expr import EvaluationError, ExpressionFunction, FunctionHandle, ParseError, TableFunction
from .game import Game, GameFormatError, game_from_json, mask_ordered_game, shapley

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
    with open(path, encoding="utf-8", newline="") as fh:
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
    with open(path, encoding="utf-8", newline="") as fh:
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
    values = fn.evaluate_table([x], np.arange(1 << fn.d))[0].tolist()
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


def _round_json(value: object) -> object:
    """``value`` with every float in it rounded to DATA_DIGITS significant digits."""
    if isinstance(value, float):
        return _round_sig(value)
    if isinstance(value, dict):
        return {k: _round_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_json(v) for v in value]
    return value


def _report(args: argparse.Namespace, meta: dict, payload: dict, header: Sequence[str],
            lines: Sequence[Sequence[float]], ok: bool = True,
            note: tuple[Sequence[float | None], str] | None = None) -> int:
    """Write a report in ``args.format`` to ``args.output``; return its exit code.

    JSON is ``meta`` then ``payload``, its floats rounded to DATA_DIGITS
    significant digits.  CSV is ``header`` over ``lines`` at DATA_DIGITS.
    The table is a ``key: value`` line of ``meta`` over ``header`` and
    ``lines`` at TABLE_DIGITS, then ``note``, a line of cells (None leaves
    one blank) and a text.  The last number of each line is a residual: the
    exit code is EXIT_OK if every residual is within ``args.tol`` and ``ok``.
    """
    if args.format == "json":
        text = json.dumps(_round_json({**meta, **payload}), indent=2) + "\n"
    elif args.format == "csv":
        text = ",".join(header) + "\n" + "".join(
            ",".join(f"{v:.{DATA_DIGITS}g}" for v in line) + "\n" for line in lines)
    else:
        def table_line(cells: Iterable[str]) -> str:
            return " ".join(f"{c:>12}" for c in cells)
        out = ["  ".join(f"{k}: {v}" for k, v in meta.items()), table_line(header)]
        out += [table_line(map(_cell, line)) for line in lines]
        if note is not None:
            cells, label = note
            out.append(table_line("" if v is None else _cell(v) for v in cells) + f"  {label}")
        text = "\n".join(out) + "\n"
    _write_output(text, args.output)
    return EXIT_OK if ok and all(line[-1] <= args.tol for line in lines) else EXIT_FAIL


def _report_rows(args: argparse.Namespace, meta: dict, rows: list[dict], **kwargs) -> int:
    """`_report` of the rows from `_rows`, in columns x, G, [SE], total, residual."""
    prefixes = ("x", "G", "SE") if "standard_error" in rows[0] else ("x", "G")
    header = [f"{p}{i + 1}" for p in prefixes for i in range(meta["d"])] + ["total", "residual"]
    lines = [[*row["x"], *row["contributions"], *row.get("standard_error", ()),
              row["total"], row["residual"]] for row in rows]
    return _report(args, meta, {"rows": rows}, header, lines, **kwargs)


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
        # an estimate evaluates F(x), so it fails first wherever the totals would
        reports = [estimator(fn, x, args.samples, args.seed) for x in points]
        label = f"{name}(seed={reports[-1].seed}, n={reports[-1].n_samples})"
        totals = fn.evaluate_table(points, [full_mask(fn.d)])[:, 0]
        return label, _rows(points, [r.estimate for r in reports], totals,
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
    for name, default in (("samples", 2000), ("seed", 0), ("workers", 1)):
        if getattr(args, name) is None:  # not given
            setattr(args, name, default)
        elif args.method not in ("mc", "auto"):  # auto samples above EXACT_SUBSET_CAP
            raise ValueError(f"--{name} needs --method mc or auto")

    if args.dump_table:
        if not args.function:
            raise ValueError("--dump-table needs an expression function")
        _dump_mask_table(args.dump_table, fn, points[0])

    label, rows = _decompose_rows(fn, points, method, args)
    if invalid is not None:
        raise invalid
    meta = {"method": label, "d": d, "function": getattr(fn, "label", "?")}
    return _report_rows(args, meta, rows)


def _read_game(path: str) -> Game:
    with open(path, encoding="utf-8", newline="") as fh:  # the file's text as it is
        text = fh.read()
    game = mask_ordered_game(text)
    if game is not None:
        return game
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer of more digits than int() may convert
        raise GameFormatError(
            f"an integer in the game JSON has more than {sys.get_int_max_str_digits()} "
            "digits; payoffs must be finite numbers"
        ) from None
    except RecursionError:
        raise GameFormatError("the game JSON nests too deeply to read") from None
    del text  # freed before the dict is read
    return game_from_json(data)


def cmd_shapley(args: argparse.Namespace) -> int:
    # the file's text and parsed JSON are freed before the kernel runs
    game = _read_game(args.game)
    shares, grand = shapley(game).shares, game.grand_value
    residual = abs(math.fsum(shares) - grand)
    meta = {"method": "shapley", "d": game.d, "game": os.path.basename(args.game)}
    header = [f"phi{i + 1}" for i in range(game.d)] + ["grand_value", "residual"]
    return _report(args, meta, {"shares": shares, "grand_value": grand, "residual": residual},
                   header, [[*shares, grand, residual]])


def _corpus_from_spec_file(path: str) -> tuple[axioms.SuiteConfig, list]:
    with open(path, encoding="utf-8", newline="") as fh:  # offsets count every character
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("corpus spec: the JSON nests too deeply to read") from None
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
        config = axioms.SuiteConfig(**flags)
        corpus = axioms.default_corpus(config)
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
    dev = max(abs(a - b) for a, b in zip(row["contributions"], reference))
    return _report_rows(args, meta, [row], ok=dev <= args.tol,
                        note=([None, None, *reference], "(closed form)"))


def cmd_example2(args: argparse.Namespace) -> int:
    readings = _parse_point(args.readings)
    d = len(readings)
    fn = axioms.example2_function(d, args.base, args.rate,
                                  args.discount_rate, args.threshold)
    result = decomp.delta_star_arrays(fn, [readings])
    meta = {"method": result.method, "d": d, "function": fn.label,
            "fixed_cost_per_head": _round_sig(float(fn.evaluate_table([readings], [0])[0, 0]) / d)}
    return _report_rows(args, meta, _rows([readings], result.contributions, result.totals))


def cmd_example3(args: argparse.Namespace) -> int:
    fn, baseline = demo.claims_movement(args.portfolio, args.factors, args.scenarios,
                                        args.seed, loading=args.loading)
    x = _parse_point(args.point) if args.point else (0.1,) * args.factors
    result = decomp.delta_star_arrays(fn, [x])
    meta = {
        "method": result.method,
        "d": args.factors,
        "function": "tail-quantile movement (99.5%)",
        "portfolio": args.portfolio,
        "scenarios": args.scenarios,
        "seed": args.seed,
        "baseline_var": _round_sig(baseline),
    }
    return _report_rows(args, meta, _rows([x], result.contributions, result.totals))


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
    p.add_argument("--seed", type=int, help="default 0; --method mc or auto only")
    p.add_argument("--samples", type=int, help="default 2000; --method mc or auto only")
    p.add_argument("--workers", type=int, help="default 1, at least 1; --method mc or auto only; "
                   "sampling runs in one thread and the result is the same for any value")
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
        if "tol" in vars(args):  # a report command's residual tolerance
            validate_tolerance(args.tol)
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
