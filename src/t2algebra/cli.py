"""Command-line front end.

Exit codes are a stable contract:
  0  success / all checks passed
  1  an axiom or separation check failed
  2  usage error (unknown command, op, or flag combination)
  3  validation error (malformed or out-of-contract input, or a result too
     long to print: such a command writes no output)
  4  I/O error
  5  internal error (an unexpected failure, reported in one line)
  130  interrupted (SIGINT), reported in one line
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack, suppress

from . import axioms as ax
from .connectives import connective_by_name
from .convolution import GridSpec, convolve_join, convolve_meet
from .errors import DomainError, ValidationError
from .piecewise import (
    PiecewiseFn,
    dumps,
    envelope_left,
    envelope_right,
    evaluate,
    loads,
    reflect,
)
from .plotting import render_svg
from .rationals import _lt, _ratio, _same, format_rational
from .report import all_passed, format_report_table
from .star import resolve_operation

EXIT_OK = 0
EXIT_AXIOM_FAILURE = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_INTERNAL = 5
EXIT_INTERRUPTED = 130

# Upper bounds on the size flags, checked before any work starts, so that a
# mistyped number cannot run for hours or exhaust memory.
# --grid: an exact (min/max) grid convolution takes time linear in the
# resolution, a banded one quadratic. Every connective the CLI names has integer
# forms, so at 2,000 an exact `eval` takes 16-26 ms, a banded one 1.8-2.4 s and
# `separation --star projection` 3-5 ms (in process; 2-core Xeon, Python 3.11.7).
MAX_GRID = 2000
# --samples: one exact rational and one CSV row are held per sample.
MAX_SAMPLES = 100_000
# --trials: the battery keeps up to this many drawn pairs and triples; on a 2-core
# box (Python 3.11) `axioms star tr-norm` takes 0.25 s at the default 200 and 6.1-6.4 s
# at 10,000, where the process peaks at 57 MB RSS (22 MB at 200).
MAX_TRIALS = 10_000
_SIZE_BOUNDS = {"grid": MAX_GRID, "samples": MAX_SAMPLES, "trials": MAX_TRIALS}

_UNARY_OPS = {
    "neg": reflect,
    "env-left": envelope_left,
    "env-right": envelope_right,
}


class _UsageError(Exception):
    pass


def _load_function(path: str) -> PiecewiseFn:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def _check_stdout() -> None:
    if sys.stdout is None:  # started with stdout closed
        raise IOError("cannot write stdout: it is closed")


def _write_text(*outputs: tuple[str | None, str]) -> None:
    """Write each (path, text) whose text is not None, a None path to stdout.
    Every file is opened, in append mode so that none is truncated yet, before
    any is written: if one cannot be opened, the files this command created are
    removed and the others left as they were. A path named twice gets its last text.
    A closed stdout is an I/O error before any file is written, and a failing one
    as it is flushed, not at exit; with no text for it, stdout is not touched."""
    texts = {path: text for path, text in outputs if text is not None}
    stdout = texts.pop(None, "")
    if stdout:
        _check_stdout()
    created = [path for path in texts if not os.path.lexists(path)]
    try:
        with ExitStack() as stack:
            handles = {}
            for path in texts:
                handles[path] = stack.enter_context(open(path, "a", encoding="utf-8"))
            for path, handle in handles.items():
                with handle:
                    if os.path.isfile(path):  # a device or a pipe cannot be truncated
                        handle.truncate(0)
                    handle.write(texts[path])
    except OSError as exc:
        for made in filter(os.path.lexists, created):
            os.remove(made)
        raise IOError(f"cannot write {path}: {exc}") from exc
    if stdout:
        try:
            sys.stdout.write(stdout)
            sys.stdout.flush()
        except OSError:  # drop the unwritten bytes, unless stdout has no descriptor
            with suppress(OSError, ValueError), open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            raise


def _parse_conv_name(name: str):
    parts = name.split(":")
    if len(parts) != 3 or parts[0] not in ("conv-meet", "conv-join"):
        raise _UsageError(
            f"convolution ops are written conv-meet:<tnorm>:<star> or "
            f"conv-join:<tconorm>:<star>, got {name!r}"
        )
    combiner = connective_by_name(parts[1])
    star_conn = connective_by_name(parts[2])
    return parts[0], combiner, star_conn


def _check_sizes(args) -> None:
    for flag, bound in _SIZE_BOUNDS.items():
        value = getattr(args, flag, None)
        if value is not None and value > bound:
            raise _UsageError(f"--{flag} is at most {bound}, got {value}")
    if getattr(args, "trials", 1) < 1:  # --grid and --samples are checked in use
        raise _UsageError(f"--trials is at least 1, got {args.trials}")


def _cmd_eval(args) -> int:
    name = args.op
    if name.startswith("conv-"):
        if args.json_out:
            raise _UsageError(f"--json-out does not apply to {name}: its result is a grid")
        if len(args.files) != 2:
            raise _UsageError(f"{name} takes exactly two function files")
        form, combiner, star_conn = _parse_conv_name(name)
        f, g = map(_load_function, args.files)
        grid = GridSpec(args.grid, args.tolerance)
        if args.out is None:  # before the convolution, which may run for seconds
            _check_stdout()
        conv = convolve_meet if form == "conv-meet" else convolve_join
        result = conv(f, g, star_conn, combiner, grid)
        _write_text((args.out, result.to_csv(decimal=args.decimal)))
        return EXIT_OK

    if name in _UNARY_OPS:
        if len(args.files) != 1:
            raise _UsageError(f"{name} takes exactly one function file")
        op = _UNARY_OPS[name]
    else:
        try:
            op = resolve_operation(name)
        except ValidationError:
            raise _UsageError(
                f"unknown op {name!r}; known: star, costar, meet, join, neg, "
                f"env-left, env-right, conv-meet:..., conv-join:..."
            ) from None
        if len(args.files) != 2:
            raise _UsageError(f"{name} takes exactly two function files")
    if args.samples < 2:  # before the files load and the operation runs
        raise ValidationError("need at least 2 sample points")
    functions = [_load_function(path) for path in args.files]
    if args.out is None:  # before the operation
        _check_stdout()
    result = op(*functions)
    # a row at each evenly spaced sample k/n and at each breakpoint, in order: both
    # run sorted from 0 to 1, so one walk merges them, a breakpoint at a sample once
    n, bps, i, xs = args.samples - 1, result.breakpoints, 0, []
    for k in range(args.samples):
        x = _ratio(k, n)
        while _lt(bps[i], x):
            xs.append(bps[i])
            i += 1
        i += _same(bps[i], x)
        xs.append(x)
    rows = ((x, evaluate(result, x)) for x in xs)
    csv = "x,value\n" + "".join(
        f"{format_rational(x, args.decimal)},{format_rational(v, args.decimal)}\n" for x, v in rows
    )
    # both texts are built before either is written: a failure writes nothing
    json_text = dumps(result, indent=2) + "\n" if args.json_out else None
    _write_text((args.out, csv), (args.json_out, json_text))
    return EXIT_OK


def _cmd_axioms(args) -> int:
    try:
        op = resolve_operation(args.op)
    except ValidationError as exc:
        raise _UsageError(str(exc)) from None
    config = ax.GeneratorConfig(seed=args.seed)
    _check_stdout()  # before the battery, which may run for seconds
    half = max(1, args.trials // 2)
    reports = ax.check_tr_axioms(
        op, args.kind, config, pairs=args.trials, triples=half, neutral_trials=half,
        monotone_trials=half, closure_denominator=16 if args.trials >= 100 else 8,
    )
    _write_text((None, format_report_table(reports) + "\n"))
    return EXIT_OK if all_passed(reports) else EXIT_AXIOM_FAILURE


def _cmd_plot(args) -> int:
    labels = args.labels.split(",") if args.labels else None
    if labels and len(labels) != len(args.files):
        raise _UsageError("--labels needs one label per file")
    series = []
    for i, path in enumerate(args.files):
        label = labels[i] if labels else path
        series.append((label, _load_function(path)))
    _write_text((args.out, render_svg(series)))
    return EXIT_OK


def _cmd_separation(args) -> int:
    names = [n for n in args.star.split(",") if n]
    if not names:
        raise _UsageError("at least one inner connective is required")
    choices = [connective_by_name(n) for n in names]
    grid = GridSpec(args.grid, args.tolerance)
    grid.index_of(ax._SEPARATION_POINT)  # off the grid is exit 3, before stdout is checked
    _check_stdout()  # before the convolutions, which may run for seconds
    rows = ax.separation_rows(choices, grid)
    lines = ["star,exact_product_value,oracle_lower_bound,separated\n"]
    for row in rows:
        lines.append(
            f"{row['star']},{row['exact_product_value']},"
            f"{row['oracle_lower_bound']},{'yes' if row['separated'] else 'NO'}\n"
        )
    _write_text((None, "".join(lines)))
    return EXIT_OK if all(r["separated"] for r in rows) else EXIT_AXIOM_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="t2algebra",
        description="Exact operations on normal/convex truth-value functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an operation on function files")
    p_eval.add_argument("op")
    p_eval.add_argument("files", nargs="+")
    p_eval.add_argument("--samples", type=int, default=11)
    p_eval.add_argument("--grid", type=int, default=200)
    p_eval.add_argument("--tolerance", default=None)
    p_eval.add_argument("--decimal", action="store_true")
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--json-out", dest="json_out", default=None)
    p_eval.set_defaults(run=_cmd_eval)

    p_ax = sub.add_parser("axioms", help="run the restrictive-axiom suite")
    p_ax.add_argument("op")
    p_ax.add_argument("kind", choices=[ax.TR_NORM, ax.TR_CONORM])
    p_ax.add_argument("--seed", type=int, default=0)
    p_ax.add_argument("--trials", type=int, default=200)
    p_ax.set_defaults(run=_cmd_axioms)

    p_plot = sub.add_parser("plot", help="render functions to SVG")
    p_plot.add_argument("files", nargs="+")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--labels", default=None)
    p_plot.set_defaults(run=_cmd_plot)

    p_sep = sub.add_parser(
        "separation", help="replicate the non-convolution separation"
    )
    p_sep.add_argument("--grid", type=int, default=200)
    p_sep.add_argument(
        "--tolerance",
        default=None,
        help="inert: separation convolves with min, whose band is zero-width at every tolerance",
    )
    p_sep.add_argument("--star", default="min,product,lukasiewicz")
    p_sep.set_defaults(run=_cmd_separation)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_sizes(args)
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, DomainError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # a defect: no traceback reaches the user
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
