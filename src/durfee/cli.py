"""Command-line interface.

Subcommands::

    durfee count      exact counts of marked symbols by rank vector (TSV)
    durfee enumerate  list a corpus as JSON documents, one per line
    durfee map        apply a bijection to a symbol document
    durfee verify     run identity-verification suites
    durfee series     print generating-series coefficients (TSV)

Exit codes: 0 success, 1 identity failure from ``verify``, 2 usage error.
Every bad input (a malformed flag, an out-of-range bound, an unreadable or
invalid symbol document, a pole among the evaluation values, a weight or
series order too large to hold in memory) prints one ``error:`` line to
stderr and exits 2; exit 1 only ever means that an identity failed.  A reader
that closes stdout early (``| head -1``) stops the command silently with
status 141, as a shell reports for a writer stopped by SIGPIPE.
Count tables and reports are byte-deterministic for fixed flags.

Each command imports only what it runs: loading this module imports the
marked symbols and their counting DP; ``series`` imports the series code,
``verify``, ``map`` and ``enumerate`` import ``verify``, ``bijections`` and
``serialize`` (and ``json``), and a ``--x`` value imports ``fractions``, each
when it runs.  ``count`` and ``enumerate`` write their lines in blocks.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterable, Iterator, NoReturn

from .marked import KMarkedSymbol, blocks, count_kmarked, rank_rows
from .symbols import DurfeeSymbol, Flavor


def _flavor(value: str) -> Flavor:
    try:
        return Flavor(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"choose from ordinary, odd (got {value!r})")


# An empty entry (``1,,0``, ``2,``, ``""``) is no number: both list types reject it.
def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _fraction_list(text: str) -> tuple:
    from fractions import Fraction

    try:
        return tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected comma-separated rationals, got {text!r}")


def _load_document(path: str | None) -> dict:
    import json

    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"document is not JSON: {exc}") from None


def _check_size(flag: str, value: int) -> None:
    """Reject a weight or series order that cannot size a list: a series
    holds order + 1 coefficients, the counting DP holds series over the
    weights 0..n, and a list's length must be an index-sized integer."""
    if value >= sys.maxsize:
        raise ValueError(f"--{flag} must be below {sys.maxsize}, got {value}")


#: ``count`` and ``enumerate`` write their lines in blocks of at least this
#: many characters (half the capacity of a Linux pipe): one write call per
#: block instead of one print per line, so a reader on a pipe gets few reads
#: of even size.
_BLOCK_CHARS = 1 << 15


def _write_lines(lines: Iterable[str]) -> None:
    block: list[str] = []
    size = 0
    for line in lines:
        block.append(line)
        size += len(line) + 1
        if size >= _BLOCK_CHARS:
            sys.stdout.write("\n".join(block) + "\n")
            block.clear()
            size = 0
    if block:
        sys.stdout.write("\n".join(block) + "\n")


def _count_lines(args: argparse.Namespace, rows: Iterable[tuple]) -> Iterator[str]:
    """The table of ``rows``, (prefix, ranks, counts) as ``rank_rows`` gives
    them, each prefix's rows as one text; with ``--ranks``, its one row and
    no total."""
    k = args.k
    yield f"# n={args.n} k={k} flavor={args.flavor.value}"
    yield "\t".join([f"m{i}" for i in range(1, k + 1)] + ["count"])
    prefix_text = "%d\t" * (k - 1)
    total = 0
    for prefix, ranks, counts in rows:
        head = prefix_text % prefix
        yield "\n".join([f"{head}{r}\t{c}" for r, c in zip(ranks, counts)])
        total += sum(counts)
    if args.ranks is None:
        yield "\t".join(["total"] + [""] * (k - 1) + [str(total)])


def _check_k(args: argparse.Namespace) -> None:
    """Vectors 1..k-1 each hold a part and the frame weighs at least 1, so no
    symbol of weight n has more than n vectors; n + 1 keeps k = 1 at n = 0.
    A larger --k lists nothing, or builds a k-column count header for nothing."""
    if args.n >= 0 and args.k > args.n + 1:
        raise ValueError(f"--k must be at most n + 1 = {args.n + 1}, got {args.k}")


def cmd_count(args: argparse.Namespace) -> int:
    _check_size("n", args.n)
    _check_k(args)
    # Both calls run the DP, so bad input raises before the header is written.
    if args.ranks is None:
        rows = rank_rows(args.n, args.k, args.flavor)
    elif len(args.ranks) != args.k:
        raise ValueError(f"--ranks needs {args.k} entries")
    else:  # a tuple, as ``_int_list`` parses it
        count = count_kmarked(args.ranks, args.n, args.flavor)
        rows = [(args.ranks[:-1], args.ranks[-1:], [count])]
    _write_lines(_count_lines(args, rows))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    _check_k(args)
    from .serialize import display_lines, document_lines

    walk = blocks(args.n, args.k, args.flavor)
    _write_lines(display_lines(walk) if args.pretty else document_lines(walk, args.flavor))
    return 0


def _refuse_unread(args: argparse.Namespace, name: str, flags: Iterable[str], read: tuple) -> None:
    """Reject the first of ``flags`` given although ``name`` reads only ``read``."""
    for flag in flags:
        if flag not in read and getattr(args, flag) is not None:
            raise ValueError(f"{name} takes no --{flag}")


# --map name -> (the flag it needs, or None; its function in ``bijections``)
_MAPS = {
    "phi": (None, "merge_marks"),
    "phi-inv": ("ranks", "split_marks"),
    "psi": (None, "symbol_to_strict_shifted"),
    "psi-inv": ("t", "symbol_from_strict_shifted"),
    "theta": ("p", "flip_rank"),
    "symmetry": ("perm", "permute_ranks"),
}


def _ranks(x: KMarkedSymbol | DurfeeSymbol) -> tuple[int, ...]:
    return (x.rank,) if isinstance(x, DurfeeSymbol) else x.ranks


def cmd_map(args: argparse.Namespace) -> int:
    from . import bijections
    from .serialize import document_to_symbol, format_symbol, render

    name = args.map
    param, function = _MAPS[name]
    _refuse_unread(args, name, ("ranks", "t", "p", "perm"), (param,))
    s = document_to_symbol(_load_document(args.input))
    extra = () if param is None else (getattr(args, param),)
    if None in extra:
        raise ValueError(f"{name} needs --{param}")
    if name == "phi-inv":
        if s.k != 1:
            raise ValueError("phi-inv input must be a one-vector document")
        s = DurfeeSymbol(s.vectors[0].alpha, s.vectors[0].beta, s.d, s.flavor)
    out = getattr(bijections, function)(s, *extra)
    print(render(out, indent=2))
    print(f"# map: {name}", file=sys.stderr)
    if extra:
        print("# params:", {param: extra[0]}, file=sys.stderr)
    print(f"# ranks before: {list(_ranks(s))}", file=sys.stderr)
    print(f"# ranks after: {list(_ranks(out))}", file=sys.stderr)
    if args.pretty:
        print(f"# {format_symbol(out)}", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import Bounds, run_suite

    # Bounds holds the defaults: pass on only the flags that were given.
    given = {key: v for key in Bounds.__match_args__ if (v := getattr(args, key)) is not None}
    _check_size("order", given.get("order", 0))
    results = run_suite(args.suite, Bounds(**given))
    print("check\tbound\tstatus\tdetail")
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        if not r.ok:
            failed += 1
        print(f"{r.name}\t{r.bound}\t{status}\t{r.detail}")
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"RESULT\t{verdict}\t{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _marked_args(args: argparse.Namespace) -> tuple:
    """A marked rank series' arguments: one vector per ``--x`` value."""
    if args.x is None:
        raise ValueError(f"{args.gf} needs --x")
    return args.x, len(args.x), args.order, args.flavor or Flavor.ORDINARY


# --gf name -> (the optional flags it reads; the ``qseries`` function it
# prints, looked up when the command runs; that function's arguments, from
# the parsed flags, with --m defaulting to 0 and --flavor to ordinary)
_SERIES = {
    "partition": ((), "partition_gf", lambda args: (args.order,)),
    "rank": (("m",), "rank_gf", lambda args: (args.m or 0, args.order)),
    "odd-rank": (("m",), "odd_rank_gf", lambda args: (args.m or 0, args.order)),
    "rk": (("x", "flavor"), "marked_rank_gf", _marked_args),
    "rk-product": (("x", "flavor"), "marked_rank_gf_product", _marked_args),
    "rk-partial": (("x", "flavor"), "marked_rank_gf_partial_fractions", _marked_args),
}


def cmd_series(args: argparse.Namespace) -> int:
    from . import qseries

    _check_size("order", args.order)
    flags, function, arguments = _SERIES[args.gf]
    _refuse_unread(args, args.gf, ("m", "x", "flavor"), flags)
    series = getattr(qseries, function)(*arguments(args))
    print("n\tcoefficient")
    for n, c in enumerate(series.coeffs):
        print(f"{n}\t{c}")
    return 0


class _Parser(argparse.ArgumentParser):
    """The command's parser; each subcommand's parser is one too."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # No flag starts with "-" and a digit, so such an argument is a value:
        # a negative list (--ranks -1,0) or fraction (--x -1/2), not only a number.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="durfee",
        description="Exact counting, bijections, and series checks for marked Durfee symbols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count symbols by rank vector")
    p.add_argument("--n", type=int, required=True, help="weight")
    p.add_argument("--k", type=int, default=1, help="number of vectors")
    p.add_argument("--flavor", type=_flavor, metavar="{ordinary,odd}", default=Flavor.ORDINARY)
    p.add_argument("--ranks", type=_int_list, default=None, help="rank vector m1,...,mk")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list a corpus as JSON documents")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--flavor", type=_flavor, metavar="{ordinary,odd}", default=Flavor.ORDINARY)
    p.add_argument("--pretty", action="store_true", help="two-row display instead of JSON")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("map", help="apply a bijection to a symbol document")
    p.add_argument(
        "--map", required=True,
        choices=list(_MAPS),
        help="phi merges marks; phi-inv splits by --ranks; psi lifts to strict "
        "shifted; psi-inv drops by --t; theta flips rank --p; symmetry permutes by --perm",
    )
    p.add_argument("--in", dest="input", default=None, help="document path (default stdin)")
    p.add_argument("--ranks", type=_int_list, default=None)
    p.add_argument("--t", type=_int_list, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--perm", type=_int_list, default=None)
    p.add_argument("--pretty", action="store_true", help="also print a display line to stderr")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("verify", help="run identity-verification suites")
    p.add_argument("--suite", default="all", help="suite name (default all)")
    p.add_argument("--max-n", type=int)
    p.add_argument("--max-k", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--x", type=_fraction_list)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("series", help="print series coefficients")
    p.add_argument("--gf", required=True, choices=list(_SERIES))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="rank (rank, odd-rank; default 0)")
    p.add_argument("--x", type=_fraction_list, default=None, help="x1,...,xk (rk forms)")
    p.add_argument(
        "--flavor", type=_flavor, metavar="{ordinary,odd}", default=None,
        help="rk forms only (default ordinary)",
    )
    p.set_defaults(func=cmd_series)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # Later flushes, at exit too, go to devnull instead of failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
