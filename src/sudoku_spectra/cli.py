"""Command line interface.

Subcommands:

* ``realize``: construct a pair of Sudoku squares at a target intersection
  and print the verified value; ``--out`` writes the certificate JSON.
* ``verify``: parse two squares, validate them, print their intersection.
  Each file's style is read from its text: ``json`` if it starts with
  ``{``, ``grid`` if it has more than one line, else ``single_line``.
* ``spectrum``: print the spectrum from the theorem, by brute force, or
  as witnessed by the seed fixtures.
* ``sample``: print a random Sudoku square from the backtracking sampler,
  deterministic per ``--seed``.
* ``pentadoku``: run the 5x5 pentomino-cage census.

Exit codes: 0 on success; 2 for a value outside the spectrum or a usage
error (an unknown flag); 1 for I/O, parse or validation problems, an order
above ``construct.MAX_ORDER``, or a sampler out of budget.
"""
from __future__ import annotations

import argparse
import sys

from . import __version__
from .construct import sudoku_spectrum
from .core import BoxType, intersection_size
from .enumeration import brute_force_spectrum
from .formats import STYLES, parse, serialize
from .markov import SampleError, sample_sudoku
from .pentadoku import classify_all, write_census
from .seeds import DATABASE
from .spectrum import SpectrumError, realize_sudoku_pair


def _box_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--h", type=int, required=True, help="box height")
    p.add_argument("--w", type=int, required=True, help="box width")


def _fmt_values(values) -> str:
    return " ".join(str(v) for v in sorted(values))


def cmd_realize(args) -> int:
    try:
        cert = realize_sudoku_pair(args.h, args.w, args.t)
    except SpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    value = cert.verify()
    if args.out:
        with open(args.out, "w") as f:
            f.write(cert.to_json() + "\n")
    print(value)
    return 0


def cmd_verify(args) -> int:
    box = BoxType(args.h, args.w)

    def load(path: str):
        with open(path) as f:
            text = f.read()
        stripped = text.strip()
        style = "json" if stripped.startswith("{") else "grid" if "\n" in stripped else "single_line"
        return parse(text, box, style)

    a = load(args.a)
    b = load(args.b)
    print(f"both squares are valid ({args.h}, {args.w}) Sudoku latin squares")
    print(intersection_size(a, b))
    return 0


def cmd_spectrum(args) -> int:
    if args.mode == "theorem":
        values = sudoku_spectrum(args.h, args.w)
        print(_fmt_values(values))
        return 0
    if args.mode == "brute":
        report = brute_force_spectrum(args.h, args.w)
        print(_fmt_values(report.values))
        print(
            f"# {report.total_count} squares, {report.canonical_count} up to relabelling, "
            f"{len(report.witnesses)} witnessed values (all re-verified)",
            file=sys.stderr,
        )
        return 0
    # seeds mode: report the labels the checked-in fixtures witness (each
    # recomputed on load)
    if (args.h, args.w) not in DATABASE.types():
        types = ", ".join(f"({h}, {w})" for h, w in DATABASE.types())
        raise ValueError(
            f"no seed fixture for box type ({args.h}, {args.w}); fixtures exist for {types}")
    seed_set = DATABASE.get(args.h, args.w)
    labels = seed_set.labels()
    print(_fmt_values(labels))
    note = ("the full spectrum" if labels == sudoku_spectrum(args.h, args.w)
            else "a subset of the spectrum")
    print(f"# seed fixtures witness {note} for box type ({args.h}, {args.w})", file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    square = sample_sudoku(args.h, args.w, rng=args.seed)
    print(serialize(square, args.format))
    return 0


def cmd_pentadoku(args) -> int:
    report = classify_all()
    if args.out:
        with open(args.out, "w") as f:
            write_census(report, f, args.format)
        print(" ".join(str(c) for c in report.summary()))
    else:
        write_census(report, sys.stdout, args.format)
        print(" ".join(str(c) for c in report.summary()), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sudoku-spectra",
        description="Intersection spectra of Sudoku latin squares",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", help="construct a pair at a target intersection")
    _box_args(p)
    p.add_argument("--t", type=int, required=True, help="target intersection size")
    p.add_argument("--out", help="write the certificate JSON here")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("verify", help="check two squares and print their intersection")
    p.add_argument("a", help="path to the first square")
    p.add_argument("b", help="path to the second square")
    _box_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="print the intersection spectrum")
    _box_args(p)
    p.add_argument(
        "--mode",
        choices=("theorem", "brute", "seeds"),
        default="theorem",
        help="closed form, exhaustive enumeration, or seed-fixture witnesses",
    )
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sample", help="print a random Sudoku square")
    _box_args(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=STYLES, default="single_line")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("pentadoku", help="census of 5x5 pentomino-cage tilings")
    p.add_argument("--out", help="write the census here (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_pentadoku)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, SampleError) as exc:
        # bad input or bounds and samplers out of budget; spectrum misses
        # exit 2 from cmd_realize
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
