"""Command-line entry point.

Commands: check (default; with --out it also writes the JSON report),
export-graph, export-isosets, export-vectors, export-cover.  Exit codes:
0 pass, 1 verification failure, 2 inconclusive, 3 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, euclid, graph
from .pipeline import (
    EXIT_USAGE,
    RunConfig,
    export,
    require_output_dir,
    run_check,
    write_report_json,
)

COMMANDS = (
    "check",
    "export-graph",
    "export-isosets",
    "export-vectors",
    "export-cover",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}")
    if not primes:
        raise argparse.ArgumentTypeError("at least one prime is required")
    for p in primes:
        try:
            euclid._check_prime(p)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return primes


def _parse_edge(text: str) -> tuple[int, int]:
    try:
        i, j = (int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad edge {text!r}, want I,J")
    n = graph.VERTEX_COUNT
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise argparse.ArgumentTypeError(f"edge {text!r} out of range")
    return (i, j)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="g24verify",
        description=(
            "Construct the G2(4) graph from the Hermitian unital in PG(2,16) "
            "and certify the 64-dimensional two-distance Borsuk counterexample."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "command",
        nargs="?",
        default="check",
        choices=COMMANDS,
        help="what to run (default: check)",
    )
    parser.add_argument(
        "--out", metavar="PATH", help="output file of an export or of check's report"
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        default="dimacs",
        choices=("dimacs", "json"),
        help="graph export format (export-graph only)",
    )
    parser.add_argument(
        "--primes",
        type=_parse_primes,
        default=euclid.DEFAULT_PRIMES,
        metavar="P1[,P2...]",
        help="primes for the modular rank lower bounds, tried in order; the "
        "first that settles the chain is used",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="include stage wall-clock times in output (breaks byte-for-byte "
        "reproducibility of the report)",
    )
    parser.add_argument(
        "--inject-flip-edge",
        type=_parse_edge,
        default=None,
        metavar="I,J",
        help="test hook: flip one adjacency after the graph is built",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)

    cfg = RunConfig(
        command=args.command,
        out=args.out,
        fmt=args.fmt,
        primes=args.primes,
        include_timings=args.timings,
        inject_flip_edge=args.inject_flip_edge,
    )

    try:
        if cfg.command == "check":
            if cfg.out:
                require_output_dir(cfg.out)
            report = run_check(cfg)
            sys.stdout.write(report.to_text(cfg.include_timings))
            if cfg.out:
                write_report_json(report, cfg.out, cfg.include_timings)
            return report.exit_code
        code, report = export(cfg)
        sys.stdout.write(report.to_text(cfg.include_timings))
        if code == 0:
            sys.stdout.write(f"wrote {cfg.out}\n")
        return code
    except ValueError as exc:
        sys.stderr.write(f"g24verify: error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"g24verify: i/o error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
