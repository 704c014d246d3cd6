"""Command-line entry point.

Commands: check (default; with --out it also writes the JSON report),
export-graph, export-isosets, export-vectors, export-cover.  Exit codes:
0 pass, 1 verification failure, 3 usage or I/O error.
"""

import sys

from . import __version__, graph
from .pipeline import EXIT_USAGE, WRITERS, RunConfig, run

USAGE = """\
usage: g24verify [-h] [--version] [--out PATH] [--timings]
                 [--inject-flip-edge I,J] [COMMAND]
"""

HELP = USAGE + """
Construct the G2(4) graph from the Hermitian unital in PG(2,16) and certify
the 64-dimensional two-distance Borsuk counterexample.

COMMAND is check (the default), export-graph, export-isosets,
export-vectors or export-cover.

options:
  -h, --help              show this help message and exit
  --version               show the version and exit
  --out PATH              output file of an export or of check's report
  --timings               include each stage's wall and CPU time and the peak
                          RSS in output (breaks byte-for-byte reproducibility
                          of the report), and an export's write time on stdout
  --inject-flip-edge I,J  test hook: flip one adjacency after the graph is built
"""

# Each option that takes a value, and the RunConfig field that it sets.
_VALUED = {"--out": "out", "--inject-flip-edge": "inject_flip_edge"}


def _usage_error(message: str) -> SystemExit:
    """Write the usage and `message` to stderr; the exit 3 to raise."""
    sys.stderr.write(f"{USAGE}g24verify: error: {message}\n")
    return SystemExit(EXIT_USAGE)


def _parse_edge(text: str) -> tuple[int, int]:
    try:
        i, j = (int(t) for t in text.split(","))
    except ValueError:
        raise _usage_error(f"bad edge {text!r}, want I,J")
    n = graph.VERTEX_COUNT
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise _usage_error(f"edge {text!r} out of range")
    return (i, j)


def parse_args(argv: list[str]) -> RunConfig:
    """The run that `argv` asks for.  An option's value follows it or an
    `=`; options are spelled in full.  -h and --version print and exit 0,
    and a usage error exits 3: among them an unknown command and an export
    with no --out."""
    fields = {}
    args = iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=")
        if arg in ("-h", "--help"):
            sys.stdout.write(HELP)
            raise SystemExit(0)
        if arg == "--version":
            sys.stdout.write(f"g24verify {__version__}\n")
            raise SystemExit(0)
        if arg == "--timings":
            fields["include_timings"] = True
        elif name in _VALUED:
            if not eq:
                value = next(args, None)
                if value is None or value.startswith("-"):
                    raise _usage_error(f"argument {name}: expected one argument")
            if name == "--inject-flip-edge":
                value = _parse_edge(value)
            fields[_VALUED[name]] = value
        elif arg.startswith("-") or "command" in fields:
            raise _usage_error(f"unrecognized arguments: {arg}")
        else:
            fields["command"] = arg
    cfg = RunConfig(**fields)
    if cfg.command not in WRITERS:
        listed = ", ".join(WRITERS)
        raise _usage_error(f"invalid choice {cfg.command!r}, choose from {listed}")
    if cfg.command != "check" and cfg.out is None:
        raise _usage_error(f"{cfg.command} needs --out")
    return cfg


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report = run(cfg, lambda r: sys.stdout.write(r.to_text(cfg.include_timings)))
    except OSError as exc:
        sys.stderr.write(f"g24verify: i/o error: {exc}\n")
        return EXIT_USAGE
    if cfg.command != "check" and report.exit_code == 0:
        cost = ""
        if cfg.include_timings:
            cost = "  [{:.1f} ms wall, {:.1f} ms cpu]".format(*report.write_ms)
        sys.stdout.write(f"wrote {cfg.out}{cost}\n")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
