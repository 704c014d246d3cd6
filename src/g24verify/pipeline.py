"""Orchestration: the staged verification pipeline, report, and exporters.

Stages run in dependency order and stop at the first failed one; every
stage names the claims it certifies (README.md's "What it verifies") and
contributes a structured detail block to the report.  `run` is the one path
of every command: it refuses a bad output path, runs the stages, and writes
the report or the export.
All outputs are exact counts and witnesses.  Each stage's wall-clock and
CPU times, and the write's, are collected on every run, and the peak RSS
after each stage only when timings are asked for; they are printed or
serialized only then, so default artifacts are byte-for-byte reproducible.
"""

import os
import sys
import time

from . import VerificationError, __version__, graph, hermitian

TOOL = "g24verify"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 3

# The isotropic point the split is taken on; the anchor-invariance stage
# carries it to the other 64.
ANCHOR = 1


class RunConfig:
    """What one run does; `cli.parse_args` builds it from the command line."""

    def __init__(
        self, command="check", out=None, include_timings=False, inject_flip_edge=None
    ):
        self.command, self.out = command, out
        self.include_timings, self.inject_flip_edge = include_timings, inject_flip_edge


class StageResult:
    """One stage's outcome.  claims: README's, 1..9; status: ok | fail;
    elapsed_ms and cpu_ms: its wall and CPU time; peak_rss_mb: the process's
    peak RSS after it, None unless the run was asked for timings."""

    def __init__(self, name, claims, status, detail, elapsed_ms, cpu_ms, peak_rss_mb):
        self.name, self.claims, self.status = name, claims, status
        self.detail, self.elapsed_ms = detail, elapsed_ms
        self.cpu_ms, self.peak_rss_mb = cpu_ms, peak_rss_mb


class Artifacts:
    """What the stages build, kept for the exporters and never serialized.

    An attribute stays None when the stage that builds it did not run.
    """

    plane = None  # hermitian.Plane
    sides = None  # the three sides of each basis, from hermitian.enumerate_bases
    isosets = None  # the union of each basis's sides
    columns = None  # graph.point_columns(isosets)
    rows = None  # the graph's adjacency rows, from graph.build_graph
    point_maps = None  # hermitian.point_permutations, lifted by the srg stage
    automorphisms = None  # the lifts, verified by the srg stage
    part = None  # graph.Partition
    c_maps = None  # graph.stabilizer of C, from graph.STABILIZER_WORDS
    cover = None  # [graph.SpecialClique]


class Report:
    overall_status = "pass"
    exit_code = EXIT_PASS
    timed = False  # whether the run was asked for timings, which it then shows
    write_ms = None  # (wall, cpu) of writing cfg.out, once `run` has written it

    def __init__(self):
        self.stages = []
        self.artifacts = Artifacts()

    def to_dict(self) -> dict:
        doc: dict = {
            "tool": TOOL,
            "version": __version__,
            "field": {"polynomial": hermitian.POLYNOMIAL},
            "stages": [
                {
                    "name": s.name,
                    "claims": list(s.claims),
                    "status": s.status,
                    "detail": s.detail,
                }
                for s in self.stages
            ],
            "overall": {"status": self.overall_status, "exit_code": self.exit_code},
        }
        for s in self.stages:
            if s.name == "verdict" and s.status == "ok":
                doc["verdict"] = s.detail
        if self.timed:
            doc["stage_timings_ms"] = {
                s.name: round(s.elapsed_ms, 3) for s in self.stages
            }
            doc["stage_cpu_ms"] = {s.name: round(s.cpu_ms, 3) for s in self.stages}
            doc["stage_peak_rss_mb"] = {s.name: s.peak_rss_mb for s in self.stages}
        return doc

    def to_json(self) -> str:
        import json  # only here: check without --out writes no JSON

        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"{TOOL} {__version__} (GF(16): {hermitian.POLYNOMIAL})"]
        for s in self.stages:
            suffix = ""
            if self.timed:
                cost = s.elapsed_ms, s.cpu_ms, s.peak_rss_mb
                suffix = "  [%.1f ms wall, %.1f ms cpu, %.1f MB peak rss]" % cost
            lines.append(f"{s.name:<20} ... {s.status.upper()}{suffix}")
            if s.status != "ok":
                claims = "/".join(map(str, s.claims))
                lines.append(f"    claim {claims}: {s.detail['error']}")
                if s.detail.get("witness") is not None:
                    lines.append(f"    witness: {s.detail['witness']}")
        for s in self.stages:
            if s.name == "verdict" and s.status == "ok":
                lines.append(s.detail["statement"])
        lines.append(f"overall: {self.overall_status.upper()}")
        return "\n".join(lines) + "\n"


def _stage_field_tables(art, cfg):
    return {"axiom_checks": hermitian.verify_axioms()}


def _stage_geometry(art, cfg):
    art.plane = hermitian.build_plane()
    points, iso, noniso = art.plane
    return {"points": len(points), "isotropic": len(iso), "nonisotropic": len(noniso)}


def _stage_bases(art, cfg):
    # 6 bases on each nonisotropic point, 416 in all: implied by the checks
    # in `hermitian.enumerate_bases`, whose docstring counts them.
    art.sides = [sides for _, sides in hermitian.enumerate_bases(art.plane)]
    art.isosets = [a | b | c for a, b, c in art.sides]
    return {"bases": len(art.isosets)}


def _stage_graph(art, cfg):
    art.rows, art.columns = graph.build_graph(art.sides)
    detail = {"vertices": len(art.rows), "edges": graph.edge_count(art.rows)}
    if cfg.inject_flip_edge is not None:
        i, j = cfg.inject_flip_edge
        graph.flip_edge(art.rows, i, j)
        detail["fault_injected"] = [i, j]
    return detail


def _stage_srg(art, cfg):
    point_maps = hermitian.point_permutations(art.plane)
    automorphisms = graph.vertex_permutations(art.isosets, art.columns, point_maps)
    p = graph.verify_srg(art.rows, automorphisms)
    if p != graph.SRG:
        raise VerificationError(f"srg{p}, expected srg{graph.SRG}", witness=p)
    art.point_maps, art.automorphisms = point_maps, automorphisms
    r, f, s, g_mult = graph.SPECTRUM
    return {
        "parameters": list(p),
        "automorphisms_verified": len(automorphisms),
        "spectrum": {"r": str(r), "f": f, "s": str(s), "g": g_mult},
        "column_sum": p[1] + 4,  # of y = A + 4I, with A k-regular
        "distance_census": {str(d2): m for d2, m in graph.DISTANCE_CENSUS.items()},
    }


def _stage_partition(art, cfg):
    b_mask = art.columns[ANCHOR]
    art.part = graph.split_B_C(art.rows, b_mask)
    return {
        "anchor": ANCHOR,
        "B": b_mask.bit_count(),
        "C": art.part.c.bit_count(),
        "component_sizes": [block.bit_count() for block in list(art.part)[:3]],
    }


def _stage_block_counts(art, cfg):
    graph.verify_claim1(art.rows, art.part)
    inside, across, _ = graph.CLAIM1["B1"]
    from_c = graph.CLAIM1["C"][0]
    return {"neighbour_counts": len(art.rows) * 3, "pattern": [inside, across, from_c]}


def _stage_anchor_invariance(art, cfg):
    # Why one point orbit carries the block counts: `graph.vertex_permutations`.
    reps = graph.orbit_representatives(hermitian.ISOTROPIC_COUNT, art.point_maps)
    if reps != [0]:
        raise VerificationError(
            f"the point maps leave {len(reps)} orbits on the points, not 1",
            witness=reps[1] + 1,
        )
    return {
        "anchors_covered": hermitian.ISOTROPIC_COUNT - 1,
        "point_maps_verified": len(art.point_maps),
    }


def _stage_clebsch(art, cfg):
    graph.check_component_structure(art.rows, art.part)  # or it raises
    return {}


def _stage_dimension_chain(art, cfg):
    art.c_maps = graph.stabilizer(art.automorphisms, graph.STABILIZER_WORDS, art.part.c)
    # p is 1 on B2 and -1 on B3; q is 2 on B1 and -1 on B2 and B3; both are
    # 0 on C.  For i in block X, <w, y_i> = 4 w_X + sum over h of
    # w_Bh |N(i) & B_h|, and graph.CLAIM1 gives |N(i) & B_h|: 20 in i's own
    # B-block, 0 in the others, 8 in each from C.  On B1, B2, B3, C that is
    # <p, y_i> = 0, 4 + 20, -4 - 20, 8 - 8 and
    # <q, y_i> = 8 + 40, -4 - 20, -4 - 20, 16 - 8 - 8; over blocks of 32,
    # <p, q> = 32 (-1 + 1), |p|^2 = 32 (1 + 1) and |q|^2 = 32 (4 + 1 + 1).
    return {
        "contrast_products": {
            "p_pattern": [0, 24, -24, 0],
            "q_pattern": [48, -24, -24, 0],
            "p_dot_q": 0,
            "p_norm_sq": 64,
            "q_norm_sq": 192,
        },
        "certificates": graph.certified_dimension_chain(art.rows, art.part),
    }


def _stage_max_clique(art, cfg):
    # One vertex orbit (verify_srg) and the words that fix vertex 0.
    vertex_maps = graph.stabilizer(art.automorphisms, graph.VERTEX_WORDS, 1)
    witness, checks = graph.verify_clique_number(art.rows, vertex_maps)
    return {"clique_number": len(witness), "witness": witness, "local_checks": checks}


def _stage_special_cover(art, cfg):
    art.cover = graph.special_cliques(art.rows, art.part, art.isosets, art.c_maps)
    return {"special_cliques": len(art.cover)}


def _stage_verdict(art, cfg):
    """Claim 8, from numbers that earlier stages pin.  A part of smaller
    diameter is a clique, of at most 5 points (max-clique), so n points need
    ceil(n / 5) parts: the 320 + 32 = 352 points of C+B1 (partition), of
    affine dimension 64 (dimension-chain), need 71 > 64 + 1; the 416 of V,
    in dimension 65, need 84; the 320 of C, in dimension 63, need 64.

    Nothing is checked here, and no "verdict withheld" refusal is needed:
    this stage runs only when every earlier one passed, so 71 > 65 holds.
    """
    return {
        "counterexample_dimension": 64,
        "point_count": 352,
        "max_clique": 5,
        "min_parts": 71,
        "exceeds_dimension_plus_one": True,
        "full_set": {"dimension": 65, "point_count": 416, "min_parts": 84},
        "near_miss": {"dimension": 63, "point_count": 320, "min_parts": 64},
        "note": "a stronger lower bound of 72 parts has been reported; not verified here",
        "statement": (
            "352 points of affine dimension 64 need at least 71 parts of "
            "smaller diameter; 71 > 65"
        ),
    }


# (name, the claims of README it certifies, stage function), in run order.
_STAGES = (
    ("field-tables", (1,), _stage_field_tables),
    ("geometry", (2,), _stage_geometry),
    ("bases", (2,), _stage_bases),
    ("graph", (3,), _stage_graph),
    ("srg", (3, 4), _stage_srg),
    ("partition", (5,), _stage_partition),
    ("block-counts", (5,), _stage_block_counts),
    ("anchor-invariance", (5,), _stage_anchor_invariance),
    ("clebsch", (5,), _stage_clebsch),
    ("dimension-chain", (6,), _stage_dimension_chain),
    ("max-clique", (7,), _stage_max_clique),
    ("special-cover", (9,), _stage_special_cover),
    ("verdict", (8,), _stage_verdict),
)


def run_check(cfg: RunConfig) -> Report:
    """Run the stages in order and stop at the first one that fails; what
    the stages built is in `report.artifacts`."""
    report = Report()
    report.timed = cfg.include_timings
    if report.timed:
        import resource  # only here: a run without --timings reads no RSS
    for name, claims, stage in _STAGES:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            detail, status = stage(report.artifacts, cfg), "ok"
        except VerificationError as exc:
            detail, status = {"error": str(exc), "witness": exc.witness}, "fail"
        elapsed = (time.perf_counter() - t0) * 1000
        cpu = (time.process_time() - c0) * 1000
        rss = None
        if report.timed:
            # ru_maxrss counts KiB on Linux and bytes on macOS.
            unit = 2**20 if sys.platform == "darwin" else 2**10
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit
        result = StageResult(name, claims, status, detail, elapsed, cpu, rss)
        report.stages.append(result)
        if status != "ok":
            report.overall_status, report.exit_code = "fail", EXIT_FAIL
            break
    return report


def _atomic_write(path: str, data: bytes) -> None:
    """Write `data` to a file that appears at `path` only once it is
    complete: it is written beside `path` as `.<basename>.<pid>.tmp`, then
    moved over `path` with `os.replace`; on any error it is removed instead.
    Mode "xb" creates it with O_EXCL, so a name that exists is refused and
    nothing there is overwritten, and the kernel applies the umask to
    0o666."""
    head, base = os.path.split(path)
    tmp = os.path.join(head, f".{base}.{os.getpid()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_dimacs(rows: list[int], path: str) -> None:
    header = f"p edge {len(rows)} {graph.edge_count(rows)}\n"
    edges = "".join(f"e {i + 1} {j + 1}\n" for i, j in graph.edges(rows))
    _atomic_write(path, (header + edges).encode())


def write_isosets_csv(isosets: list[int], path: str) -> None:
    lines = "".join(
        ",".join([str(v + 1)] + [str(m) for m in hermitian.members(mask)]) + "\n"
        for v, mask in enumerate(isosets)
    )
    _atomic_write(path, lines.encode())


def write_vectors_csv(rows: list[int], path: str) -> None:
    """The columns of y = A + 4I, one line per vertex: its number, then its
    column, comma-separated.  Column v of y is row v of A, as A is
    symmetric, with 4 at coordinate v.

    The file is built as bytes.  The rows are packed, 8 coordinates a byte
    (`graph.packed`, w = ceil(n / 8) bytes a row), and laid out in a body
    of n lines of 16 w bytes, a digit and a comma for each coordinate: bit t
    of every packed byte, translated to its digit, goes to every 16th byte
    from 2 t in one strided assignment.  Two more put a newline after each
    row's n-th digit and 4 on the diagonal.  Line v + 1 of the file is then
    v + 1 and a comma, and the first 2 n bytes of body line v.
    """
    n = len(rows)
    line = 16 * -(-n // 8)
    data = b"".join(graph.packed(rows, n))  # bit t of row v: byte w v + t // 8
    body = bytearray(b",") * (line * n)
    for t in range(8):
        digit = (b"0" * (1 << t) + b"1" * (1 << t)) * (128 >> t)  # of bit t, by byte
        body[2 * t :: 16] = data.translate(digit)
    body[2 * n - 1 :: line] = b"\n" * n
    body[:: line + 2] = b"4" * n
    view = memoryview(body)
    parts = [None] * (2 * n)
    parts[::2] = [b"%d," % (v + 1) for v in range(n)]
    parts[1::2] = [view[k : k + 2 * n] for k in range(0, line * n, line)]
    _atomic_write(path, b"".join(parts))


def write_cover_csv(cover: list[graph.SpecialClique], path: str) -> None:
    lines = "".join(
        ",".join([str(idx)] + [str(v + 1) for v in vertices] + [str(t) for t in core])
        + "\n"
        for idx, (vertices, core) in enumerate(cover, start=1)
    )
    _atomic_write(path, lines.encode())


def write_report_json(report: Report, path: str) -> None:
    _atomic_write(path, report.to_json().encode())


# What each command writes to --out, from the run's report; the CLI offers
# these commands.
WRITERS = {
    "check": lambda r, cfg: write_report_json(r, cfg.out),
    "export-graph": lambda r, cfg: write_dimacs(r.artifacts.rows, cfg.out),
    "export-isosets": lambda r, cfg: write_isosets_csv(r.artifacts.isosets, cfg.out),
    "export-vectors": lambda r, cfg: write_vectors_csv(r.artifacts.rows, cfg.out),
    "export-cover": lambda r, cfg: write_cover_csv(r.artifacts.cover, cfg.out),
}


def run(cfg: RunConfig, show=None) -> Report:
    """Run the stages, then write what cfg.command writes to cfg.out, if it
    is set: check's report whatever the verdict, an export only when every
    stage passed, so that artifacts always describe verified objects.

    Before any stage runs, the command's writer is looked up and an OSError
    refuses a cfg.out that names no file in an existing directory.
    `show(report)`, if given, is called before anything is written.
    parse_args has checked the command and that an export has an output
    path.
    """
    write = WRITERS[cfg.command]
    if cfg.out is not None:
        head, base = os.path.split(cfg.out)
        if not base or os.path.isdir(cfg.out):
            raise OSError(f"output path {cfg.out!r} names no file")
        if not os.path.isdir(head or "."):
            raise OSError(f"output directory {head!r} of {cfg.out!r} does not exist")
    report = run_check(cfg)
    if show:
        show(report)
    passed = report.exit_code == EXIT_PASS
    if cfg.out is not None and (passed or cfg.command == "check"):
        t0, c0 = time.perf_counter(), time.process_time()
        write(report, cfg)
        wall = (time.perf_counter() - t0) * 1000
        report.write_ms = wall, (time.process_time() - c0) * 1000
    return report
