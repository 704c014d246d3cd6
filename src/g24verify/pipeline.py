"""Orchestration: the staged verification pipeline, report, and exporters.

Stages run in dependency order and stop at the first failed or
inconclusive one; every stage names the claims of PAPER.md it certifies and
contributes a structured detail block to the report.
All outputs are exact counts and witnesses; stage wall-clock times are
collected but serialized only on request, so default artifacts are
byte-for-byte reproducible.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import namedtuple
from contextlib import contextmanager

from . import __version__, cliques, euclid, gf16, graph, hermitian
from .errors import InconclusiveError, VerificationError

TOOL = "g24verify"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

# The isotropic point the split is taken on; the anchor-invariance stage
# carries it to the other 64.
ANCHOR = 1


RunConfig = namedtuple(
    "RunConfig",
    "command out fmt primes include_timings inject_flip_edge",
    defaults=("check", None, "dimacs", euclid.DEFAULT_PRIMES, False, None),
)

# claims: of PAPER.md, 1..9; status: ok | fail | inconclusive.
StageResult = namedtuple("StageResult", "name claims status detail elapsed_ms")


class Artifacts:
    """What the stages build, kept for the exporters and never serialized.

    An attribute stays None when the stage that builds it did not run.
    """

    plane = None  # hermitian.Plane
    bases = None  # [hermitian.Basis]
    isosets = None
    columns = None  # graph.point_columns(isosets)
    g = None  # graph.Graph
    automorphisms = None  # verified by the srg stage
    spectrum = None  # graph.Spectrum
    part = None  # graph.Partition
    certs = None  # [euclid.DimensionCertificate]
    clique_number = None
    cover = None  # [cliques.SpecialClique]


class Report:
    overall_status = "pass"
    exit_code = EXIT_PASS

    def __init__(self, config: dict):
        self.config = config
        self.stages = []
        self.artifacts = Artifacts()

    def stage(self, name: str) -> StageResult:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_dict(self, include_timings: bool = False) -> dict:
        doc: dict = {
            "tool": TOOL,
            "version": __version__,
            "field": {"polynomial": gf16.polynomial_label()},
            "config": self.config,
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
        if include_timings:
            doc["stage_timings_ms"] = {
                s.name: round(s.elapsed_ms, 3) for s in self.stages
            }
        return doc

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings), indent=2) + "\n"

    def to_text(self, include_timings: bool = False) -> str:
        lines = [f"{TOOL} {__version__} (GF(16): {gf16.polynomial_label()})"]
        for s in self.stages:
            suffix = f"  [{s.elapsed_ms:.0f} ms]" if include_timings else ""
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
    return {"axiom_checks": gf16.verify_axioms()}


def _stage_geometry(art, cfg):
    art.plane = hermitian.build_plane()
    return {
        "points": len(art.plane.points),
        "isotropic": len(art.plane.isotropic),
        "nonisotropic": len(art.plane.nonisotropic),
    }


def _stage_bases(art, cfg):
    # 6 bases on each nonisotropic point, 416 in all: implied by the checks
    # in `hermitian.enumerate_bases`, whose docstring counts them.
    art.bases = hermitian.enumerate_bases(art.plane)
    art.isosets = [b.isoset for b in art.bases]
    return {"bases": len(art.bases)}


def _stage_graph(art, cfg):
    art.g, dist, art.columns = graph.build_graph(art.isosets)
    detail = {
        "vertices": art.g.n,
        "edges": art.g.edge_count(),
        "isoset_intersection_sizes": {str(k): v for k, v in dist.items()},
    }
    if cfg.inject_flip_edge is not None:
        i, j = cfg.inject_flip_edge
        art.g.flip_edge(i, j)
        detail["fault_injected"] = [i, j]
    return detail


def _stage_srg(art, cfg):
    automorphisms = hermitian.basis_permutations(art.plane, art.bases)
    p = graph.verify_srg(art.g, automorphisms)
    if p != graph.SRG:
        raise VerificationError(
            f"srg{tuple(p)}, expected srg{tuple(graph.SRG)}", witness=tuple(p)
        )
    art.automorphisms = automorphisms
    art.spectrum = graph.srg_spectrum(p)
    census = euclid.distance_census(p)
    return {
        "parameters": list(p),
        "automorphisms_verified": len(automorphisms),
        "spectrum": {
            "r": str(art.spectrum.r),
            "f": art.spectrum.f,
            "s": str(art.spectrum.s),
            "g": art.spectrum.g_mult,
        },
        "column_sum": p.k + 4,  # of y = A + 4I, with A k-regular
        "distance_census": {str(d2): m for d2, m in census.items()},
    }


def _stage_partition(art, cfg):
    b_mask = art.columns[ANCHOR]
    art.part = graph.split_B_C(art.g, b_mask)
    return {
        "anchor": ANCHOR,
        "B": b_mask.bit_count(),
        "C": len(art.part.c),
        "component_sizes": [len(art.part.b1), len(art.part.b2), len(art.part.b3)],
    }


def _stage_block_counts(art, cfg):
    graph.verify_claim1(art.g, art.part)
    inside, across, _ = graph.CLAIM1["B1"]
    from_c = graph.CLAIM1["C"][0]
    return {"neighbour_counts": art.g.n * 3, "pattern": [inside, across, from_c]}


def _stage_anchor_invariance(art, cfg):
    # The block counts at anchor 1 carried to the other anchors.
    maps = graph.verify_point_action(art.g, art.columns, art.automorphisms)
    return {
        "anchors_covered": hermitian.ISOTROPIC_COUNT - 1,
        "point_maps_verified": len(maps),
    }


def _stage_clebsch(art, cfg):
    graph.check_component_structure(art.g, art.part)  # or it raises
    return {}


def _stage_dimension_chain(art, cfg):
    prime, art.certs = euclid.certified_dimension_chain(
        art.g, art.part, art.spectrum, cfg.primes
    )
    return {
        "primes": list(cfg.primes),
        "settled_by": prime,
        "contrast_products": euclid.contrast_products(art.part),
        "certificates": [
            {
                "set": c.label,
                "size": c.size,
                "affine_dim": c.affine_dim,
                "linear_rank": c.linear_rank,
                "upper_bound_argument": c.upper_argument,
            }
            for c in art.certs
        ],
    }


def _stage_max_clique(art, cfg):
    # One vertex orbit: verify_srg refuses maps that leave a second.
    size, witness, nodes = cliques.max_clique_by_orbits(art.g, [0])
    if size != 5:
        raise VerificationError(f"clique number {size}, expected 5", witness=witness)
    art.clique_number = size
    return {
        "clique_number": size,
        "witness": witness,
        "search_nodes": nodes,
    }


def _stage_special_cover(art, cfg):
    specials = cliques.enumerate_special_cliques(art.g, art.part, art.isosets)
    cliques.verify_special_cover(specials, art.part.c)
    art.cover = specials
    return {
        "special_cliques": len(specials),
        "covered_vertices": len(art.part.c),
        "cover_count": 1,
    }


def _stage_verdict(art, cfg):
    return cliques.final_verdict(
        art.certs, art.clique_number, c_size=len(art.part.c), b1_size=len(art.part.b1)
    )


# (name, the claims of PAPER.md it certifies, stage function), in run order.
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

_STOPS = {
    "fail": ("fail", EXIT_FAIL),
    "inconclusive": ("inconclusive", EXIT_INCONCLUSIVE),
}


def _config_dict(cfg: RunConfig) -> dict:
    return {"primes": list(cfg.primes)}


def run_check(cfg: RunConfig) -> Report:
    """Run the stages in order and stop at the first one that fails or is
    inconclusive; what the stages built is in `report.artifacts`."""
    report = Report(config=_config_dict(cfg))
    for name, claims, stage in _STAGES:
        t0 = time.perf_counter()
        try:
            detail, status = stage(report.artifacts, cfg), "ok"
        except InconclusiveError as exc:
            detail, status = {"error": str(exc)}, "inconclusive"
        except VerificationError as exc:
            detail, status = {"error": str(exc), "witness": exc.witness}, "fail"
        elapsed = (time.perf_counter() - t0) * 1000
        report.stages.append(StageResult(name, claims, status, detail, elapsed))
        if status != "ok":
            report.overall_status, report.exit_code = _STOPS[status]
            break
    return report


def require_output_dir(path: str) -> None:
    """Refuse, before any stage runs, an output path whose directory does
    not exist."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise OSError(f"output directory {parent!r} does not exist")


@contextmanager
def _atomic_open(path: str):
    """A text file for writing that appears at `path` only once it is
    complete: it is written beside `path` under a temporary name, then moved
    over `path` with `os.replace`; on any error it is removed instead."""
    fd, tmp = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.",
        suffix=".tmp",
        dir=os.path.dirname(path) or ".",
    )
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open(path, "w") would give
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_dimacs(g: graph.Graph, path: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(f"p edge {g.n} {g.edge_count()}\n")
        for i, j in g.edges():
            fh.write(f"e {i + 1} {j + 1}\n")


def write_graph_json(g: graph.Graph, path: str) -> None:
    doc = {
        "vertices": g.n,
        "edges": [[i + 1, j + 1] for i, j in g.edges()],
    }
    with _atomic_open(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_isosets_csv(isosets: list[int], path: str) -> None:
    with _atomic_open(path) as fh:
        for v, mask in enumerate(isosets):
            members = hermitian.isoset_members(mask)
            fh.write(",".join([str(v + 1)] + [str(m) for m in members]) + "\n")


def write_vectors_csv(g: graph.Graph, path: str) -> None:
    """The columns of y = A + 4I, one row per vertex."""
    with _atomic_open(path) as fh:
        for v in range(g.n):
            fh.write(f"{v + 1},{','.join(euclid.column_digits(g, v))}\n")


def write_cover_csv(cover: list[cliques.SpecialClique], path: str) -> None:
    with _atomic_open(path) as fh:
        for idx, c in enumerate(cover, start=1):
            cells = [str(idx)]
            cells += [str(v + 1) for v in c.vertices]
            cells += [str(t) for t in c.core]
            fh.write(",".join(cells) + "\n")


def write_report_json(report: Report, path: str, include_timings: bool = False) -> None:
    with _atomic_open(path) as fh:
        fh.write(report.to_json(include_timings))


def export(cfg: RunConfig) -> tuple[int, Report]:
    """Run the pipeline, then write the artifact named by cfg.command.

    Exports are refused unless every stage passed: artifacts always describe
    verified objects.
    """
    if cfg.out is None:
        raise ValueError("an output path is required (--out)")
    require_output_dir(cfg.out)
    report = run_check(cfg)
    if report.exit_code != EXIT_PASS:
        return report.exit_code, report
    art = report.artifacts
    if cfg.command == "export-graph":
        if cfg.fmt == "dimacs":
            write_dimacs(art.g, cfg.out)
        elif cfg.fmt == "json":
            write_graph_json(art.g, cfg.out)
        else:
            raise ValueError(f"unknown graph format {cfg.fmt!r}")
    elif cfg.command == "export-isosets":
        write_isosets_csv(art.isosets, cfg.out)
    elif cfg.command == "export-vectors":
        write_vectors_csv(art.g, cfg.out)
    elif cfg.command == "export-cover":
        write_cover_csv(art.cover, cfg.out)
    else:
        raise ValueError(f"unknown export command {cfg.command!r}")
    return report.exit_code, report
