"""Orchestration: the staged verification pipeline, report, and exporters.

Stages run in dependency order and short-circuit on the first mandatory
failure; every stage contributes a structured detail block to the report.
All outputs are exact counts and witnesses; stage wall-clock times are
collected but serialized only on request, so default artifacts are
byte-for-byte reproducible.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field

from . import __version__, cliques, euclid, gf16, graph, hermitian
from .errors import ConstructionError, InconclusiveError, VerificationError

TOOL = "g24verify"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


@dataclass
class RunConfig:
    command: str = "check"
    out: str | None = None
    fmt: str = "dimacs"
    primes: tuple[int, ...] = euclid.DEFAULT_PRIMES
    with_clebsch: bool = False
    with_uniqueness: bool = False
    uniqueness_budget: int = 1_000_000
    threads: int = 1
    seed: int = 0
    include_timings: bool = False
    inject_flip_edge: tuple[int, int] | None = None


@dataclass
class StageResult:
    name: str
    status: str  # ok | fail | inconclusive | skipped
    detail: dict
    elapsed_ms: float


@dataclass
class Report:
    stages: list[StageResult] = field(default_factory=list)
    overall_status: str = "pass"
    exit_code: int = EXIT_PASS
    config: dict = field(default_factory=dict)

    def stage(self, name: str) -> StageResult:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_dict(self, include_timings: bool = False) -> dict:
        doc: dict = {
            "tool": TOOL,
            "version": __version__,
            "field": {
                "polynomial": gf16.polynomial_label(),
                "generator": gf16.GENERATOR,
            },
            "config": self.config,
            "stages": [
                {"name": s.name, "status": s.status, "detail": s.detail}
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
            mark = {"ok": "OK", "fail": "FAIL", "inconclusive": "INCONCLUSIVE",
                    "skipped": "skipped"}[s.status]
            suffix = f"  [{s.elapsed_ms:.0f} ms]" if include_timings else ""
            lines.append(f"{s.name:<20} ... {mark}{suffix}")
            if s.status == "fail":
                lines.append(f"    {s.detail.get('error', '')}")
                if s.detail.get("witness") is not None:
                    lines.append(f"    witness: {s.detail['witness']}")
            if s.status == "inconclusive":
                lines.append(f"    {s.detail.get('error', '')}")
        for s in self.stages:
            if s.name == "verdict" and s.status == "ok":
                lines.append(s.detail["statement"])
        lines.append(f"overall: {self.overall_status.upper()}")
        return "\n".join(lines) + "\n"


class _Context(dict):
    """Artifacts shared between stages; plain dict with attribute sugar."""

    __getattr__ = dict.__getitem__
    __setattr__ = dict.__setitem__


def _stage_field_tables(ctx, cfg):
    checks = gf16.verify_axioms()
    return {
        "polynomial": gf16.polynomial_label(),
        "generator": gf16.GENERATOR,
        "axiom_checks": checks,
    }


def _stage_geometry(ctx, cfg):
    ctx.plane = hermitian.build_plane()
    return {
        "points": len(ctx.plane.points),
        "isotropic": len(ctx.plane.isotropic),
        "nonisotropic": len(ctx.plane.nonisotropic),
    }


def _stage_bases(ctx, cfg):
    ctx.bases = hermitian.enumerate_bases(ctx.plane)
    ctx.isosets = [b.isoset for b in ctx.bases]
    per_point: dict[int, int] = {}
    for b in ctx.bases:
        for t in b.noniso_indices:
            per_point[t] = per_point.get(t, 0) + 1
    counts = sorted(set(per_point.values()))
    if counts != [6] or len(per_point) != 208:
        raise VerificationError(
            f"bases per nonisotropic point: {counts}, expected every point in 6"
        )
    return {
        "bases": len(ctx.bases),
        "isoset_size": 15,
        "bases_per_nonisotropic_point": 6,
        "distinct_isosets": len(set(ctx.isosets)),
    }


def _stage_graph(ctx, cfg):
    ctx.g = graph.build_graph(ctx.isosets)
    dist = graph.intersection_size_distribution(ctx.isosets)
    detail = {
        "vertices": ctx.g.n,
        "edges": ctx.g.edge_count(),
        "isoset_intersection_sizes": {str(k): v for k, v in dist.items()},
    }
    if cfg.inject_flip_edge is not None:
        i, j = cfg.inject_flip_edge
        ctx.g.flip_edge(i, j)
        detail["fault_injected"] = [i, j]
    return detail


def _stage_srg(ctx, cfg):
    ctx.params = graph.verify_srg(ctx.g)
    graph.verify_srg_identity(ctx.g, ctx.params)
    ctx.spectrum = graph.srg_spectrum(ctx.params)
    p = ctx.params
    cross = graph.srg_spectrum(graph.SrgParams(10, 3, 0, 1))
    if (cross.s, cross.f) != (-2, 5):
        raise VerificationError(f"cross-instance spectrum check failed: {cross}")
    return {
        "parameters": [p.v, p.k, p.lam, p.mu],
        "feasibility": f"{p.k * (p.k - p.lam - 1)} = {(p.v - p.k - 1) * p.mu}",
        "identity_A2": "verified entrywise",
        "spectrum": {
            "r": str(ctx.spectrum.r),
            "f": ctx.spectrum.f,
            "s": str(ctx.spectrum.s),
            "g": ctx.spectrum.g_mult,
        },
        "cross_instance": {"parameters": [10, 3, 0, 1], "s": str(cross.s), "f": cross.f},
    }


def _stage_partition(ctx, cfg):
    ctx.part = graph.split_B_C(ctx.g, ctx.isosets, anchor=1)
    return {
        "anchor": 1,
        "B": 96,
        "C": len(ctx.part.c),
        "component_sizes": [len(ctx.part.b1), len(ctx.part.b2), len(ctx.part.b3)],
    }


def _stage_claim1(ctx, cfg):
    graph.verify_claim1(ctx.g, ctx.part)
    return {"checked_pairs": ctx.g.n * 3, "pattern": [20, 0, 8]}


def _stage_anchor_invariance(ctx, cfg):
    rng = random.Random(cfg.seed)
    anchors = sorted(rng.sample(range(2, 66), 3))
    for anchor in anchors:
        alt = graph.split_B_C(ctx.g, ctx.isosets, anchor=anchor)
        graph.verify_claim1(ctx.g, alt)
    return {"anchors_checked": anchors}


def _stage_clebsch(ctx, cfg):
    res = graph.check_component_structure(ctx.g, ctx.part, with_isomorphism=True)
    return {
        "components_20_regular": True,
        "cross_component_edges": 0,
        "isomorphic_to_model": res.get("isomorphisms_found") == 3,
    }


def _stage_representation(ctx, cfg):
    ctx.y = euclid.build_representation(ctx.g)
    ents = ctx.y.entries
    if not (ents == ents.T).all():
        raise VerificationError("representation matrix is not symmetric")
    if not (ents.diagonal() == 4).all():
        raise VerificationError("diagonal of y is not constant 4")
    if not (ents.sum(axis=0) == 104).all():
        raise VerificationError("column sums of y are not constant 104")
    census = euclid.distance_census(ctx.y, ctx.g)
    return {
        "diagonal": 4,
        "column_sum": 104,
        "distance_census": {str(k): v for k, v in sorted(census.items())},
    }


def _stage_inner_products(ctx, cfg):
    ctx.p, ctx.q = euclid.build_contrasts(ctx.part)
    euclid.verify_inner_products(ctx.y, ctx.p, ctx.q, ctx.part)
    return {
        "p_pattern": [euclid.P_PATTERN[b] for b in ("B1", "B2", "B3", "C")],
        "q_pattern": [euclid.Q_PATTERN[b] for b in ("B1", "B2", "B3", "C")],
        "p_dot_q": 0,
        "p_norm_sq": sum(x * x for x in ctx.p),
        "q_norm_sq": sum(x * x for x in ctx.q),
    }


def _stage_dimension_chain(ctx, cfg):
    ctx.certs = euclid.certified_dimension_chain(
        ctx.y, ctx.part, ctx.spectrum, cfg.primes
    )
    return {
        "primes": list(cfg.primes),
        "certificates": [
            {
                "set": c.label,
                "size": c.size,
                "affine_dim": c.affine_dim,
                "linear_rank": c.affine_dim + 1,
                "lower_bounds": {str(p): r for p, r in c.lower_bounds.items()},
                "linear_ranks": {str(p): r for p, r in c.linear_ranks.items()},
                "upper_bound_argument": c.upper_argument,
            }
            for c in ctx.certs
        ],
    }


def _stage_max_clique(ctx, cfg):
    automorphisms = hermitian.basis_permutations(ctx.plane, ctx.bases)
    size, witness, stats = cliques.max_clique_by_orbits(ctx.g, automorphisms)
    if size != 5:
        raise VerificationError(f"clique number {size}, expected 5", witness=witness)
    ctx.clique_number = size
    return {
        "clique_number": size,
        "witness": witness,
        "automorphisms_verified": stats.automorphisms_verified,
        "orbit_representatives": stats.orbit_representatives,
        "search_nodes": stats.nodes,
    }


def _stage_special_cover(ctx, cfg):
    ctx.specials = cliques.enumerate_special_cliques(ctx.g, ctx.part, ctx.isosets)
    if len(ctx.specials) < 64:
        raise VerificationError(
            f"only {len(ctx.specials)} special 5-cliques found, need at least 64"
        )
    ctx.cover = cliques.exact_cover_partition(ctx.specials, ctx.part.c)
    if len(ctx.cover.cliques) != 64 or ctx.cover.covered() != set(ctx.part.c):
        raise VerificationError("cover is not a 64-clique partition of C")
    cores = {c.core for c in ctx.cover.cliques}
    if len(cores) != 64:
        raise VerificationError("cover cores are not pairwise distinct")
    return {
        "special_cliques": len(ctx.specials),
        "cover_cliques": len(ctx.cover.cliques),
        "covered_vertices": len(ctx.cover.covered()),
        "distinct_cores": len(cores),
        "search_nodes": ctx.cover.nodes,
    }


def _stage_uniqueness(ctx, cfg):
    count, nodes, first = cliques.count_exact_covers(
        ctx.specials, ctx.part.c, budget=cfg.uniqueness_budget
    )
    if count != 1:
        raise VerificationError(
            f"{count} exact covers by special cliques exist, expected exactly 1"
        )
    if first != ctx.cover.cliques:
        raise VerificationError("unique cover differs from the found partition")
    return {"cover_count": 1, "search_nodes": nodes, "budget": cfg.uniqueness_budget}


def _stage_verdict(ctx, cfg):
    return cliques.final_verdict(
        ctx.certs,
        ctx.clique_number,
        ctx.cover,
        c_size=len(ctx.part.c),
        b1_size=len(ctx.part.b1),
    )


_STAGES: list[tuple[str, bool]] = [
    ("field-tables", True),
    ("geometry", True),
    ("bases", True),
    ("graph", True),
    ("srg", True),
    ("partition", True),
    ("claim1", True),
    ("anchor-invariance", True),
    ("clebsch", False),
    ("representation", True),
    ("inner-products", True),
    ("dimension-chain", True),
    ("max-clique", True),
    ("special-cover", True),
    ("uniqueness", False),
    ("verdict", True),
]

_STAGE_FUNCS = {
    "field-tables": _stage_field_tables,
    "geometry": _stage_geometry,
    "bases": _stage_bases,
    "graph": _stage_graph,
    "srg": _stage_srg,
    "partition": _stage_partition,
    "claim1": _stage_claim1,
    "anchor-invariance": _stage_anchor_invariance,
    "clebsch": _stage_clebsch,
    "representation": _stage_representation,
    "inner-products": _stage_inner_products,
    "dimension-chain": _stage_dimension_chain,
    "max-clique": _stage_max_clique,
    "special-cover": _stage_special_cover,
    "uniqueness": _stage_uniqueness,
    "verdict": _stage_verdict,
}


def _config_dict(cfg: RunConfig) -> dict:
    return {
        "primes": list(cfg.primes),
        "with_clebsch": cfg.with_clebsch,
        "with_uniqueness": cfg.with_uniqueness,
        "uniqueness_budget": cfg.uniqueness_budget,
        "threads": cfg.threads,
        "seed": cfg.seed,
    }


def run_check(cfg: RunConfig) -> Report:
    """Execute the stage sequence; short-circuit on mandatory failure."""
    report = Report(config=_config_dict(cfg))
    ctx = _Context()
    failed = False
    inconclusive = False
    for name, mandatory in _STAGES:
        if name == "clebsch" and not cfg.with_clebsch:
            report.stages.append(StageResult(name, "skipped", {}, 0.0))
            continue
        if name == "uniqueness" and not cfg.with_uniqueness:
            report.stages.append(StageResult(name, "skipped", {}, 0.0))
            continue
        t0 = time.perf_counter()
        try:
            detail = _STAGE_FUNCS[name](ctx, cfg)
            status = "ok"
        except InconclusiveError as exc:
            detail = {"error": str(exc)}
            status = "inconclusive"
            inconclusive = True
        except (VerificationError, ConstructionError) as exc:
            detail = {"error": str(exc), "witness": getattr(exc, "witness", None)}
            status = "fail"
            failed = True
        elapsed = (time.perf_counter() - t0) * 1000
        report.stages.append(StageResult(name, status, detail, elapsed))
        if status == "fail" or (status == "inconclusive" and mandatory):
            break

    if failed:
        report.overall_status = "fail"
        report.exit_code = EXIT_FAIL
    elif inconclusive:
        report.overall_status = "inconclusive"
        report.exit_code = EXIT_INCONCLUSIVE
    else:
        report.overall_status = "pass"
        report.exit_code = EXIT_PASS
    report._ctx = ctx  # artifacts for exporters; not serialized
    return report


def write_dimacs(g: graph.Graph, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"p edge {g.n} {g.edge_count()}\n")
        for i, j in g.edges():
            fh.write(f"e {i + 1} {j + 1}\n")


def write_graph_json(g: graph.Graph, path: str) -> None:
    doc = {
        "vertices": g.n,
        "edges": [[i + 1, j + 1] for i, j in g.edges()],
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_isosets_csv(isosets: list[int], path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        for v, mask in enumerate(isosets):
            members = hermitian.isoset_members(mask)
            fh.write(",".join([str(v + 1)] + [str(m) for m in members]) + "\n")


def write_vectors_csv(y: euclid.ReprMatrix, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        for v in range(y.n):
            col = y.column(v)
            fh.write(",".join([str(v + 1)] + [str(e) for e in col]) + "\n")


def write_cover_csv(cover: cliques.CoverResult, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        for idx, c in enumerate(cover.cliques, start=1):
            cells = [str(idx)]
            cells += [str(v + 1) for v in c.vertices]
            cells += [str(t) for t in c.core]
            fh.write(",".join(cells) + "\n")


def write_report_json(report: Report, path: str, include_timings: bool = False) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(report.to_json(include_timings))


def export(cfg: RunConfig) -> tuple[int, Report]:
    """Run the pipeline, then write the artifact named by cfg.command.

    Exports are refused when verification fails: artifacts always describe
    verified objects.
    """
    if cfg.out is None:
        raise ValueError("an output path is required (--out)")
    parent = os.path.dirname(cfg.out) or "."
    if not os.path.isdir(parent):
        raise OSError(f"output directory {parent!r} does not exist")
    report = run_check(cfg)
    if report.exit_code == EXIT_FAIL:
        return report.exit_code, report
    ctx = report._ctx
    if cfg.command == "export-graph":
        if cfg.fmt == "dimacs":
            write_dimacs(ctx.g, cfg.out)
        elif cfg.fmt == "json":
            write_graph_json(ctx.g, cfg.out)
        else:
            raise ValueError(f"unknown graph format {cfg.fmt!r}")
    elif cfg.command == "export-isosets":
        write_isosets_csv(ctx.isosets, cfg.out)
    elif cfg.command == "export-vectors":
        write_vectors_csv(ctx.y, cfg.out)
    elif cfg.command == "export-cover":
        write_cover_csv(ctx.cover, cfg.out)
    elif cfg.command == "report":
        write_report_json(report, cfg.out, cfg.include_timings)
    else:
        raise ValueError(f"unknown export command {cfg.command!r}")
    return report.exit_code, report
