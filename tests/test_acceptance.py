"""Acceptance suite: one test per criterion, each printing a PASS line.

Each claim about the real objects is asserted here and in no module test,
and each expensive oracle runs here once.  Every check is exact (tolerance
zero).  Run with  pytest tests/test_acceptance.py -v -s
to see one line per criterion.  The session fixtures build each object once;
criterion 12 re-runs the pipeline where independence demands it.
"""

import random

from g24verify import graph, hermitian
from g24verify.pipeline import RunConfig, run_check

import oracles


def _ok(label: str) -> None:
    print(f"ACCEPTANCE {label}: PASS")


def test_c01_point_census(plane):
    points, iso, noniso = plane
    assert len(points) == 273
    assert len(iso) == 65
    assert len(noniso) == 208
    _ok("01 point census 273/65/208")


def test_c02_basis_census(bases, isosets):
    assert len(bases) == 416
    assert all(isoset.bit_count() == 15 for isoset in isosets)
    assert len(set(isosets)) == 416
    _ok("02 basis census 416, distinct iso-sets of 15")


def test_c03_srg_verification(rows, srg_params):
    # A^2 identity on the pairs through 0, carried to all pairs by the
    # verified vertex-transitive automorphisms; the scan of every pair agrees.
    assert srg_params == graph.SRG == (416, 100, 36, 20)
    assert oracles.verify_srg_all_pairs(rows) == srg_params
    _ok("03 srg(416,100,36,20) with exact A^2 identity")


def test_c04_spectrum(spectrum):
    # (r, f, s, g), recomputed from the verified parameters, in ints.
    assert spectrum == graph.SPECTRUM == (20, 65, -4, 350)
    assert all(type(x) is int for x in graph.SPECTRUM)
    assert oracles.srg_spectrum((10, 3, 0, 1)) == (1, 5, -2, 4)  # Petersen
    _ok("04 spectrum s=-4, f=65; cross-instance (10,3,0,1) -> s=-2, f=5")


def test_c05_distance_dichotomy(rows, srg_params):
    census = oracles.srg_distance_census(srg_params)
    assert census == graph.DISTANCE_CENSUS == {144: 20800, 192: 65520}
    # y's columns are A's rows off the diagonal.  The scan counts each
    # distance with its pair's adjacency, so a distance off its adjacency, a
    # diagonal bit or an asymmetric entry breaks this equality.
    assert oracles.distance_census(rows) == {(144, 1): 20800, (192, 0): 65520}
    _ok("05 distances {144,192} matching adjacency, derived and scanned")


def test_c06_partition_and_claim1(rows, isosets, point_maps, part):
    assert (part.b1 | part.b2 | part.b3).bit_count() == 96
    assert [m.bit_count() for m in part] == [32, 32, 32, 320]
    graph.verify_claim1(rows, part)  # all 416 x 3 counts
    # The verified automorphisms, lifted from point maps with one orbit on
    # the points, carry anchor 1 to every anchor; the direct check at all 65
    # anchors agrees.
    assert graph.orbit_representatives(65, point_maps) == [0]
    parts = oracles.claim1_at_every_anchor(rows, isosets)
    assert len(parts) == 65
    _ok("06 partition 96/320, components 32/32/32, claim counts 20/0/8 "
        "at all 65 anchors")


def test_c07_contrast_products(rows, part, contrasts, full_report):
    # Constants of the program, derived from claim 1; counted on every
    # column here.
    p, q = contrasts
    products = oracles.stage(full_report, "dimension-chain").detail["contrast_products"]
    assert products["p_pattern"] == [0, 24, -24, 0]
    assert products["q_pattern"] == [48, -24, -24, 0]
    for v, pattern in ((p, products["p_pattern"]), (q, products["q_pattern"])):
        want = [pattern[oracles.block_of(part, i)] for i in range(416)]
        assert oracles.inner_products(rows, v) == want
    assert sum(a * b for a, b in zip(p, q)) == products["p_dot_q"] == 0
    _ok("07 contrast patterns (0,24,-24,0) and (48,-24,-24,0), <p,q>=0")


def test_c08_dimension_chain(rows, part, certificates, full_report):
    by_set = {c["set"]: c for c in certificates}
    assert [by_set[k]["affine_dim"] for k in ("V", "C+B1", "C")] == [65, 64, 63]
    assert [by_set[k]["linear_rank"] for k in ("V", "C+B1", "C")] == [66, 65, 64]
    chain = oracles.stage(full_report, "dimension-chain").detail
    assert [c["affine_dim"] for c in chain["certificates"]] == [65, 64, 63]
    # The ranks of y's columns, each returned with its certificate checked
    # (at least by a nonzero minor, at most by a span identity on all 416
    # rows); test_representation_entries shows dense(rows)'s columns are the
    # program's.  The sets are prefixes of C, B1, B2, B3, the order that
    # keeps every product within int64.
    y = oracles.dense(rows)
    order = [v for m in (part.c, part.b1, part.b2, part.b3) for v in oracles.vertices(m)]
    ranks = [oracles.exact_column_rank(y, order[:k]) for k in (416, 352, 320)]
    assert ranks == [66, 65, 64]
    _ok("08 affine dimensions 65/64/63 certified exactly; linear ranks "
        "66/65/64, matched by checked rank certificates")


def test_c09_clique_number(rows, vertex_maps):
    size, witness, stats = oracles.max_clique(rows)
    assert len(witness) == size == 5
    # The search in N(0) alone takes 1412 nodes (test_clique_number_is_5).
    assert stats.edges_scanned == 20800 and stats.nodes > 5000
    oracles.verify_clique(rows, witness)
    # One check per representative u in N(0) (four) and vertex of
    # N(0) & N(u) (36 each); the witness is the first 5-clique it meets.
    witness, checks = graph.verify_clique_number(rows, vertex_maps)
    oracles.verify_clique(rows, witness)
    assert (witness, checks) == ([0, 16, 28, 40, 384], 144)
    _ok("09 clique number 5 with verified witness: no 6-clique in 144 local "
        "checks at vertex 0, matched by a search from every edge")


def test_c10_borsuk_bounds(full_report):
    # Every field of the verdict, recomputed from the numbers that earlier
    # stages pin: the dimensions, the clique number and the block sizes.
    detail = {s.name: s.detail for s in full_report.stages}
    chain = detail["dimension-chain"]["certificates"]
    dims = {c["set"]: c["affine_dim"] for c in chain}
    omega = detail["max-clique"]["clique_number"]
    n_all = detail["graph"]["vertices"]
    n_c = detail["partition"]["C"]
    n = n_c + detail["partition"]["component_sizes"][0]

    def parts(points):
        # A part of smaller diameter is a clique: ceil(points / omega).
        return -(-points // omega)

    dim = dims["C+B1"]
    verdict = {
        "counterexample_dimension": dim,
        "point_count": n,
        "max_clique": omega,
        "min_parts": parts(n),
        "exceeds_dimension_plus_one": parts(n) > dim + 1,
        "full_set": {
            "dimension": dims["V"],
            "point_count": n_all,
            "min_parts": parts(n_all),
        },
        "near_miss": {
            "dimension": dims["C"],
            "point_count": n_c,
            "min_parts": parts(n_c),
        },
        "note": "a stronger lower bound of 72 parts has been reported; not verified here",
        "statement": f"{n} points of affine dimension {dim} need at least "
        f"{parts(n)} parts of smaller diameter; {parts(n)} > {dim + 1}",
    }
    assert detail["verdict"] == full_report.to_dict()["verdict"] == verdict
    assert (n, dim, parts(n), parts(n_all), parts(n_c)) == (352, 64, 71, 84, 64)
    assert verdict["exceeds_dimension_plus_one"] is True
    _ok("10 bounds ceil(352/5)=71, ceil(416/5)=84, dimension-64 verdict")


def test_c11_cover_and_uniqueness(rows, isosets, special_cliques, part, full_report):
    assert len(special_cliques) * 5 == part.c.bit_count() == 320
    covered = sorted(v for vertices, _ in special_cliques for v in vertices)
    assert covered == oracles.vertices(part.c)
    assert oracles.enumerate_special_cliques(rows, part, isosets) == special_cliques
    assert oracles.stage(full_report, "special-cover").detail == {"special_cliques": 64}
    _ok("11 C tiled by its 64 special 5-cliques, so they are its only exact "
        "cover; matched by grouping every edge of C")


def test_c12a_gf16_axioms_exhaustive():
    checks = hermitian.verify_axioms()
    assert checks["associativity_distributivity"] == 16**3
    assert checks["commutativity"] == 16**2
    assert checks["conjugation"] == 16
    _ok("12a GF(16) axiom suite exhaustive")


def test_c12b_hermitian_symmetry_exhaustive(plane):
    points = plane[0]
    for a in points:
        for b in points:
            assert hermitian.hermitian_form(a, b) == hermitian._CONJ[
                hermitian.hermitian_form(b, a)
            ]
    _ok("12b Hermitian symmetry over all 273 x 273 pairs")


def test_c12c_line_dichotomy_exhaustive(plane):
    iso = set(plane[1])
    lines = set()
    pts = plane[0]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            lines.add(tuple(oracles.line_points(pts[i], pts[j])))
    assert len(lines) == 273
    meets = [sum(1 for p in line if p in iso) for line in lines]
    assert sorted(set(meets)) == [1, 5]
    assert meets.count(1) == 65  # the tangents, one per isotropic point
    _ok("12c tangent/secant dichotomy over all 273 lines")


def test_c12d_determinism_two_runs():
    cfg = RunConfig()
    a = run_check(cfg)
    b = run_check(cfg)
    assert a.to_json() == b.to_json()
    assert a.to_text() == b.to_text()
    _ok("12d two full runs byte-identical")


def test_c12e_fault_injection():
    rng = random.Random(5)
    i, j = rng.sample(range(416), 2)
    report = run_check(RunConfig(inject_flip_edge=(i, j)))
    # Short-circuit: nothing after the failed stage ran.
    srg_stage = oracles.refused(report, "srg")
    assert srg_stage.detail["witness"] is not None
    _ok("12e flipped edge fails the srg stage with a witness")
