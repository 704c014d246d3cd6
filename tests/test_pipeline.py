"""Pipeline orchestration, exports, determinism, exit codes, CLI surface."""

import hashlib
import json
import os
import subprocess
import sys

import jsonschema
import pytest

import g24verify
from g24verify import cli, cliques, euclid, gf16, graph, hermitian, pipeline
from g24verify.errors import VerificationError
from g24verify.pipeline import RunConfig, run_check

import oracles

try:
    from importlib.resources import files as _files

    SCHEMA = json.loads(
        _files("g24verify").joinpath("report_schema.json").read_text()
    )
except Exception:  # pragma: no cover
    SCHEMA = None

STAGE_NAMES = [name for name, *_ in pipeline._STAGES]


def test_default_run_passes(full_report):
    assert full_report.overall_status == "pass"
    assert full_report.exit_code == 0
    assert [s.name for s in full_report.stages] == STAGE_NAMES
    assert all(s.status == "ok" for s in full_report.stages)


def test_stage_details(full_report):
    assert set(full_report.stage("field-tables").detail) == {"axiom_checks"}
    assert full_report.stage("geometry").detail["points"] == 273
    assert full_report.stage("geometry").detail["isotropic"] == 65
    assert full_report.stage("bases").detail == {"bases": 416}
    assert full_report.stage("graph").detail["edges"] == 20800
    assert full_report.stage("srg").detail["parameters"] == [416, 100, 36, 20]
    assert full_report.stage("srg").detail["spectrum"]["s"] == "-4"
    assert full_report.stage("srg").detail["spectrum"]["f"] == 65
    assert full_report.stage("srg").detail["automorphisms_verified"] == 2
    for implied in ("cross_instance", "feasibility", "identity_A2"):
        assert implied not in full_report.stage("srg").detail
    assert full_report.stage("srg").detail["column_sum"] == 104
    assert full_report.stage("srg").detail["distance_census"] == {
        "144": 20800,
        "192": 65520,
    }
    assert full_report.stage("partition").detail["component_sizes"] == [32, 32, 32]
    assert full_report.stage("anchor-invariance").detail == {
        "anchors_covered": 64,
        "point_maps_verified": 2,
    }
    chain = full_report.stage("dimension-chain").detail
    assert chain["primes"] == list(euclid.DEFAULT_PRIMES)
    assert chain["settled_by"] == 2147483647
    assert chain["contrast_products"] == {
        "p_pattern": [0, 24, -24, 0],
        "q_pattern": [48, -24, -24, 0],
        "p_dot_q": 0,
        "p_norm_sq": 64,
        "q_norm_sq": 192,
    }
    certs = chain["certificates"]
    assert [c["affine_dim"] for c in certs] == [65, 64, 63]
    assert [c["linear_rank"] for c in certs] == [66, 65, 64]
    assert all("lower_bounds" not in c for c in certs)
    clique = full_report.stage("max-clique").detail
    assert clique["clique_number"] == 5
    assert "automorphisms_verified" not in clique
    assert "orbit_representatives" not in clique
    cover = full_report.stage("special-cover").detail
    assert cover == {"special_cliques": 64, "covered_vertices": 320, "cover_count": 1}
    assert full_report.stage("partition").detail["B"] == 96
    assert full_report.stage("partition").detail["anchor"] == pipeline.ANCHOR == 1
    assert full_report.stage("block-counts").detail == {
        "neighbour_counts": 1248,
        "pattern": [20, 0, 8],
    }
    assert full_report.stage("clebsch").detail == {}
    assert full_report.stage("verdict").detail["min_parts"] == 71
    assert full_report.stage("verdict").detail["near_miss"] == {
        "dimension": 63,
        "point_count": 320,
        "min_parts": 64,
    }


def test_stages_are_keyed_to_every_claim(full_report):
    # Each stage names the claims of PAPER.md it certifies; together they
    # name all nine, and the report carries them.
    assert len(pipeline._STAGES) == 13
    claims = [c for _, stage_claims, _ in pipeline._STAGES for c in stage_claims]
    assert sorted(set(claims)) == list(range(1, 10))
    doc = full_report.to_dict()
    assert [s["claims"] for s in doc["stages"]] == [
        list(c) for _, c, _ in pipeline._STAGES
    ]
    assert doc["stages"][4] == {
        "name": "srg",
        "claims": [3, 4],
        "status": "ok",
        "detail": full_report.stage("srg").detail,
    }


def test_default_run_checks_clebsch(full_report):
    # No stage is optional: the default run proves the isomorphism too.
    assert full_report.config == {"primes": list(euclid.DEFAULT_PRIMES)}
    assert full_report.stage("clebsch").status == "ok"
    assert "uniqueness" not in STAGE_NAMES
    status = SCHEMA["properties"]["stages"]["items"]["properties"]["status"]
    assert status["enum"] == ["ok", "fail", "inconclusive"]


def test_clebsch_stage_refuses_components_unlike_the_model(monkeypatch):
    # 32 vertices of C handed in as B2, with claim 1 not checked: the
    # default run stops at the clebsch stage, naming B2 and a witness in it.
    split = graph.split_B_C

    def c_as_b2(g, b_mask):
        part = split(g, b_mask)
        fake = part.c[:32]
        fake_mask = sum(1 << v for v in fake)
        rest = part.c_mask ^ fake_mask | part.b2_mask
        return graph.Partition(
            part.b1, fake, part.b3, tuple(v for v in range(g.n) if rest >> v & 1),
            part.b1_mask, fake_mask, part.b3_mask, rest,
        )

    monkeypatch.setattr(graph, "split_B_C", c_as_b2)
    monkeypatch.setattr(graph, "verify_claim1", lambda g, part: None)
    report = run_check(RunConfig())
    assert (report.exit_code, report.overall_status) == (1, "fail")
    failed = report.stages[-1]
    assert (failed.name, failed.status) == ("clebsch", "fail")
    assert failed.detail["error"].startswith("B2: ")
    witness = failed.detail["witness"]
    vertices = set(witness) if isinstance(witness, tuple) else {witness}
    assert vertices <= set(report.artifacts.part.b2)


def test_crossed_polar_lines_fail_bases(monkeypatch, capsys):
    # Point 0 is given the polar line of its smallest orthogonal partner j,
    # on the isotropic call only.  Every polar line still carries 5 isotropic
    # points, but two sides of the first triangle, (0, j, k), now coincide:
    # only the disjointness check can refuse it.
    orthogonal_masks = hermitian.orthogonal_masks

    def crossed(points, targets):
        masks = orthogonal_masks(points, targets)
        if len(points) == hermitian.ISOTROPIC_COUNT:
            partners = orthogonal_masks(targets, targets)[0]
            masks[0] = masks[(partners & -partners).bit_length() - 1]
        return masks

    monkeypatch.setattr(hermitian, "orthogonal_masks", crossed)
    assert cli.main(["check"]) == 1
    out = capsys.readouterr().out
    assert "bases                ... FAIL\n    claim 2: " in out
    assert "share isotropic points\n    witness: (0, 16, 17)\n" in out


def test_corrupted_multiplication_table_fails_field_tables(monkeypatch):
    # One product changed in a copy of the table: 2 * 3 no longer equals
    # 3 * 2, and the axiom suite names the pair.
    table = [list(row) for row in gf16._MUL]
    table[2][3] ^= 1
    monkeypatch.setattr(gf16, "_MUL", table)
    report = run_check(RunConfig())
    assert (report.exit_code, report.overall_status) == (1, "fail")
    failed = report.stages[-1]
    assert (failed.name, failed.status) == ("field-tables", "fail")
    assert "commutativity" in failed.detail["error"]
    assert failed.detail["witness"] == (2, 3)


def test_product_outside_the_field_fails_field_tables(monkeypatch):
    # 2 * 3 = 3 * 2 = 16 in a copy of the table: commutative, but not in
    # GF(16).  The closure check names the pair before any later axiom
    # indexes the table with 16.
    table = [list(row) for row in gf16._MUL]
    table[2][3] = table[3][2] = 16
    monkeypatch.setattr(gf16, "_MUL", table)
    report = run_check(RunConfig())
    assert (report.exit_code, report.overall_status) == (1, "fail")
    failed = report.stages[-1]
    assert (failed.name, failed.status) == ("field-tables", "fail")
    assert "closure" in failed.detail["error"]
    assert failed.detail["witness"] == (2, 3)


def _set_identity(mul, inv, conj):
    mul[5][1] = mul[1][5] = 6


def _zero_square_of_3(mul, inv, conj):
    mul[3][3] = 0


def _zero_square_of_2(mul, inv, conj):
    mul[2][2] = 0


def _swap_inverses(mul, inv, conj):
    inv[3], inv[5] = inv[5], inv[3]


def _swap_conjugates(mul, inv, conj):
    conj[2], conj[3] = conj[3], conj[2]


@pytest.mark.parametrize(
    "corrupt, axiom, witness",
    [
        # Symmetric, so commutativity holds; associativity would fail later.
        (_set_identity, "multiplicative identity", 5),
        (_zero_square_of_3, "associativity", (2, 3, 3)),
        (_zero_square_of_2, "distributivity", (2, 1, 2)),
        # No other axiom reads the inverse table.
        (_swap_inverses, "inverse", 3),
        (_swap_conjugates, "conjugation a -> a**4", 2),
    ],
    ids=["identity", "associativity", "distributivity", "inverse", "conjugation"],
)
def test_corrupted_field_tables_fail_with_the_axiom_and_witness(
    monkeypatch, corrupt, axiom, witness
):
    # Each corruption, in copies of the tables, is caught first by the axiom
    # aimed at it.
    mul = [list(row) for row in gf16._MUL]
    inv, conj = list(gf16._INV), list(gf16._CONJ)
    corrupt(mul, inv, conj)
    for name, table in (("_MUL", mul), ("_INV", inv), ("_CONJ", conj)):
        monkeypatch.setattr(gf16, name, table)
    report = run_check(RunConfig())
    assert (report.exit_code, report.overall_status) == (1, "fail")
    failed = report.stages[-1]
    assert (failed.name, failed.claims, failed.status) == ("field-tables", (1,), "fail")
    assert failed.detail["error"] == f"{axiom} failed at {witness}"
    assert failed.detail["witness"] == witness


def test_missing_point_fails_geometry_census(monkeypatch, capsys):
    # Without the isotropic point (0, 0, 1) the census reads 64/208.
    enumerate_points = hermitian.enumerate_points
    monkeypatch.setattr(hermitian, "enumerate_points", lambda: enumerate_points()[1:])
    assert cli.main(["check"]) == 1
    out = capsys.readouterr().out
    assert out.endswith(
        "geometry             ... FAIL\n"
        "    claim 2: point census 64/208, expected 65/208\n"
        "    witness: (64, 208)\n"
        "overall: FAIL\n"
    )


def test_clique_number_other_than_5_fails_max_clique(monkeypatch):
    # A search that reports 6 is refused by the stage, which names the
    # reported witness.
    monkeypatch.setattr(
        cliques, "max_clique_by_orbits", lambda g, reps: (6, [0, 1, 2, 3, 4, 5], 1)
    )
    report = run_check(RunConfig())
    assert (report.exit_code, report.overall_status) == (1, "fail")
    failed = report.stages[-1]
    assert (failed.name, failed.status) == ("max-clique", "fail")
    assert failed.detail["error"] == "clique number 6, expected 5"
    assert failed.detail["witness"] == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("move", ["C vertex added", "B vertex removed"])
def test_vertex_moved_between_b_and_c_fails_partition(monkeypatch, move):
    # Column 1 is B at the anchor.  A vertex of C added to it joins B1, B2
    # and B3 (it has 8 neighbours in each) into one component of 97; a
    # vertex of B removed from it leaves a component of 31.
    build = graph.build_graph

    def moved(isosets):
        g, dist, columns = build(isosets)
        b = columns[1]
        if move == "C vertex added":
            v = next(v for v in range(g.n) if not b >> v & 1)
        else:
            v = (b & -b).bit_length() - 1
        columns = list(columns)
        columns[1] ^= 1 << v
        return g, dist, columns

    monkeypatch.setattr(graph, "build_graph", moved)
    report = run_check(RunConfig())
    assert (report.exit_code, report.overall_status) == (1, "fail")
    failed = report.stages[-1]
    assert (failed.name, failed.status) == ("partition", "fail")
    assert "component" in failed.detail["error"]
    want = [97] if move == "C vertex added" else [31, 32, 32]
    assert failed.detail["witness"] == want


def test_fault_injection_fails_srg_stage():
    report = run_check(RunConfig(inject_flip_edge=(0, 1)))
    assert report.exit_code == 1
    assert report.overall_status == "fail"
    srg = report.stage("srg")
    assert srg.status == "fail"
    assert srg.detail["witness"] is not None
    # Short-circuit: nothing after the failed stage ran.
    names = [s.name for s in report.stages]
    assert names[-1] == "srg"


def test_failed_check_writes_its_report(tmp_path, capsys):
    # `check --out` records a failed run, naming the stage and the witness.
    out = tmp_path / "r.json"
    assert cli.main(["check", "--inject-flip-edge", "0,1", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["overall"] == {"status": "fail", "exit_code": 1}
    assert "verdict" not in doc
    last = doc["stages"][-1]
    assert (last["name"], last["claims"], last["status"]) == ("srg", [3, 4], "fail")
    assert last["detail"]["witness"] == [2, 100]
    assert os.listdir(tmp_path) == ["r.json"]


def test_parameters_other_than_claim_3_fail_srg(monkeypatch, capsys):
    # verify_srg reports the parameters the graph has; the srg stage accepts
    # only srg(416, 100, 36, 20) and names any other as the witness.
    wrong = graph.SrgParams(416, 100, 36, 21)
    monkeypatch.setattr(graph, "verify_srg", lambda g, maps: wrong)
    assert cli.main(["check"]) == 1
    assert capsys.readouterr().out.endswith(
        "srg                  ... FAIL\n"
        "    claim 3/4: srg(416, 100, 36, 21), expected srg(416, 100, 36, 20)\n"
        "    witness: (416, 100, 36, 21)\n"
        "overall: FAIL\n"
    )


def test_complement_graph_fails_srg_on_its_parameters(monkeypatch):
    # The complement is an srg(416, 315, 234, 252) with the same
    # automorphisms, so verify_srg certifies it; the stage refuses it.
    build = graph.build_graph

    def complemented(isosets):
        g, dist, columns = build(isosets)
        full = (1 << g.n) - 1
        rows = [full ^ row ^ 1 << i for i, row in enumerate(g.rows)]
        return graph.Graph(g.n, rows), dist, columns

    monkeypatch.setattr(graph, "build_graph", complemented)
    report = run_check(RunConfig())
    assert (report.exit_code, report.overall_status) == (1, "fail")
    failed = report.stages[-1]
    assert (failed.name, failed.claims, failed.status) == ("srg", (3, 4), "fail")
    assert failed.detail["witness"] == (416, 315, 234, 252)


def _two_switch(g: graph.Graph, through_0: bool) -> graph.Graph:
    """A copy of g with edges ab, cd replaced by ac, bd, which keeps every
    degree.  Away from 0, the four vertices are non-neighbours of 0, so no
    count on a pair (0, j) moves either."""
    far = [v for v in range(1, g.n) if not g.adjacent(0, v)]
    a = 0 if through_0 else far[0]
    others = range(1, g.n) if through_0 else far
    b, c, d = next(
        (b, c, d)
        for b in others
        if g.adjacent(a, b)
        for c in others
        if c not in (a, b) and not g.adjacent(a, c)
        for d in others
        if d not in (a, b, c) and g.adjacent(c, d) and not g.adjacent(b, d)
    )
    h = graph.Graph(g.n, list(g.rows))
    for i, j in ((a, b), (c, d), (a, c), (b, d)):
        h.flip_edge(i, j)
    return h


@pytest.mark.parametrize(
    "corruption, message",
    [
        ("2-switch away from 0", "vertex map sends edge"),
        ("2-switch through 0", "common neighbours"),
        ("swap alone", "vertex orbits"),
    ],
    ids=["2-switch-away-from-0", "2-switch-through-0", "swap-alone"],
)
def test_srg_stage_refuses_corruptions_of_its_reduced_checks(
    monkeypatch, corruption, message
):
    # The pairs through vertex 0 and the automorphisms each catch what the
    # other cannot see; the degrees stay constant throughout.
    build = graph.build_graph
    permutations = hermitian.basis_permutations
    if corruption.startswith("2-switch"):
        def switched(isosets):
            g, dist, columns = build(isosets)
            return _two_switch(g, corruption.endswith("through 0")), dist, columns

        monkeypatch.setattr(graph, "build_graph", switched)
    else:
        monkeypatch.setattr(
            hermitian, "basis_permutations", lambda *a: permutations(*a)[:1]
        )
    report = run_check(RunConfig())
    assert (report.exit_code, report.overall_status) == (1, "fail")
    failed = report.stages[-1]
    assert (failed.name, failed.status) == ("srg", "fail")
    assert message in failed.detail["error"]
    witness = failed.detail["witness"]
    if corruption == "2-switch through 0":
        assert witness[0] == 0
    elif corruption == "swap alone":
        assert 0 < witness < 416
    else:
        assert len(witness) == 2 and 0 not in witness


def test_rank_inconclusive_stops_with_exit_2(capsys):
    # Mod 3 a pivot of y vanishes, so the pivots on V stop one short of the
    # upper bound + 1: the only listed prime falls short.
    report = run_check(RunConfig(primes=(3,)))
    assert report.exit_code == 2
    assert report.overall_status == "inconclusive"
    assert report.stages[-1].name == "dimension-chain"
    assert report.stages[-1].status == "inconclusive"
    assert "3 gives [65, 65, 64]" in report.stages[-1].detail["error"]
    assert cli.main(["check", "--primes", "3"]) == 2
    out = capsys.readouterr().out
    assert "dimension-chain      ... INCONCLUSIVE\n    claim 6: modular pivots" in out
    assert "for every prime: 3 gives" in out


def test_next_prime_settles_the_chain_when_one_falls_short(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["check", "--primes", "3,5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["config"]["primes"] == [3, 5]
    chain = next(s for s in doc["stages"] if s["name"] == "dimension-chain")
    assert chain["detail"]["settled_by"] == 5


@pytest.mark.parametrize(
    "i, j, sides, witness",
    [
        (0, 1, "both", (2, 100)),
        (17, 300, "both", (17, 101)),
        (0, 1, "one-way", (1, 100)),
        (5, 5, "one-way", (5, 5)),
        (300, 17, "one-way", (300, 101)),
    ],
    ids=["0-1-both", "17-300-both", "0-1-one-way", "5-5-one-way", "300-17-one-way"],
)
def test_corrupted_y_pair_fails_with_witness(monkeypatch, i, j, sides, witness):
    # y's entries off the diagonal are A's, so a toggle of y is a toggle of
    # A after the graph is built: bit j of row i, and bit i of row j for
    # "both".  The srg stage refuses each one before anything reads y: the
    # loop check for (5, 5), else the degree check, whose witness is the
    # first vertex whose degree differs from vertex 0's, and that degree.
    build = graph.build_graph

    def toggled(isosets):
        g, dist, columns = build(isosets)
        g.rows[i] ^= 1 << j
        if sides == "both":
            g.rows[j] ^= 1 << i
        return g, dist, columns

    monkeypatch.setattr(graph, "build_graph", toggled)
    report = run_check(RunConfig())
    assert report.exit_code == 1
    assert report.overall_status == "fail"
    failed = report.stages[-1]
    assert (failed.name, failed.status) == ("srg", "fail")
    assert failed.detail["witness"] == witness


def test_anchor_invariance_catches_a_break_anchor_1_misses(
    monkeypatch, g, isosets, part
):
    # Toggling a pair inside C leaves every count of the anchor-1 split
    # intact, but some other anchor holds one end of the pair in B.
    u, v = part.c[0], part.c[1]
    h = graph.Graph(g.n, list(g.rows))
    h.flip_edge(u, v)
    graph.verify_claim1(h, graph.split_B_C(h, graph.point_columns(isosets)[1]))
    with pytest.raises(VerificationError) as exc:
        oracles.claim1_at_every_anchor(h, isosets)
    assert exc.value.witness is not None
    # The toggle moves two degrees, so the srg stage refuses the graph before
    # any symmetry is used to cover the other anchors.
    build = graph.build_graph

    def toggled(isosets):
        g, dist, columns = build(isosets)
        g.flip_edge(u, v)
        return g, dist, columns

    monkeypatch.setattr(graph, "build_graph", toggled)
    report = run_check(RunConfig())
    assert (report.exit_code, report.overall_status) == (1, "fail")
    failed = report.stages[-1]
    assert (failed.name, failed.status) == ("srg", "fail")
    assert failed.detail["witness"][0] in (u, v)


def _swap_one_member(isosets: list[int], v: int) -> None:
    """Replace the first member of iso-set v above point 1 by the first
    non-member above 1, in place: the size stays 15, and the split at
    anchor 1 does not move."""
    s = isosets[v]
    a = next(a for a in range(2, 66) if s >> a & 1)
    b = next(b for b in range(2, 66) if not s >> b & 1)
    isosets[v] = s ^ (1 << a | 1 << b)


@pytest.mark.parametrize(
    "corruption, stage, message",
    [
        ("iso-set bit before the graph", "srg", "degree"),
        ("iso-set bit after the graph", "anchor-invariance", "to no column"),
        ("swap alone as point maps", "anchor-invariance", "orbits on the points"),
    ],
    ids=["isoset-before-graph", "isoset-after-graph", "two-point-orbits"],
)
def test_point_column_corruptions_fail_with_a_witness(
    monkeypatch, corruption, stage, message
):
    build = graph.build_graph
    verify_point_action = graph.verify_point_action
    if corruption.startswith("iso-set"):
        def corrupted(isosets):
            if corruption.endswith("before the graph"):
                _swap_one_member(isosets, 5)
                return build(isosets)
            g, dist, _ = build(isosets)
            swapped = list(isosets)
            _swap_one_member(swapped, 5)  # only the point columns see it
            return g, dist, graph.point_columns(swapped)

        monkeypatch.setattr(graph, "build_graph", corrupted)
    else:
        monkeypatch.setattr(
            graph,
            "verify_point_action",
            lambda g, columns, maps: verify_point_action(g, columns, maps[:1]),
        )
    report = run_check(RunConfig())
    assert (report.exit_code, report.overall_status) == (1, "fail")
    failed = report.stages[-1]
    assert (failed.name, failed.status) == (stage, "fail")
    assert message in failed.detail["error"]
    witness = failed.detail["witness"]
    if corruption.endswith("before the graph"):
        assert witness[0] == 5  # (vertex, degree)
    elif corruption.endswith("after the graph"):
        assert len(witness) == 2 and 1 <= witness[1] <= 65  # (map, point)
    else:
        assert 1 < witness <= 65  # the second orbit's smallest point


def test_report_json_schema(full_report):
    assert SCHEMA is not None
    doc = full_report.to_dict()
    jsonschema.validate(doc, SCHEMA)
    doc_timed = full_report.to_dict(include_timings=True)
    jsonschema.validate(doc_timed, SCHEMA)
    assert "stage_timings_ms" in doc_timed and "stage_timings_ms" not in doc


def test_report_round_trips_through_json(full_report):
    doc = json.loads(full_report.to_json())
    assert doc["overall"] == {"status": "pass", "exit_code": 0}
    assert doc["verdict"]["min_parts"] == 71
    assert doc["field"] == {"polynomial": "x^4 + x + 1"}


def test_two_runs_are_byte_identical():
    cfg = RunConfig()
    a = run_check(cfg)
    b = run_check(cfg)
    assert a.to_json() == b.to_json()
    assert a.to_text() == b.to_text()


def test_exports(tmp_path, full_report):
    art = full_report.artifacts

    dimacs = tmp_path / "graph.dimacs"
    pipeline.write_dimacs(art.g, str(dimacs))
    lines = dimacs.read_text().splitlines()
    assert lines[0] == "p edge 416 20800"
    assert len(lines) == 20801
    assert all(line.startswith("e ") for line in lines[1:])
    first = lines[1].split()
    assert int(first[1]) < int(first[2])  # 1-based, i < j

    iso = tmp_path / "isosets.csv"
    pipeline.write_isosets_csv(art.isosets, str(iso))
    rows = [line.split(",") for line in iso.read_text().splitlines()]
    assert len(rows) == 416
    assert all(len(r) == 16 for r in rows)
    assert rows[0][0] == "1"
    members = [int(x) for x in rows[0][1:]]
    assert members == sorted(members)

    vec = tmp_path / "vectors.csv"
    pipeline.write_vectors_csv(art.g, str(vec))
    rows = [line.split(",") for line in vec.read_text().splitlines()]
    assert len(rows) == 416
    assert all(len(r) == 417 for r in rows)
    assert rows[0][1] == "4"  # y_{0,0}

    cov = tmp_path / "cover.csv"
    pipeline.write_cover_csv(art.cover, str(cov))
    rows = [line.split(",") for line in cov.read_text().splitlines()]
    assert len(rows) == 64
    assert all(len(r) == 9 for r in rows)

    rep = tmp_path / "report.json"
    pipeline.write_report_json(full_report, str(rep))
    doc = json.loads(rep.read_text())
    jsonschema.validate(doc, SCHEMA)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of the file each command writes with the defaults.
ARTIFACT_SHA256 = {
    "check": "b629470ff3271e1fa73a0f6589faa42020a0574dbe2dbb917c7ffcd6897d8e78",
    "export-graph --format dimacs": (
        "93d23016f3d5f1366aaeae44356ddcfffe900fd20e20dfc52e88006875f7e0f9"
    ),
    "export-graph --format json": (
        "98dcb3a1b98ade4232cf4adef2b4b06b5366bc9cab7f92a504e1f80045f94847"
    ),
    "export-isosets": "a798954dca103c81be1fcf06c647771b9e743da8df3fd8f91517e1fbd7bb73d8",
    "export-vectors": "a15af45a601240472f7f55b2adeea58f4cb0f12c6425422b75e0481be8369ef1",
    "export-cover": "57a0aae11291ecaa067acdf50b6745b6bc9eccce667d7c39d8335a6562549541",
}
CHECK_STDOUT_SHA256 = "c83cb4a39b6d3fb2356f0dfed6801a9eeb65583847386897fe213f2d039c433e"


@pytest.mark.parametrize("command", ARTIFACT_SHA256)
def test_default_artifacts_keep_their_bytes(tmp_path, capsys, command):
    # Every file the CLI writes on a default run, and check's stdout, byte
    # for byte; a deliberate change to one is recorded in CHANGES.md.
    out = tmp_path / "artifact"
    assert cli.main([*command.split(), "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == ARTIFACT_SHA256[command]
    if command == "check":
        assert _sha256(capsys.readouterr().out.encode()) == CHECK_STDOUT_SHA256


def test_export_determinism(tmp_path):
    cfg1 = RunConfig(command="export-graph", out=str(tmp_path / "a.dimacs"))
    cfg2 = RunConfig(command="export-graph", out=str(tmp_path / "b.dimacs"))
    code1, _ = pipeline.export(cfg1)
    code2, _ = pipeline.export(cfg2)
    assert code1 == code2 == 0
    assert (tmp_path / "a.dimacs").read_bytes() == (tmp_path / "b.dimacs").read_bytes()


def test_export_graph_json(tmp_path):
    out = tmp_path / "graph.json"
    code, _ = pipeline.export(
        RunConfig(command="export-graph", fmt="json", out=str(out))
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["vertices"] == 416
    assert len(doc["edges"]) == 20800


def test_export_refused_on_verification_failure(tmp_path):
    out = tmp_path / "never.dimacs"
    code, report = pipeline.export(
        RunConfig(command="export-graph", out=str(out), inject_flip_edge=(0, 1))
    )
    assert code == 1
    assert not out.exists()


def test_cli_check_passes(capsys):
    rc = cli.main(["check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall: PASS" in out
    assert "71" in out


def test_cli_report_written(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["check", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)


def test_cli_usage_errors_exit_3(tmp_path):
    for command in ("frobnicate", "report"):  # `check --out` writes the report
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 3
    for primes in ("4,6", ",", "", "1000003,4", "2", "2147483659"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--primes", primes])
        assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--inject-flip-edge", "1"])
    assert exc.value.code == 3
    assert cli.main(["export-graph"]) == 3  # missing --out
    rc = cli.main(["export-graph", "--out", str(tmp_path / "no" / "dir" / "x")])
    assert rc == 3


def test_check_out_into_a_missing_directory_runs_no_stage(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert cli.main(["check", "--out", str(missing / "r.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # no stage line, no verdict
    assert str(missing) in captured.err
    assert os.listdir(tmp_path) == []


def test_removed_flags_exit_3():
    for flag in (
        ["--threads", "2"],
        ["--seed", "1"],
        ["--with-uniqueness"],
        ["--uniqueness-budget", "5"],
        ["--with-clebsch-check"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", *flag])
        assert exc.value.code == 3


def test_cli_prime_override(capsys):
    assert cli.main(["check", "--primes", "1000003,999983"]) == 0
    assert cli.main(["check", "--primes", "1000003"]) == 0


def test_cli_fault_injection_exit_code(capsys):
    rc = cli.main(["check", "--inject-flip-edge", "3,200"])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.endswith(
        "srg                  ... FAIL\n"
        "    claim 3/4: vertex 3 has degree 101, vertex 0 has 100\n"
        "    witness: (3, 101)\n"
        "overall: FAIL\n"
    )


def _run(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with `args` in a fresh process on this package."""
    src = os.path.dirname(os.path.dirname(g24verify.__file__))
    environ = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=environ
    )


def test_console_script_smoke():
    proc = _run("-m", "g24verify.cli", "--version")
    assert proc.returncode == 0
    assert "g24verify" in proc.stdout


def _python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter on this package."""
    return _run("-c", code)


def test_cli_import_does_not_load_numpy():
    proc = _python("import g24verify.cli, sys; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_introspection_modules():
    # dataclasses alone pulls in inspect, ast, dis and tokenize; the records
    # are namedtuples and plain classes, and the spectrum is in ints.
    proc = _python(
        "import g24verify.cli, sys\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'fractions'}"
        " & set(sys.modules)))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_rejected_run_does_not_load_numpy():
    proc = _python(
        "import sys\n"
        "from g24verify import cli\n"
        "rc = cli.main(['check', '--inject-flip-edge', '0,1'])\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1 False"


def test_check_and_export_do_not_load_numpy(tmp_path):
    out = tmp_path / "vectors.csv"
    proc = _python(
        "import sys\n"
        "from g24verify import cli\n"
        "rc = cli.main(['check'])\n"
        f"rc += cli.main(['export-vectors', '--out', {str(out)!r}])\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert out.stat().st_size > 0


def test_failed_export_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    # The disk fills at column 100 while the vectors are written; the stages
    # before the write read the same columns and must not see it.
    column_digits = euclid.column_digits
    write = pipeline.write_vectors_csv

    def failing_column(g, i):
        if i == 100:
            raise OSError(28, "No space left on device")
        return column_digits(g, i)

    def write_to_full_disk(g, path):
        with monkeypatch.context() as m:
            m.setattr(euclid, "column_digits", failing_column)
            write(g, path)

    monkeypatch.setattr(pipeline, "write_vectors_csv", write_to_full_disk)
    out = tmp_path / "vectors.csv"
    assert cli.main(["export-vectors", "--out", str(out)]) == 3
    assert "No space left" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    # An existing file at --out is left as it was.
    out.write_text("old\n")
    assert cli.main(["export-vectors", "--out", str(out)]) == 3
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["vectors.csv"]
