"""Pipeline orchestration, exports, determinism and exit codes."""

import hashlib
import json
import os
import re

import jsonschema
import pytest

from g24verify import VerificationError, cli, graph, hermitian, pipeline
from g24verify.pipeline import RunConfig, run_check

import oracles

STAGE_NAMES = [name for name, *_ in pipeline._STAGES]


def test_default_run_passes(full_report):
    assert full_report.overall_status == "pass"
    assert full_report.exit_code == 0
    assert [s.name for s in full_report.stages] == STAGE_NAMES
    assert all(s.status == "ok" for s in full_report.stages)


def test_stage_details(full_report):
    assert set(oracles.stage(full_report, "field-tables").detail) == {"axiom_checks"}
    assert oracles.stage(full_report, "geometry").detail["points"] == 273
    assert oracles.stage(full_report, "geometry").detail["isotropic"] == 65
    assert oracles.stage(full_report, "bases").detail == {"bases": 416}
    assert oracles.stage(full_report, "graph").detail == {
        "vertices": 416,
        "edges": 20800,
    }
    assert oracles.stage(full_report, "srg").detail["parameters"] == [416, 100, 36, 20]
    assert oracles.stage(full_report, "srg").detail["spectrum"]["s"] == "-4"
    assert oracles.stage(full_report, "srg").detail["spectrum"]["f"] == 65
    assert oracles.stage(full_report, "srg").detail["automorphisms_verified"] == 2
    for implied in ("cross_instance", "feasibility", "identity_A2"):
        assert implied not in oracles.stage(full_report, "srg").detail
    assert oracles.stage(full_report, "srg").detail["column_sum"] == 104
    assert oracles.stage(full_report, "srg").detail["distance_census"] == {
        "144": 20800,
        "192": 65520,
    }
    partition = oracles.stage(full_report, "partition").detail
    assert partition["component_sizes"] == [32, 32, 32]
    assert oracles.stage(full_report, "anchor-invariance").detail == {
        "anchors_covered": 64,
        "point_maps_verified": 2,
    }
    chain = oracles.stage(full_report, "dimension-chain").detail
    assert set(chain) == {"contrast_products", "certificates"}
    assert chain["contrast_products"] == {
        "p_pattern": [0, 24, -24, 0],
        "q_pattern": [48, -24, -24, 0],
        "p_dot_q": 0,
        "p_norm_sq": 64,
        "q_norm_sq": 192,
    }
    certs = chain["certificates"]
    assert [c["linear_rank"] for c in certs] == [66, 65, 64]
    assert all(set(c) == {"set", "size", "affine_dim", "linear_rank", "argument"}
               for c in certs)
    assert oracles.stage(full_report, "max-clique").detail == {
        "clique_number": 5,
        "witness": [0, 16, 28, 40, 384],
        "local_checks": 144,
    }
    assert partition["B"] == 96
    assert partition["anchor"] == pipeline.ANCHOR == 1
    assert oracles.stage(full_report, "block-counts").detail == {
        "neighbour_counts": 1248,
        "pattern": [20, 0, 8],
    }
    assert oracles.stage(full_report, "clebsch").detail == {}
    # The affine dimensions, the special cliques and the verdict are those
    # of test_c08_dimension_chain, test_c11_cover_and_uniqueness and
    # test_c10_borsuk_bounds.


def test_constant_details_are_built_per_run():
    # The verdict and the contrast products are literals: a run that edits
    # its report leaves the next run's report as it was.
    report = run_check(RunConfig())
    before = report.to_json()
    oracles.stage(report, "verdict").detail["full_set"]["min_parts"] = 0
    chain = oracles.stage(report, "dimension-chain").detail
    chain["contrast_products"]["p_pattern"][1] = 0
    chain["certificates"][0]["argument"].append("edited")
    assert run_check(RunConfig()).to_json() == before


def test_stages_are_keyed_to_every_claim(full_report):
    # Each stage names the claims it certifies, numbered as in README's
    # "What it verifies"; together they name all nine, and the report
    # carries them.
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
        "detail": oracles.stage(full_report, "srg").detail,
    }


def test_default_run_checks_clebsch(full_report):
    # No stage is optional: the default run proves the isomorphism too.
    assert "config" not in full_report.to_dict()
    assert oracles.stage(full_report, "clebsch").status == "ok"
    assert "uniqueness" not in STAGE_NAMES
    status = oracles.SCHEMA["properties"]["stages"]["items"]["properties"]["status"]
    assert status["enum"] == ["ok", "fail"]
    overall = oracles.SCHEMA["properties"]["overall"]["properties"]
    assert overall["exit_code"]["enum"] == [0, 1]


def test_clebsch_stage_refuses_components_unlike_the_model(monkeypatch):
    # 32 vertices of C handed in as B2, with claim 1 not checked: the
    # default run stops at the clebsch stage, naming B2 and a witness in it.
    split = graph.split_B_C

    def c_as_b2(rows, b_mask):
        part = split(rows, b_mask)
        fake = sum(1 << v for v in oracles.vertices(part.c)[:32])
        return graph.Partition(part.b1, fake, part.b3, part.c ^ fake | part.b2)

    monkeypatch.setattr(graph, "split_B_C", c_as_b2)
    monkeypatch.setattr(graph, "verify_claim1", lambda rows, part: None)
    report = run_check(RunConfig())
    failed = oracles.refused(report, "clebsch")
    assert failed.detail["error"].startswith("B2: ")
    witness = failed.detail["witness"]
    vertices = set(witness) if isinstance(witness, tuple) else {witness}
    assert vertices <= set(oracles.vertices(report.artifacts.part.b2))


def test_crossed_polar_lines_fail_bases(monkeypatch, capsys):
    # Point 0 is given the polar line of its smallest orthogonal partner j,
    # in the isotropic part of its mask only.  Every polar line still carries
    # 5 isotropic points, but two sides of the first basis, (0, j, k), now
    # coincide: the bases stage builds its iso-set of 10, and the graph
    # stage, which requires 15 members, refuses it.
    orthogonal_masks = hermitian.orthogonal_masks

    def crossed(points, targets):
        masks = orthogonal_masks(points, targets)
        low = (1 << len(targets)) - 1
        partners = masks[0] & low
        masks[0] = partners | masks[(partners & -partners).bit_length() - 1] & ~low
        return masks

    monkeypatch.setattr(hermitian, "orthogonal_masks", crossed)
    assert cli.main(["check"]) == 1
    out = capsys.readouterr().out
    assert "bases                ... OK\ngraph                ... FAIL\n" in out
    assert "    claim 3: iso-set 0 has 10 members\n    witness: 0\n" in out


def test_a_duplicated_iso_set_fails_srg_at_the_lift(monkeypatch, isosets, point_maps):
    # Basis 5 replaced by basis 4: the bases stage has no check of its own
    # (`hermitian.enumerate_bases`).  The iso-set of vertex 5 is now missing,
    # and point map 0 sends vertex 1's iso-set onto it, so the lift in the
    # srg stage refuses vertex 1 before `verify_srg` reads any pair.
    enumerate_bases = hermitian.enumerate_bases

    def duplicated(plane):
        bases = enumerate_bases(plane)
        bases[5] = bases[4]
        return bases

    monkeypatch.setattr(hermitian, "enumerate_bases", duplicated)
    report = run_check(RunConfig())
    failed = oracles.refused(report, "srg")
    assert [s.status for s in report.stages[:4]] == ["ok"] * 4
    assert failed.detail["error"] == (
        "point map 0 sends the iso-set of vertex 1 to no iso-set"
    )
    assert failed.detail["witness"] == (0, 1)
    sigma = point_maps[0]
    image = sum(1 << sigma[a - 1] + 1 for a in hermitian.members(isosets[1]))
    assert image == isosets[5] != isosets[4]


def test_corrupted_multiplication_table_fails_field_tables(monkeypatch):
    # One product changed in a copy of the table: 2 * 3 no longer equals
    # 3 * 2, and the axiom suite names the pair.
    table = [list(row) for row in hermitian._MUL]
    table[2][3] ^= 1
    monkeypatch.setattr(hermitian, "_MUL", table)
    failed = oracles.refused(run_check(RunConfig()), "field-tables")
    assert "commutativity" in failed.detail["error"]
    assert failed.detail["witness"] == (2, 3)


def test_product_outside_the_field_fails_field_tables(monkeypatch):
    # 2 * 3 = 3 * 2 = 16 in a copy of the table: commutative, but not in
    # GF(16).  The closure check names the pair before any later axiom
    # indexes the table with 16.
    table = [list(row) for row in hermitian._MUL]
    table[2][3] = table[3][2] = 16
    monkeypatch.setattr(hermitian, "_MUL", table)
    failed = oracles.refused(run_check(RunConfig()), "field-tables")
    assert "closure" in failed.detail["error"]
    assert failed.detail["witness"] == (2, 3)


def _negative_product(mul, inv, conj):
    mul[2][3] = mul[3][2] = -1


def _set_identity(mul, inv, conj):
    mul[5][1] = mul[1][5] = 6


def _zero_square_of_3(mul, inv, conj):
    mul[3][3] = 0


def _zero_product_of_3_and_4(mul, inv, conj):
    mul[3][4] = mul[4][3] = 0


def _zero_square_of_2(mul, inv, conj):
    mul[2][2] = 0


def _swap_inverses(mul, inv, conj):
    inv[3], inv[5] = inv[5], inv[3]


def _swap_conjugates(mul, inv, conj):
    conj[2], conj[3] = conj[3], conj[2]


@pytest.mark.parametrize(
    "corrupt, axiom, witness",
    [
        # Below the field as well as above it (-1 indexes row 15).
        (_negative_product, "closure", (2, 3)),
        # Symmetric, so commutativity holds; associativity would fail later.
        (_set_identity, "multiplicative identity", 5),
        (_zero_square_of_3, "associativity", (2, 3, 3)),
        # b != c, so the witness shows the order of the triple.
        (_zero_product_of_3_and_4, "associativity", (2, 2, 3)),
        (_zero_square_of_2, "distributivity", (2, 1, 2)),
        # No other axiom reads the inverse table.
        (_swap_inverses, "inverse", 3),
        (_swap_conjugates, "conjugation a -> a**4", 2),
    ],
    ids=[
        "closure-negative",
        "identity",
        "associativity",
        "associativity-b-c-distinct",
        "distributivity",
        "inverse",
        "conjugation",
    ],
)
def test_corrupted_field_tables_fail_with_the_axiom_and_witness(
    monkeypatch, corrupt, axiom, witness
):
    # Each corruption, in copies of the tables, is caught first by the axiom
    # aimed at it.
    mul = [list(row) for row in hermitian._MUL]
    inv, conj = list(hermitian._INV), list(hermitian._CONJ)
    corrupt(mul, inv, conj)
    for name, table in (("_MUL", mul), ("_INV", inv), ("_CONJ", conj)):
        monkeypatch.setattr(hermitian, name, table)
    failed = oracles.refused(run_check(RunConfig()), "field-tables")
    assert failed.claims == (1,)
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
    # The count run on the graph with 29, a common neighbour of 0 and 16,
    # joined to 28, 40 and 384 is refused by the stage at claim 7, which
    # names the 6-clique that makes.
    count = graph.verify_clique_number

    def planted(rows, vertex_maps):
        rows = list(rows)
        for v in (28, 40, 384):
            rows[v] |= 1 << 29
            rows[29] |= 1 << v
        return count(rows, vertex_maps)

    monkeypatch.setattr(graph, "verify_clique_number", planted)
    failed = oracles.refused(run_check(RunConfig()), "max-clique")
    assert failed.claims == (7,)
    assert failed.detail["error"] == "6-clique through vertex 0 and 16"
    assert failed.detail["witness"] == [0, 16, 28, 29, 40, 384]


@pytest.mark.parametrize("move", ["C vertex added", "B vertex removed"])
def test_vertex_moved_between_b_and_c_fails_partition(monkeypatch, move):
    # B at the anchor is the mask the split is given.  A vertex of C added
    # to it joins B1, B2 and B3 (it has 8 neighbours in each) into one
    # component of 97; a vertex of B removed from it leaves a component of
    # 31.  (A point column changed instead no longer lifts the point maps,
    # and the srg stage refuses it.)
    split = graph.split_B_C

    def moved(rows, b_mask):
        if move == "C vertex added":
            v = next(v for v in range(len(rows)) if not b_mask >> v & 1)
        else:
            v = (b_mask & -b_mask).bit_length() - 1
        return split(rows, b_mask ^ 1 << v)

    monkeypatch.setattr(graph, "split_B_C", moved)
    failed = oracles.refused(run_check(RunConfig()), "partition")
    assert "component" in failed.detail["error"]
    want = [97] if move == "C vertex added" else [31, 32, 32]
    assert failed.detail["witness"] == want


def test_failed_check_writes_its_report(tmp_path, capsys):
    # `check --out` records a failed run, naming the stage and the witness.
    out = tmp_path / "r.json"
    assert cli.main(["check", "--inject-flip-edge", "0,1", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, oracles.SCHEMA)
    assert doc["overall"] == {"status": "fail", "exit_code": 1}
    assert "verdict" not in doc
    last = doc["stages"][-1]
    assert (last["name"], last["claims"], last["status"]) == ("srg", [3, 4], "fail")
    assert last["detail"]["witness"] == [2, 100]
    assert os.listdir(tmp_path) == ["r.json"]


def test_parameters_other_than_claim_3_fail_srg(monkeypatch, capsys):
    # verify_srg reports the parameters the graph has; the srg stage accepts
    # only srg(416, 100, 36, 20) and names any other as the witness.
    wrong = (416, 100, 36, 21)
    monkeypatch.setattr(graph, "verify_srg", lambda rows, maps: wrong)
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
        rows, columns = build(isosets)
        full = (1 << len(rows)) - 1
        return [full ^ row ^ 1 << i for i, row in enumerate(rows)], columns

    monkeypatch.setattr(graph, "build_graph", complemented)
    failed = oracles.refused(run_check(RunConfig()), "srg")
    assert failed.claims == (3, 4)
    assert failed.detail["witness"] == (416, 315, 234, 252)


def _two_switch(rows: list[int], through_0: bool) -> list[int]:
    """A copy of the graph with edges ab, cd replaced by ac, bd, which keeps
    every degree.  Away from 0, the four vertices are non-neighbours of 0,
    so no count on a pair (0, j) moves either."""
    far = [v for v in range(1, len(rows)) if not rows[0] >> v & 1]
    a = 0 if through_0 else far[0]
    others = range(1, len(rows)) if through_0 else far
    b, c, d = next(
        (b, c, d)
        for b in others
        if rows[a] >> b & 1
        for c in others
        if c not in (a, b) and not rows[a] >> c & 1
        for d in others
        if d not in (a, b, c) and rows[c] >> d & 1 and not rows[b] >> d & 1
    )
    h = list(rows)
    for i, j in ((a, b), (c, d), (a, c), (b, d)):
        graph.flip_edge(h, i, j)
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
    monkeypatch, automorphisms, corruption, message
):
    # The pairs through vertex 0 and the automorphisms each catch what the
    # other cannot see; the degrees stay constant throughout.
    build = graph.build_graph
    permutations = hermitian.point_permutations
    if corruption.startswith("2-switch"):
        def switched(isosets):
            rows, columns = build(isosets)
            return _two_switch(rows, corruption.endswith("through 0")), columns

        monkeypatch.setattr(graph, "build_graph", switched)
    else:
        monkeypatch.setattr(
            hermitian, "point_permutations", lambda *a: permutations(*a)[:1]
        )
    report = run_check(RunConfig())
    failed = oracles.refused(report, "srg")
    assert message in failed.detail["error"]
    witness = failed.detail["witness"]
    if corruption == "2-switch through 0":
        # The first pair (0, j) whose count of common neighbours differs
        # from that of the first vertex with j's adjacency to 0, as lambda
        # and mu are read off vertex 0 of the switched graph.
        h = report.artifacts.rows
        common = {j: (h[0] & h[j]).bit_count() for j in range(1, len(h))}
        want = {
            adj: next(common[j] for j in common if h[0] >> j & 1 == adj)
            for adj in (0, 1)
        }
        j = next(j for j in common if common[j] != want[h[0] >> j & 1])
        assert witness == (0, j)
    elif corruption == "swap alone":
        # The smallest vertex of the second orbit: outside the orbit of 0.
        assert witness == min(set(range(416)) - oracles.orbit(automorphisms[:1], 0))
    else:
        assert len(witness) == 2 and 0 not in witness


def test_words_that_leave_two_orbits_fail_the_dimension_chain(monkeypatch, capsys):
    # One stabilizer word alone: the chain is refused at claim 6, naming the
    # smallest vertex of C outside the orbit of c0 = 96.
    monkeypatch.setattr(graph, "STABILIZER_WORDS", ("abA",))
    assert cli.main(["check"]) == 1
    out = capsys.readouterr().out
    assert "dimension-chain      ... FAIL\n    claim 6: the words leave " in out
    assert "orbits on the set, not 1\n    witness: " in out
    witness = int(out.split("witness: ")[1].split()[0])
    assert 96 < witness < 416


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
        rows, columns = build(isosets)
        rows[i] ^= 1 << j
        if sides == "both":
            rows[j] ^= 1 << i
        return rows, columns

    monkeypatch.setattr(graph, "build_graph", toggled)
    failed = oracles.refused(run_check(RunConfig()), "srg")
    assert failed.detail["witness"] == witness


def test_anchor_invariance_catches_a_break_anchor_1_misses(
    monkeypatch, rows, isosets, columns, part
):
    # Toggling a pair inside C leaves every count of the anchor-1 split
    # intact, but some other anchor holds one end of the pair in B.
    u, v = oracles.vertices(part.c)[:2]
    h = list(rows)
    graph.flip_edge(h, u, v)
    graph.verify_claim1(h, graph.split_B_C(h, columns[1]))
    with pytest.raises(VerificationError) as exc:
        oracles.claim1_at_every_anchor(h, isosets)
    assert exc.value.witness is not None
    # The toggle moves two degrees, so the srg stage refuses the graph before
    # any symmetry is used to cover the other anchors.
    build = graph.build_graph

    def toggled(isosets):
        rows, columns = build(isosets)
        graph.flip_edge(rows, u, v)
        return rows, columns

    monkeypatch.setattr(graph, "build_graph", toggled)
    report = run_check(RunConfig())
    failed = oracles.refused(report, "srg")
    assert failed.detail["witness"][0] in (u, v)


def _swap_one_member(sides: list[tuple[int, int, int]], v: int) -> None:
    """Replace the first member of iso-set v above point 1 by the first
    non-member above 1, in the side that holds it, in place: the sides stay
    disjoint with 5 members each, and the split at anchor 1 does not move."""
    s = sides[v][0] | sides[v][1] | sides[v][2]
    a = next(a for a in range(2, 66) if s >> a & 1)
    b = next(b for b in range(2, 66) if not s >> b & 1)
    sides[v] = tuple(t ^ (1 << a | 1 << b) if t >> a & 1 else t for t in sides[v])


@pytest.mark.parametrize(
    "corruption",
    [
        "iso-set bit before the graph",
        "iso-set bit after the graph",
        "swap alone as point maps",
    ],
    ids=["isoset-before-graph", "isoset-after-graph", "two-point-orbits"],
)
def test_point_column_corruptions_fail_with_a_witness(
    monkeypatch, automorphisms, corruption
):
    if corruption.startswith("iso-set"):
        # Vertex 5's iso-set, corrupted in its basis before the graph is
        # built or only in the point columns after it, is one that no basis
        # has.  Both fail at srg while the point maps are lifted, before any
        # row is read.
        if corruption.endswith("before the graph"):
            enumerate_bases = hermitian.enumerate_bases

            def corrupted_bases(plane):
                bases = enumerate_bases(plane)
                sides = [s for _, s in bases]
                _swap_one_member(sides, 5)
                return [(tri, s) for (tri, _), s in zip(bases, sides)]

            monkeypatch.setattr(hermitian, "enumerate_bases", corrupted_bases)
        else:
            build = graph.build_graph

            def corrupted(sides):
                rows, _ = build(sides)
                swapped = list(sides)
                _swap_one_member(swapped, 5)  # only the point columns see it
                return rows, graph.point_columns([a | b | c for a, b, c in swapped])

            monkeypatch.setattr(graph, "build_graph", corrupted)
    else:
        # The srg stage lifts and verifies every point map; the
        # anchor-invariance stage is then handed the swap's map alone,
        # which leaves more than one orbit on the points.
        def swap_alone(art, cfg):
            art.point_maps = art.point_maps[:1]
            return anchor_invariance(art, cfg)

        stages = list(pipeline._STAGES)
        i = STAGE_NAMES.index("anchor-invariance")
        name, claims, anchor_invariance = stages[i]
        stages[i] = (name, claims, swap_alone)
        monkeypatch.setattr(pipeline, "_STAGES", tuple(stages))
    at_srg = corruption.startswith("iso-set")
    failed = oracles.refused(
        run_check(RunConfig()), "srg" if at_srg else "anchor-invariance"
    )
    witness = failed.detail["witness"]
    if at_srg:
        assert "to no iso-set" in failed.detail["error"]
        # (map, vertex): the first map refuses vertex 5.  Built from the
        # corrupted iso-set, the graph has no vertex with 5's old one, so
        # the vertex that the map moves onto it may be refused first.
        first = min(5, automorphisms[0].index(5))
        assert witness == (0, first if corruption.endswith("before the graph") else 5)
    else:
        assert "orbits on the points" in failed.detail["error"]
        assert 1 < witness <= 65  # the second orbit's smallest point


def test_report_json_schema(full_report):
    # test_timed_report_gives_each_stage_its_cost validates a timed report.
    doc = full_report.to_dict()
    jsonschema.validate(doc, oracles.SCHEMA)
    assert not {"stage_timings_ms", "stage_cpu_ms", "stage_peak_rss_mb"} & set(doc)


def test_timed_report_gives_each_stage_its_cost(tmp_path, capsys):
    # Wall ms, CPU ms and the peak RSS in MB after each of the 13 stages, on
    # stdout and in the report; a peak never falls.
    out = tmp_path / "report.json"
    assert cli.main(["check", "--timings", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, oracles.SCHEMA)
    costs = [doc[k] for k in ("stage_timings_ms", "stage_cpu_ms", "stage_peak_rss_mb")]
    for cost in costs:
        assert list(cost) == STAGE_NAMES and len(cost) == 13
        assert all(value >= 0 for value in cost.values())
    rss = list(costs[2].values())
    assert rss == sorted(rss) and rss[0] > 0
    assert capsys.readouterr().out.count(" ms cpu, ") == 13


def test_export_prints_its_write_cost_only_with_timings(tmp_path, capsys):
    # The write's wall and CPU ms go on the "wrote" line, on stdout only:
    # the file's bytes are the same either way.
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    assert cli.main(["export-vectors", "--out", str(plain)]) == 0
    assert capsys.readouterr().out.endswith(f"overall: PASS\nwrote {plain}\n")
    assert cli.main(["export-vectors", "--out", str(timed), "--timings"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    cost = r"  \[\d+\.\d ms wall, \d+\.\d ms cpu\]"
    assert re.fullmatch(f"wrote {re.escape(str(timed))}{cost}", last)
    assert plain.read_bytes() == timed.read_bytes()


def test_report_round_trips_through_json(full_report):
    doc = json.loads(full_report.to_json())
    assert doc["overall"] == {"status": "pass", "exit_code": 0}
    assert doc["verdict"]["min_parts"] == 71
    assert doc["field"] == {"polynomial": "x^4 + x + 1"}


def test_exports(tmp_path, full_report):
    art = full_report.artifacts

    dimacs = tmp_path / "graph.dimacs"
    pipeline.write_dimacs(art.rows, str(dimacs))
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
    pipeline.write_vectors_csv(art.rows, str(vec))
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
    jsonschema.validate(doc, oracles.SCHEMA)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of the file each command writes with the defaults.
ARTIFACT_SHA256 = {
    "check": "33e809cd0d7068dbe60776f0cb4fff24dd04ee220b99ca3185ee4f0e4c4a5b85",
    "export-graph": "93d23016f3d5f1366aaeae44356ddcfffe900fd20e20dfc52e88006875f7e0f9",
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


def test_export_refused_on_verification_failure(tmp_path):
    out = tmp_path / "never.dimacs"
    report = pipeline.run(
        RunConfig(command="export-graph", out=str(out), inject_flip_edge=(0, 1))
    )
    assert report.exit_code == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "export-vectors"])
@pytest.mark.parametrize(
    "out",
    ["missing/r.json", "", "dir", "dir/"],
    ids=["missing-directory", "empty", "directory", "trailing-slash"],
)
def test_check_out_into_a_missing_directory_runs_no_stage(
    tmp_path, monkeypatch, capsys, command, out
):
    # An --out that names no file in an existing directory is refused
    # before any stage runs: no stage line, no verdict, no file.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    assert cli.main([command, f"--out={out}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(out) in captured.err
    assert os.listdir(tmp_path) == ["dir"] and os.listdir("dir") == []


def test_export_file_mode_follows_the_umask(tmp_path, capsys):
    plain, out = tmp_path / "plain", tmp_path / "isosets.csv"
    umask = os.umask(0o027)
    try:
        plain.write_text("")
        assert cli.main(["export-isosets", "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777 == 0o640


def test_export_refuses_a_temporary_name_that_exists(tmp_path, capsys):
    # The temporary file is opened with O_EXCL: a file already at its name,
    # and the file at --out, keep their bytes.
    out = tmp_path / "vectors.csv"
    taken = tmp_path / f".vectors.csv.{os.getpid()}.tmp"
    out.write_text("old\n")
    taken.write_text("taken\n")
    assert cli.main(["export-vectors", "--out", str(out)]) == 3
    assert "i/o error" in capsys.readouterr().err
    assert out.read_text() == "old\n"
    assert taken.read_text() == "taken\n"
    assert sorted(os.listdir(tmp_path)) == [taken.name, out.name]


def test_failed_export_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    # The disk fills halfway through the file's one write: half the bytes
    # reach the temporary file, then the write raises ENOSPC.  The one
    # `open` in pipeline.py is `_atomic_write`'s.
    partial = []  # the directory's files and sizes when the disk fills

    class FullDisk:
        def __init__(self, path, mode):
            self.file = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, data):
            self.file.write(data[: len(data) // 2])
            self.file.flush()
            partial.extend((p.name, p.stat().st_size) for p in tmp_path.iterdir())
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(pipeline, "open", FullDisk, raising=False)
    out = tmp_path / "vectors.csv"
    assert cli.main(["export-vectors", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "No space left" in captured.err
    assert partial == [(f".vectors.csv.{os.getpid()}.tmp", 347668 // 2)]
    # The stage lines are printed before the write, and no "wrote" line.
    assert captured.out.endswith("overall: PASS\n")
    assert os.listdir(tmp_path) == []
    # An existing file at --out is left as it was.
    out.write_text("old\n")
    assert cli.main(["export-vectors", "--out", str(out)]) == 3
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["vectors.csv"]
