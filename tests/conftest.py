"""Session-scoped construction fixtures; everything downstream is immutable."""

import pytest

from g24verify import graph, hermitian
from g24verify.pipeline import RunConfig, run_check

import oracles


@pytest.fixture(scope="session")
def plane():
    return hermitian.build_plane()


@pytest.fixture(scope="session")
def bases(plane):
    return hermitian.enumerate_bases(plane)


@pytest.fixture(scope="session")
def sides(bases):
    return [sides for _, sides in bases]


@pytest.fixture(scope="session")
def isosets(sides):
    return [a | b | c for a, b, c in sides]


@pytest.fixture(scope="session")
def point_maps(plane):
    return hermitian.point_permutations(plane)


@pytest.fixture(scope="session")
def built(sides):
    """The graph's adjacency rows and point columns, from one build; a test
    that changes them works on a copy."""
    return graph.build_graph(sides)


@pytest.fixture(scope="session")
def rows(built):
    return built[0]


@pytest.fixture(scope="session")
def columns(built):
    return built[1]


@pytest.fixture(scope="session")
def automorphisms(isosets, columns, point_maps):
    return graph.vertex_permutations(isosets, columns, point_maps)


@pytest.fixture(scope="session")
def srg_params(rows, automorphisms):
    return graph.verify_srg(rows, automorphisms)


@pytest.fixture(scope="session")
def spectrum(srg_params):
    return oracles.srg_spectrum(srg_params)


@pytest.fixture(scope="session")
def part(rows, columns):
    return graph.split_B_C(rows, columns[1])


@pytest.fixture(scope="session")
def contrasts(part):
    return oracles.build_contrasts(part)


@pytest.fixture(scope="session")
def c_maps(automorphisms, part):
    return graph.stabilizer(automorphisms, graph.STABILIZER_WORDS, part.c)


@pytest.fixture(scope="session")
def vertex_maps(automorphisms):
    return graph.stabilizer(automorphisms, graph.VERTEX_WORDS, 1)


@pytest.fixture(scope="session")
def certificates(rows, part):
    return graph.certified_dimension_chain(rows, part)


@pytest.fixture(scope="session")
def special_cliques(rows, part, isosets, c_maps):
    return graph.special_cliques(rows, part, isosets, c_maps)


@pytest.fixture(scope="session")
def full_report():
    """One full pipeline run with the default configuration."""
    return run_check(RunConfig())
