"""README points at the code that holds each argument: every backticked
`module.name` must resolve in the package or in the test oracles, and every
backticked `test_*` must be a test of the suite, so that a rename cannot
leave README pointing at nothing."""

import ast
import re
from pathlib import Path

import g24verify
from g24verify import cli, graph, hermitian, pipeline

import oracles

ROOT = Path(__file__).resolve().parent.parent
MODULES = {
    "g24verify": g24verify,
    "cli": cli,
    "graph": graph,
    "hermitian": hermitian,
    "pipeline": pipeline,
    "oracles": oracles,
}


def test_readme_references_resolve():
    fenced = re.compile(r"^```.*?^```", flags=re.M | re.S)
    text = fenced.sub("", (ROOT / "README.md").read_text())
    spans = re.findall(r"`([^`\n]+)`", text)
    dotted = [s for s in spans if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", s)]
    tests = [m[1] for s in spans if (m := re.fullmatch(r"(test_\w+)(\[[^\]]*\])?", s))]
    assert dotted and tests
    for name in dotted:
        head, *attrs = name.split(".")
        assert head in MODULES, f"README's `{name}` names no module"
        obj = MODULES[head]
        for attr in attrs:
            assert hasattr(obj, attr), f"README's `{name}` does not resolve"
            obj = getattr(obj, attr)
    defined = {
        node.name
        for path in (ROOT / "tests").glob("test_*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    assert set(tests) <= defined, sorted(set(tests) - defined)
