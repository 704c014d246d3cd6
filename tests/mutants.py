"""Mutation gate: deleting any refusal in src/ must make the test suite fail.

The test files follow the package: tests/test_<module>.py for each module
of src/g24verify/ with refusals, plus test_acceptance.py (one test per
criterion), the two *_properties.py files and test_readme.py.  Two
exceptions remain: the tests of `graph` also fill test_euclid.py, named in
`FOLDED_TESTS`, and the tests of `cli` are in test_pipeline.py.

A refusal is a `raise` of VerificationError, or of `fail(...)` in
`hermitian.verify_axioms`; each one is found with `ast`.  For each, a copy of
src/, tests/, pyproject.toml and README.md in a temporary directory gets
that statement replaced by `pass`, and
`python -m pytest -x -q` runs there on every test file, named one by one:
the test files of the mutated module and tests/test_pipeline.py first, the
rest after, so that -x stops at the first failure soon.  A mutant whose
suite passes is a survivor: a refusal that no test reaches.  A module with
a refusal whose test files are missing is refused before any mutant runs.
The unmutated copy must pass first, or every mutant would look killed, and
the files named must collect the same tests as `pytest tests`, so that a
survivor has passed the whole suite.

Prints each survivor, then the total wall time and the slowest mutant, and
exits 1 if there is any survivor; exits 0 otherwise.  The mutants run in
parallel, one per CPU.  Pytest does not collect this file.

    python tests/mutants.py
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFUSALS = {"VerificationError", "fail"}


def refusals() -> list[tuple[Path, ast.Raise]]:
    """Every refusal in src/, as (path relative to the root, raise node)."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes())):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id in REFUSALS
            ):
                found.append((path.relative_to(ROOT), node))
    found.sort(key=lambda item: (str(item[0]), item[1].lineno))
    return found


# The test files of each module besides tests/test_<module>.py.
FOLDED_TESTS = {"graph": ["test_euclid.py"]}


def module_tests(rel: Path) -> list[str]:
    """The test files of the module `rel`."""
    return [f"test_{rel.stem}.py", *FOLDED_TESTS.get(rel.stem, [])]


def suite_files(rel: Path | None) -> list[str]:
    """Every test file, those that test the module `rel` first."""
    names = sorted(p.name for p in (ROOT / "tests").glob("test_*.py"))
    first = [*module_tests(rel), "test_pipeline.py"] if rel else []
    return [f"tests/{n}" for n in dict.fromkeys(first + names)]


def pythonpath(src: Path) -> str:
    """`src` ahead of the caller's PYTHONPATH."""
    return os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))


def collected(args: list[str]) -> set[str]:
    """The test ids that pytest collects from `args` in the unmutated tree."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=pythonpath(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    return {line for line in done.stdout.splitlines() if "::" in line}


def suite_passes(mutant: tuple[Path, ast.Raise] | None) -> bool:
    """Run the suite on a copy of the tree, with `mutant` replaced by `pass`."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests"):
            shutil.copytree(
                ROOT / name,
                Path(tmp, name),
                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
            )
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tmp)
        if mutant is not None:
            rel, node = mutant
            target = Path(tmp, rel)
            # ast offsets are in bytes of the UTF-8 source.
            lines = target.read_bytes().splitlines(keepends=True)
            head = lines[node.lineno - 1][: node.col_offset]
            tail = lines[node.end_lineno - 1][node.end_col_offset :]
            lines[node.lineno - 1 : node.end_lineno] = [head + b"pass" + tail]
            target.write_bytes(b"".join(lines))
        rel = mutant[0] if mutant else None
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", *suite_files(rel)],
            cwd=tmp,
            env=dict(os.environ, PYTHONPATH=pythonpath(Path(tmp, "src"))),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return done.returncode == 0


def timed_suite_passes(mutant: tuple[Path, ast.Raise]) -> tuple[bool, float]:
    """`suite_passes(mutant)` and its wall time in seconds."""
    start = time.perf_counter()
    return suite_passes(mutant), time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    mutants = refusals()
    missing = sorted(
        {
            (str(rel), name)
            for rel, _ in mutants
            for name in module_tests(rel)
            if not (ROOT / "tests" / name).exists()
        }
    )
    for rel, name in missing:
        print(f"{rel} has refusals but no tests/{name}")
    if missing:
        return 1
    if collected(suite_files(None)) != collected(["tests"]):
        print("the test files named do not collect the whole suite")
        return 1
    if not suite_passes(None):
        print("the unmutated suite fails; no mutant can be judged")
        return 1
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        results = list(pool.map(timed_suite_passes, mutants))
    survivors = [m for m, (s, _) in zip(mutants, results) if s]
    for rel, node in survivors:
        print(f"survivor: {rel}:{node.lineno}: {ast.unparse(node).splitlines()[0]}")
    seconds, (rel, node) = max(zip((t for _, t in results), mutants), key=lambda x: x[0])
    print(
        f"{time.perf_counter() - start:.1f} s wall; "
        f"slowest mutant {rel}:{node.lineno}, {seconds:.1f} s"
    )
    print(f"{len(mutants)} refusals, {len(survivors)} survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
