"""Mutation gate: deleting any refusal in src/ must make the test suite fail.

Layout rule: the tests of each module of src/g24verify/ with refusals are in
tests/test_<module>.py.  Run order: `pytest -x -q` on that file and
tests/test_pipeline.py, then, only if they pass, on `tests`, so a survivor
has passed the whole suite, which the unmutated tree must pass too.

A refusal is a `raise` of VerificationError, or of `fail(...)` in
`hermitian.verify_axioms`, found with `ast`.  Its mutant is an edit in bytes
that puts `pass` in its place; the edited file must parse, and undoing the
edit must give the file back.  Each worker thread copies the tree once, and
each mutant it writes there is undone in a `finally`.  Children write no
`.pyc`, which only its source's size and whole-second mtime validate, and
load no third-party pytest plugin; the tests read fixed inputs, their
random ones from fixed seeds, so a verdict repeats from run to run.  The
unmutated run takes one copy while mutants are judged in the others.  Once
it ends, a child that has run, or goes on to run, over 5 times its wall
time plus 30 s is killed and counts as killed; if it failed, every child is
killed and no verdict is given.  Exits 1 then, on a survivor, or if a
copy's src/ is left unlike the checkout's.

    python tests/mutants.py
"""

import ast
import itertools
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFUSALS = {"VerificationError", "fail"}

Edit = tuple[Path, int, int, bytes]  # path, start, end, replacement


def refusals() -> list[Edit]:
    """Every refusal in src/, as the edit that replaces it by `pass`."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_bytes()
        # ast offsets are in bytes of the UTF-8 source.
        starts = [0, *itertools.accumulate(map(len, source.splitlines(True)))]
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id in REFUSALS
            ):
                start = starts[node.lineno - 1] + node.col_offset
                end = starts[node.end_lineno - 1] + node.end_col_offset
                found.append((path.relative_to(ROOT), start, end, b"pass"))
    return sorted(found)


def apply(source: bytes, edit: Edit) -> bytes:
    _, start, end, replacement = edit
    return source[:start] + replacement + source[end:]


def where(edit: Edit) -> str:
    path, start, end, _ = edit
    source = (ROOT / path).read_bytes()
    line = source.count(b"\n", 0, start) + 1
    return f"{path}:{line}: {source[start:end].decode().splitlines()[0]}"


def passes(tree: Path, args: list[str], timeout: list[float]) -> bool | None:
    """Whether `pytest -x -q args` passes in `tree`; None if it ran past
    timeout[0] and was killed.  While `timeout` is empty, the child runs on
    and is looked at once a second."""
    began = time.perf_counter()
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.getenv("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", *args],
        cwd=tree,
        env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1",
                 PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # so that the tests' own children are killed too
    )
    while True:
        left = timeout[0] + began - time.perf_counter() if timeout else 1.0
        try:
            return child.wait(max(left, 0)) == 0
        except subprocess.TimeoutExpired:
            if timeout and time.perf_counter() - began >= timeout[0]:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
                return None


def main() -> int:
    began = time.perf_counter()
    mutants = refusals()
    for path in sorted({edit[0] for edit in mutants}):
        if not (ROOT / "tests" / f"test_{path.stem}.py").exists():
            print(f"{path} has refusals but no tests/test_{path.stem}.py")
            return 1
    for path, start, end, new in mutants:
        source = (ROOT / path).read_bytes()
        mutated = apply(source, (path, start, end, new))
        ast.parse(mutated, str(path))  # a SyntaxError names the file and line
        if apply(mutated, (path, start, start + len(new), source[start:end])) != source:
            print(f"undoing the edit of bytes {start}:{end} changes {path}")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        trees = [Path(tmp, str(i)) for i in range(os.cpu_count() or 1)]
        idle: queue.SimpleQueue[Path] = queue.SimpleQueue()
        for tree in trees:
            for name in ("src", "tests"):
                ignore = shutil.ignore_patterns("__pycache__")
                shutil.copytree(ROOT / name, tree / name, ignore=ignore)
            for name in ("pyproject.toml", "README.md"):
                shutil.copy(ROOT / name, tree)
            idle.put(tree)
        timeout: list[float] = []  # set when the unmutated run ends

        def unmutated() -> bool:
            """Whether `pytest tests` passes on the unmutated tree.  Its wall
            time sets the timeout, or 0 if it fails, so that every child is
            killed."""
            t0, tree, passed = time.perf_counter(), idle.get(), False
            try:
                passed = passes(tree, ["tests"], timeout)
            finally:
                timeout.append(5 * (time.perf_counter() - t0) + 30 if passed else 0)
                idle.put(tree)
            return passed

        def judge(edit: Edit) -> tuple[bool | None, float]:
            """Whether the suite passes on the mutant (None: timed out), and when."""
            t0, tree, path = time.perf_counter(), idle.get(), edit[0]
            first = sorted({f"tests/test_{path.stem}.py", "tests/test_pipeline.py"})
            source = (ROOT / path).read_bytes()
            try:
                (tree / path).write_bytes(apply(source, edit))
                passed = passes(tree, first, timeout) and passes(tree, ["tests"], timeout)
            finally:
                (tree / path).write_bytes(source)
                idle.put(tree)
            return passed, time.perf_counter() - t0

        with ThreadPoolExecutor(len(trees)) as pool:
            baseline = pool.submit(unmutated)
            results = list(pool.map(judge, mutants))
        if not baseline.result():
            print("the unmutated suite fails; no mutant can be judged")
            return 1
        changed = sorted({
            p.relative_to(tree) for tree in trees for p in (tree / "src").rglob("*")
            if p.is_file() and p.read_bytes() != (ROOT / p.relative_to(tree)).read_bytes()
        })
    for edit, (passed, _) in zip(mutants, results):
        if passed is not False:
            print(f"{'survivor' if passed else 'killed on a timeout'}: {where(edit)}")
    for path in changed:
        print(f"{path} differs from the checkout's in a worker's copy")
    survivors = sum(passed is True for passed, _ in results)
    seconds, slowest = max(zip((seconds for _, seconds in results), mutants))
    wall = time.perf_counter() - began
    print(f"{wall:.1f} s wall; slowest mutant {where(slowest)}, {seconds:.1f} s")
    print(f"{len(mutants)} refusals, {survivors} survivors")
    return 1 if survivors or changed else 0


if __name__ == "__main__":
    sys.exit(main())
