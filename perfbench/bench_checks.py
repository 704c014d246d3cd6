"""Output checks for each benchmark workload.

Each check returns an empty string when the invocation's output is what the
workload expects, or a one-line reason otherwise.  A failed check counts the
invocation as failed, never as fast.  The verdict is checked by meaning, not
by stdout bytes, so a change that drops or renames stage lines still passes.
"""

from __future__ import annotations

import hashlib
import re

VERDICT = re.compile(
    r"(\d+) points of affine dimension (\d+) need at least (\d+) parts of "
    r"smaller diameter"
)
# The paper's verdict: 352 points in dimension 64 need at least 71 > 65 parts.
EXPECTED_VERDICT = (352, 64, 71)
# sha256 of `g24verify export-vectors` output: the columns of y = A + 4I.
VECTORS_SHA256 = "a15af45a601240472f7f55b2adeea58f4cb0f12c6425422b75e0481be8369ef1"


def _overall(lines: list[str]) -> str | None:
    for line in lines:
        if line.startswith("overall: "):
            return line[len("overall: "):].strip()
    return None


def verdicts(stdout: str) -> list[tuple[int, int, int]]:
    return [tuple(int(x) for x in m.groups()) for m in VERDICT.finditer(stdout)]


def check_certify(code: int, stdout: str) -> str:
    """Exit 0, overall PASS, and the paper's verdict statement."""
    if code != 0:
        return f"exit code {code}, expected 0"
    overall = _overall(stdout.splitlines())
    if overall != "PASS":
        return f"overall {overall!r}, expected 'PASS'"
    found = verdicts(stdout)
    if found != [EXPECTED_VERDICT]:
        return f"verdict {found}, expected [{EXPECTED_VERDICT}]"
    points, dim, parts = found[0]
    if parts <= dim + 1:
        return f"verdict needs {parts} parts, which does not exceed {dim + 1}"
    return ""


def check_reject(code: int, stdout: str) -> str:
    """Exit 1, overall FAIL, a witness line, and no verdict."""
    if code != 1:
        return f"exit code {code}, expected 1"
    lines = stdout.splitlines()
    overall = _overall(lines)
    if overall != "FAIL":
        return f"overall {overall!r}, expected 'FAIL'"
    if not any(line.strip().startswith("witness:") for line in lines):
        return "no witness line"
    if verdicts(stdout):
        return "a verdict was printed for a corrupted graph"
    return ""


def check_export(code: int, data: bytes | None, expected: str = VECTORS_SHA256) -> str:
    """Exit 0 and the vectors file's sha256 equal to the pinned hash."""
    if code != 0:
        return f"exit code {code}, expected 0"
    if data is None:
        return "no output file"
    digest = hashlib.sha256(data).hexdigest()
    if digest != expected:
        return f"output sha256 {digest}, expected {expected}"
    return ""
