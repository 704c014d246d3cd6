"""The command line: its usage errors, help and version, option parsing,
exit codes and the report it writes, the console script, and what `check`
imports."""

import importlib.util
import json
import os
import subprocess
import sys

import jsonschema
import pytest

import g24verify
from g24verify import cli
from g24verify.pipeline import RunConfig

import oracles


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        ["check", "--frobnicate"],
        ["check", "--out"],
        ["check", "--out", "--timings"],
        ["export-graph", "--format", "svg", "--out", "g.svg"],
        ["check", "--inject-flip-edge", "1"],
        ["check", "--inject-flip-edge", "0,416"],
        ["check", "--inject-flip-edge", "5,5"],
        ["check", "export-graph"],
        ["check", "--tim"],  # no prefix abbreviations
        ["check", "--inject", "3,200"],
        ["check", "--timings=yes"],
        ["frobnicate", "--out", "r.json"],
        ["report", "--out", "r.json"],  # `check --out` writes the report
        # Removed flags.
        ["check", "--threads", "2"],
        ["check", "--seed", "1"],
        ["check", "--with-uniqueness"],
        ["check", "--uniqueness-budget", "5"],
        ["check", "--with-clebsch-check"],
        # The dimension chain is exact over Q, so a choice of primes is refused.
        ["check", "--primes", "1000003,999983"],
        ["check", "--primes", "1000003"],
        ["check", "--primes", "3"],
        ["check", "--primes", "2147483647,2147483629"],
        ["export-graph", "--format", "json", "--out", "g.json"],
        ["export-graph"],  # an export needs --out
    ],
)
def test_usage_errors_write_the_usage_and_exit_3(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(cli.USAGE)
    assert "\ng24verify: error: " in captured.err


@pytest.mark.parametrize("flag", ["-h", "--help", "--version"])
def test_help_and_version_exit_0(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", flag])
    assert exc.value.code == 0
    version = f"g24verify {g24verify.__version__}\n"
    assert capsys.readouterr().out == (version if flag == "--version" else cli.HELP)


def test_option_values_follow_a_space_or_an_equals_sign():
    spaced = cli.parse_args(
        ["export-graph", "--out", "g.dimacs", "--timings", "--inject-flip-edge", "3,200"]
    )
    assert vars(spaced) == vars(RunConfig("export-graph", "g.dimacs", True, (3, 200)))
    joined = cli.parse_args(
        ["export-graph", "--out=g.dimacs", "--timings", "--inject-flip-edge=3,200"]
    )
    assert vars(joined) == vars(spaced)
    assert vars(cli.parse_args(["--out=r.json"])) == vars(RunConfig(out="r.json"))
    assert vars(cli.parse_args(["--out", "r.json"])) == vars(RunConfig(out="r.json"))
    assert vars(cli.parse_args([])) == vars(RunConfig())


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
    jsonschema.validate(doc, oracles.SCHEMA)


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


# What `import g24verify.cli` and a `check` without --out may load besides
# the package itself, with no site hook: `os` and what it imports.
CHECK_STDLIB = {
    "os", "os.path", "posixpath", "genericpath", "stat", "_stat", "_collections_abc"
}


@pytest.fixture(scope="module")
def check_child(tmp_path_factory):
    # One interpreter imports the CLI, then certifies, rejects, exports and
    # writes a report.  -S keeps site hooks from importing modules before
    # the package does, and numpy's directory joins the path after the
    # snapshot, so numpy can be found but must not be loaded.
    package = os.path.dirname(g24verify.__file__)
    modules = sorted(
        f"g24verify.{name[:-3]}" for name in os.listdir(package)
        if name.endswith(".py") and name != "__init__.py"
    )
    numpy_dir = os.path.dirname(os.path.dirname(importlib.util.find_spec("numpy").origin))
    tmp = tmp_path_factory.mktemp("check_child")
    vectors, report = tmp / "vectors.csv", tmp / "r.json"
    runs = [
        ["check"],
        ["check", "--inject-flip-edge", "0,1"],
        ["export-vectors", "--out", str(vectors)],
    ]
    proc = _run(
        "-S",
        "-c",
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.append({numpy_dir!r})\n"
        "from g24verify import cli\n"
        f"seen = [[m for m in {modules!r} if m not in sys.modules]]\n"
        "def added():\n"
        "    new = set(sys.modules) - before\n"
        "    return sorted(m for m in new if not m.startswith('g24verify'))\n"
        "seen.append(added())\n"
        f"for argv in {runs!r}:\n"
        "    seen.append([cli.main(argv), added()])\n"
        f"rc = cli.main(['check', '--out', {str(report)!r}])\n"
        "names = {'argparse', 'json', 'numpy', 'tempfile'}\n"
        "seen.append([rc, sorted(names & set(sys.modules))])\n"
        "import importlib.util, json\n"
        "seen.append(importlib.util.find_spec('numpy') is not None)\n"
        "print(json.dumps(seen))\n",
    )
    assert proc.returncode == 0, proc.stderr
    missing, on_import, check, reject, export, check_out, numpy_found = json.loads(
        proc.stdout.splitlines()[-1]
    )
    return {
        "modules": modules, "missing": missing, "import": on_import,
        "check": check, "reject": reject, "export": export,
        "check --out": check_out, "numpy found": numpy_found,
        "vectors": vectors, "report": report,
    }


def test_cli_import_does_not_load_numpy(check_child):
    # numpy can be found in the child, so its absence from sys.modules shows
    # the CLI's import does not reach it.
    assert check_child["numpy found"]
    assert "numpy" not in check_child["import"]


def test_cli_import_loads_no_introspection_modules(check_child):
    # dataclasses alone pulls in inspect, ast, dis and tokenize; the records
    # are plain classes, and the spectrum is in ints.
    names = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions"}
    assert names.isdisjoint(check_child["import"])


def test_rejected_run_does_not_load_numpy(check_child):
    assert check_child["reject"] == [1, check_child["import"]]


def test_check_and_export_do_not_load_numpy(check_child):
    # Nor do they load the introspection modules the import leaves out.
    assert check_child["check"] == [0, check_child["import"]]
    assert check_child["export"] == [0, check_child["import"]]
    assert check_child["vectors"].stat().st_size > 0


def test_check_imports_only_what_it_runs(check_child):
    # The package's own modules, pinned so that a split or a merge is seen.
    assert check_child["modules"] == [
        "g24verify.cli", "g24verify.graph", "g24verify.hermitian", "g24verify.pipeline"
    ]
    assert check_child["missing"] == []
    # Nothing beyond `os`: so no numpy, and none of the introspection modules.
    assert set(check_child["import"]) <= CHECK_STDLIB, check_child["import"]
    assert check_child["check --out"] == [0, ["json"]]
    assert check_child["report"].stat().st_size > 0
