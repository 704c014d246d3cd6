"""The command line's usage errors."""

import pytest

from g24verify import cli


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
