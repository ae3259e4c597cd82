"""Golden outputs: refactors keep the figure CSVs and the verify report.

The figure CSVs are the benchmark's reference files; the verify report was
recorded with ``weyl-uncert verify --suite all --samples 500 --seed 7``.
Outputs are compared token by token: text exactly, numbers to within
1e-12 * max(1, |x|), so that a different CPU or BLAS does not fail the
comparison by rounding in the last digits.
"""

import re
from pathlib import Path

import pytest

from weyl_uncert import cli

ROOT = Path(__file__).resolve().parents[1]
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def assert_same_tokens(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for lineno, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        gt, wt = NUMBER.split(g), NUMBER.split(w)
        assert gt[0::2] == wt[0::2], f"line {lineno}: {g!r} != {w!r}"
        for x, y in zip(gt[1::2], wt[1::2]):
            assert abs(float(x) - float(y)) <= 1e-12 * max(1.0, abs(float(y))), (
                f"line {lineno}: {x} != {y}"
            )


@pytest.mark.parametrize("figure_id", [1, 2, 3, 4])
def test_figure_csv_matches_reference(figure_id, tmp_path):
    out = tmp_path / "figure.csv"
    assert cli.main(["figure", "--id", str(figure_id), "--out", str(out)]) == 0
    want = (ROOT / "perfbench" / "reference" / f"figure{figure_id}.csv").read_text()
    assert_same_tokens(out.read_text(), want)


def test_verify_all_report_matches_golden(capsys):
    assert cli.main(["verify", "--suite", "all", "--samples", "500", "--seed", "7"]) == 0
    want = (ROOT / "tests" / "golden" / "verify_all_500_seed7.txt").read_text()
    assert_same_tokens(capsys.readouterr().out, want)


def test_token_comparison_tolerates_rounding_only():
    assert_same_tokens("a = 1.0000000000000002, b\n", "a = 1, b\n")
    with pytest.raises(AssertionError):
        assert_same_tokens("a = 1.000001\n", "a = 1\n")
    with pytest.raises(AssertionError):
        assert_same_tokens("b = 1\n", "a = 1\n")
    with pytest.raises(AssertionError):
        assert_same_tokens("a = 1\nextra\n", "a = 1\n")
