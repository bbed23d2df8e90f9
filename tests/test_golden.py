"""Byte-for-byte CLI output of exact-only commands against committed
reference files in tests/golden/.  Seeded Monte Carlo commands are left
out: their bytes depend on numpy's random streams."""

from pathlib import Path

import pytest

from colorstats.cli import main

GOLDEN = Path(__file__).parent / "golden"

STDOUT_CASES = [
    (("moments", "--graph", "star:8", "--classes", "5,3"), "moments_star8_5_3.json"),
    (
        ("moments", "--graph", "circulant:n=12,d=3", "--classes", "balanced:3"),
        "moments_circulant12_d3_balanced3.json",
    ),
    (("oracle-verify", "--max-n", "5"), "oracle_verify_max5.txt"),
]

OUT_FILE_CASES = [
    (
        ("regime", "--family", "star", "--classes", "3/4,1/4", "--grid", "40,100,250",
         "--format", "csv"),
        "regime_star.csv",
    ),
    (
        ("regime", "--family", "star", "--classes", "3/4,1/4", "--grid", "40,100,250",
         "--format", "json"),
        "regime_star.json",
    ),
    (
        ("regime", "--family", "circulant:d=4", "--classes", "balanced:2", "--grid", "10,20"),
        "regime_circulant_d4.json",
    ),
    (
        ("rdcheck", "--model", "config:law=1:1/2,5:1/2", "--grid", "250,500",
         "--mode", "closed"),
        "rdcheck_config.json",
    ),
]


@pytest.mark.parametrize("argv, golden", STDOUT_CASES, ids=[g for _, g in STDOUT_CASES])
def test_stdout_matches_golden(capsys, argv, golden):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, golden", OUT_FILE_CASES, ids=[g for _, g in OUT_FILE_CASES])
def test_out_file_matches_golden(tmp_path, argv, golden):
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
