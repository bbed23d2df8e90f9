"""Byte-for-byte CLI output of exact-only commands, and the saved edge
lists of the deterministic generators, against committed reference files
in tests/golden/.  Seeded Monte Carlo commands are left out, because their
bytes depend on numpy's random streams, except for a zero-variance cell."""

import hashlib
import io
from pathlib import Path

import pytest

from colorstats.cli import main
from colorstats.graph import (
    complete,
    cycle,
    disjoint_union,
    path,
    regular_circulant,
    save_edge_list,
    threshold_graph,
)

GOLDEN = Path(__file__).parent / "golden"

STDOUT_CASES = [
    (("moments", "--graph", "star:8", "--classes", "5,3"), "moments_star8_5_3.json"),
    (
        ("moments", "--graph", "circulant:n=12,d=3", "--classes", "balanced:3"),
        "moments_circulant12_d3_balanced3.json",
    ),
    (("oracle-verify", "--max-n", "5"), "oracle_verify_max5.txt"),
    # zero-variance cell: every draw gives the same M, so the bytes do not
    # depend on the random stream
    (("simulate", "--graph", "star:8", "--classes", "4,4", "--trials", "500"),
     "simulate_star8_4_4.json"),
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


def test_oracle_verify_max8_digest(capsys):
    """The max-8 sweep builds 3-class tables with n >= 6, which the max-5
    file never does; its 6306 lines are pinned by their sha256."""
    assert main(["oracle-verify", "--max-n", "8"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == (GOLDEN / "oracle_verify_max8.sha256").read_text(encoding="utf-8").strip()


@pytest.mark.parametrize("argv, golden", OUT_FILE_CASES, ids=[g for _, g in OUT_FILE_CASES])
def test_out_file_matches_golden(tmp_path, argv, golden):
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


EDGE_LIST_CASES = [
    (lambda: regular_circulant(12, 5), "edges_circulant_12_5.txt"),
    (lambda: regular_circulant(10, 4), "edges_circulant_10_4.txt"),
    (lambda: regular_circulant(4, 3), "edges_circulant_4_3.txt"),
    (lambda: regular_circulant(4, 1), "edges_circulant_4_1.txt"),
    (lambda: complete(6), "edges_complete_6.txt"),
    (lambda: threshold_graph("IDDID"), "edges_threshold_IDDID.txt"),
    (lambda: disjoint_union([path(3), cycle(4)]), "edges_union_path3_cycle4.txt"),
]


@pytest.mark.parametrize("build, golden", EDGE_LIST_CASES, ids=[g for _, g in EDGE_LIST_CASES])
def test_edge_list_matches_golden(build, golden):
    buf = io.StringIO()
    save_edge_list(build(), buf)
    assert buf.getvalue() == (GOLDEN / golden).read_text(encoding="utf-8")
