"""Smoke test of the ladder script in ``tools/``."""

import importlib.util
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def test_ladder_row_times_every_layer():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    row = ladder.ladder_row("mix", 25, 10, 1)
    assert row["flows"] == 751
    layers = {key for key in row if key.endswith("_ms")}
    assert layers == {
        "validate_ms",
        "table_ms",
        *(f"{layer}_{g}_ms" for layer in ("order", "simulate", "audit") for g in ("flow", "coflow")),
        "assign_fdls_ms",
        "assign_cdls_ms",
    }
    assert ("mix n=200 N=50 releases", "release", 200, 50) in ladder.ROWS
    assert ladder.ladder_row("release", 25, 10, 1).keys() == row.keys()

