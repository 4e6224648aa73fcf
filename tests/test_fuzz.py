"""Seeded fuzz of the command line's input boundary.

A valid instance JSON and a valid shuffle trace are mutated one field or
token at a time: a key deleted, a value replaced by a value of the wrong
type or range, a line truncated. Each mutant goes through ``cli.main``.
No exception may escape, and every failure must exit 1 with exactly one
JSON line on stderr. A seeded draw of double mutations follows the
exhaustive single ones.
"""

import copy
import json

import numpy as np
import pytest

from coflowsched.cli import main

INSTANCE = {
    "cores": 2,
    "ports": 3,
    "coflows": [
        {
            "id": 1,
            "release": 0,
            "weight": 2,
            "flows": [{"i": 1, "j": 2, "size": 3}, {"i": 2, "j": 2, "size": 1}],
        },
        {"id": 2, "release": 4, "weight": 1.5, "flows": [{"i": 3, "j": 1, "size": 2}]},
    ],
}

# The twelve places a value is replaced: top-level fields, one coflow's fields,
# one flow's fields, and whole entries of the coflow and flow lists.
PATHS = [
    ("cores",),
    ("ports",),
    ("coflows",),
    ("coflows", 0, "id"),
    ("coflows", 0, "release"),
    ("coflows", 0, "weight"),
    ("coflows", 0, "flows"),
    ("coflows", 0, "flows", 0),
    ("coflows", 0, "flows", 0, "i"),
    ("coflows", 0, "flows", 0, "j"),
    ("coflows", 0, "flows", 0, "size"),
    ("coflows", 1),
]

VALUES = [
    "x", None, True, False, [1], {}, float("nan"), float("inf"), float("-inf"),
    0, -1, 0.5, 2**63, 10**30, 10**400,
]

INSTANCE_COMMANDS = [
    ("schedule", "--granularity", "flow"),
    ("schedule", "--granularity", "coflow"),
    ("order",),
]

TRACE = ["3 2", "1 0 2 1 2 2 1:6 3:4", "2 100 1 3 1 2:5"]

TOKENS = ["x", "null", "true", "[1]", "nan", "inf", "-inf", "0", "-1", "0.5",
          str(2**63), str(10**30), str(10**400), ""]


def _replace(doc, path, value):
    out = copy.deepcopy(doc)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return out


def _delete(doc, path):
    out = copy.deepcopy(doc)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    return out


def instance_texts():
    base = json.dumps(INSTANCE)
    yield base
    for path in PATHS:
        yield json.dumps(_delete(INSTANCE, path))
        for value in VALUES:
            yield json.dumps(_replace(INSTANCE, path, value))
    for cut in range(0, len(base), 9):
        yield base[:cut]


def _token_variants(token):
    """Each replacement of a token, and of each side of a rack:megabytes pair."""
    for value in TOKENS:
        yield value
    if ":" in token:
        rack, mb = token.split(":")
        for value in TOKENS:
            yield f"{value}:{mb}"
            yield f"{rack}:{value}"


def trace_texts():
    yield "\n".join(TRACE)
    for row, line in enumerate(TRACE):
        tokens = line.split()
        variants = [line[:cut] for cut in range(len(line))]
        for pos, token in enumerate(tokens):
            variants.append(" ".join(tokens[:pos] + tokens[pos + 1 :]))
            for value in _token_variants(token):
                variants.append(" ".join(tokens[:pos] + [value] + tokens[pos + 1 :]))
        for variant in variants:
            yield "\n".join(TRACE[:row] + [variant] + TRACE[row + 1 :])


def check_exit(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == "", argv
    else:
        lines = captured.err.splitlines()
        assert code == 1 and len(lines) == 1, (argv, captured.err)
        assert json.loads(lines[0])["error"], argv
    return code


def run_instance(tmp_path, capsys, text):
    path = tmp_path / "instance.json"
    path.write_text(text)
    return [check_exit(capsys, [cmd[0], str(path), *cmd[1:]]) for cmd in INSTANCE_COMMANDS]


def run_trace(tmp_path, capsys, text):
    path = tmp_path / "trace.txt"
    path.write_text(text + "\n")
    return check_exit(capsys, ["trace-import", str(path), "--ports", "3", "--cores", "2"])


def test_unmutated_inputs_are_accepted(tmp_path, capsys):
    assert run_instance(tmp_path, capsys, json.dumps(INSTANCE)) == [0, 0, 0]
    assert run_trace(tmp_path, capsys, "\n".join(TRACE)) == 0


def test_instance_mutations_fail_cleanly(tmp_path, capsys):
    codes = [code for text in instance_texts() for code in run_instance(tmp_path, capsys, text)]
    # Most mutants are invalid; a few (weight 0.5 or 10**30) are still valid.
    assert codes.count(1) > len(codes) // 2 and 0 in codes


def test_trace_mutations_fail_cleanly(tmp_path, capsys):
    codes = [run_trace(tmp_path, capsys, text) for text in trace_texts()]
    assert codes.count(1) > len(codes) // 2 and 0 in codes


@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_double_mutations_fail_cleanly(tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        doc = INSTANCE
        for _ in range(2):
            path = PATHS[int(rng.integers(len(PATHS)))]
            try:
                doc = _replace(doc, path, VALUES[int(rng.integers(len(VALUES)))])
            except (KeyError, IndexError, TypeError):
                break  # the first mutation removed the second one's parent
        run_instance(tmp_path, capsys, json.dumps(doc))
    texts = list(trace_texts())
    for _ in range(60):
        first, second = (texts[int(x)] for x in rng.integers(len(texts), size=2))
        lines = first.split("\n")[:2] + second.split("\n")[2:]
        run_trace(tmp_path, capsys, "\n".join(lines))
