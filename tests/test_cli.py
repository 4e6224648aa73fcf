"""End-to-end runs of the command line front end."""

import argparse
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from _shared import corpus_instance
from coflowsched import metrics, model
from coflowsched.cli import build_parser, main
from coflowsched.experiments import ExperimentConfig, default_config, run_experiment, run_pipeline


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_instance(tmp_path, capsys, *extra):
    out = tmp_path / "gen"
    code, _, err = run(
        capsys, "generate", "--coflows", "4", "--ports", "5", "--cores", "2",
        "--seed", "3", "--out", str(out), *extra,
    )
    assert code == 0 and err == ""
    return out / "instance.json"


def test_generate_writes_valid_instance(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    inst = model.loads_instance(path.read_text())
    assert inst.n == 4 and inst.ports == 5 and inst.cores == 2


def test_generate_to_stdout(capsys):
    code, out, err = run(capsys, "generate", "--coflows", "2", "--ports", "4")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert len(doc["coflows"]) == 2


def test_generate_reruns_byte_identical(tmp_path, capsys):
    a = gen_instance(tmp_path / "a", capsys)
    b = gen_instance(tmp_path / "b", capsys)
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_negative_coflow_count(capsys):
    code, out, err = run(capsys, "generate", "--coflows", "-3")
    assert_one_json_error(code, out, err, "coflow count must be >= 0, got -3")


def test_generate_refuses_a_coflow_above_the_flow_cap():
    # At 10,000 ports, seed 4 draws a first coflow of 8,815 x 5,115 =
    # 45,088,725 flows. The cap is checked once its widths are drawn, before
    # its grid is built. The child alone runs under a 512 MiB address-space
    # limit, so a build would fail there instead of filling the host.
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from coflowsched.cli import main\n"
        "sys.exit(main(['generate', '--ports', '10000', '--seed', '4']))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert_one_json_error(
        proc.returncode, proc.stdout, proc.stderr,
        "coflow 1: 45088725 flows above the limit 1000000",
    )


def test_generate_density_flag(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys, "--density", "sparse")
    inst = model.loads_instance(path.read_text())
    assert all(1 <= c.flow_count <= 5 for c in inst.coflows)


def test_order_stdout_and_trace(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    code, out, err = run(capsys, "order", str(inst), "--granularity", "coflow")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["granularity"] == "coflow"
    assert sorted(doc["order"]) == [1, 2, 3, 4]
    assert doc["dual_cost"] > 0

    outdir = tmp_path / "ord"
    code, _, err = run(
        capsys, "order", str(inst), "--emit-trace", "--out", str(outdir)
    )
    assert code == 0 and err == ""
    lines = (outdir / "dual_trace_flow.jsonl").read_text().splitlines()
    assert len(lines) == 4
    recs = [json.loads(line) for line in lines]
    assert [r["r"] for r in recs] == [4, 3, 2, 1]
    assert all(r["branch"] in ("alpha", "beta", "fallback") for r in recs)


def test_order_emit_trace_requires_out(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    code, out, err = run(capsys, "order", str(inst), "--emit-trace")
    assert code == 1
    assert json.loads(err)["error"]


def test_schedule_emit_timeline_requires_out(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    code, out, err = run(capsys, "schedule", str(inst), "--emit-timeline")
    assert_one_json_error(code, out, err, "--emit-timeline needs --out")


def test_schedule_document_and_timeline(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    outdir = tmp_path / "sched"
    code, _, err = run(
        capsys, "schedule", str(inst), "--emit-timeline", "--out", str(outdir)
    )
    assert code == 0 and err == ""
    doc = json.loads((outdir / "schedule_flow.json").read_text())
    assert doc["ratio"] >= 1 - 1e-9
    assert doc["objective"] > 0
    assert set(doc["coflow_completion"]) == {"1", "2", "3", "4"}
    with open(outdir / "timeline_flow.csv", newline="") as fp:
        rows = list(csv.reader(fp))
    assert rows[0] == ["start", "end", "i", "j", "k", "core"]
    assert len(rows) > 1
    assert all(float(r[1]) > float(r[0]) for r in rows[1:])


@pytest.mark.parametrize("granularity", ["flow", "coflow"])
def test_timeline_csv_matches_the_segment_view(tmp_path, capsys, granularity):
    # The CSV is written from the result's timeline columns. Its bytes equal
    # those written row by row from the Segment view of the same schedule.
    for idx in range(0, 1000, 43):
        path = tmp_path / f"instance_{idx}.json"
        path.write_text(model.dumps_instance(corpus_instance(idx)))
        outdir = tmp_path / f"out_{idx}"
        code, _, err = run(
            capsys, "schedule", str(path), "--granularity", granularity,
            "--emit-timeline", "--out", str(outdir),
        )
        assert code == 0 and err == ""
        instance = model.loads_instance(path.read_text())
        result = run_pipeline(instance, granularity, 0.5, emit_timeline=True).result
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["start", "end", "i", "j", "k", "core"])
        for seg in result.timeline:
            writer.writerow(
                [repr(seg.start), repr(seg.end), seg.flow.i, seg.flow.j, seg.flow.k, seg.core]
            )
        got = (outdir / f"timeline_{granularity}.csv").read_bytes()
        assert got == want.getvalue().encode()


def test_schedule_rerun_byte_identical(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    outs = []
    for name in ("s1", "s2"):
        outdir = tmp_path / name
        code, _, _ = run(
            capsys, "schedule", str(inst), "--granularity", "coflow",
            "--out", str(outdir),
        )
        assert code == 0
        outs.append((outdir / "schedule_coflow.json").read_bytes())
    assert outs[0] == outs[1]


def test_trace_import_with_threshold(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text(
        "9 2\n1 0 1 1 1 2:4\n2 1000 2 1 2 2 1:6 3:6\n"
    )
    code, out, err = run(
        capsys, "trace-import", str(trace), "--ports", "3", "--cores", "2",
        "--threshold", "2",
    )
    assert code == 0 and err == ""
    inst = model.instance_from_dict(json.loads(out))
    assert inst.n == 1 and inst.cores == 2
    assert inst.coflows[0].flow_count == 4
    assert inst.coflows[0].release == 128


@pytest.mark.parametrize("sep", ["\u2028", "\x0c"], ids=["line-separator", "form-feed"])
def test_trace_import_and_experiment_read_a_trace_alike(tmp_path, capsys, sep):
    # Only "\n" ends a trace line. str.splitlines also ends one at U+2028
    # and at a form feed; inside a line each is white space between tokens.
    # So each command reads a file holding one as it reads the same file
    # with a space in its place, and both give the same error on a bad one.
    def read(name, text):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        out = tmp_path / f"{name}-exp"
        imported = run(capsys, "trace-import", str(path), "--ports", "3")
        experiment = run(
            capsys, "experiment", "trace-threshold", "--trace", str(path), "--ports", "3",
            "--instances", "2", "--threshold", "1", "--out", str(out),
        )
        rows = out / "trace-threshold_flow_rows.csv"
        return imported, experiment, rows.read_bytes() if rows.exists() else None

    good = "9 2\n1 0 1 1 1{}2:4\n2 1000 2 1 2 2 1:6{}3:6\n"
    imported, experiment, rows = read("good", good.format(sep, sep))
    assert imported[0] == experiment[0] == 0 and rows is not None
    assert (imported, experiment, rows) == read("good-spaced", good.format(" ", " "))

    bad = "9 1\n1 0 1 1 1{}9:4\n"
    imported, experiment, rows = read("bad", bad.format(sep))
    message = "trace line 2: reducer rack 9 out of range 1..3"
    assert_one_json_error(*imported, message)
    assert experiment == imported and rows is None
    assert (imported, experiment, rows) == read("bad-spaced", bad.format(" "))


def test_experiment_writes_out_dir(tmp_path, capsys):
    outdir = tmp_path / "exp"
    code, out, err = run(
        capsys, "experiment", "ratio-vs-coflows", "--coflows", "3", "4",
        "--cores", "2", "--ports", "5", "--instances", "2", "--out", str(outdir),
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert [p["point"] for p in doc["points"]] == [3, 4]
    assert (outdir / "ratio-vs-coflows_flow_rows.csv").exists()
    assert (outdir / "ratio-vs-coflows_flow_aggregates.json").exists()
    disk = json.loads((outdir / "ratio-vs-coflows_flow_aggregates.json").read_text())
    assert disk == doc


def trace_threshold_argv(tmp_path, *thresholds):
    trace = tmp_path / "trace.txt"
    trace.write_text("9 2\n1 0 1 1 1 2:4\n2 1000 2 1 2 2 1:6 3:6\n")
    return [
        "experiment", "trace-threshold", "--trace", str(trace), "--ports", "3",
        "--instances", "2", "--out", str(tmp_path / "exp"), "--threshold", *thresholds,
    ]


def test_experiment_trace_threshold_flags(tmp_path, capsys):
    code, out, err = run(capsys, *trace_threshold_argv(tmp_path, "4", "1"))
    assert code == 0 and err == ""
    config = default_config(
        "trace-threshold", ports=3, instances=2, thresholds=(4, 1),
        trace_path=str(tmp_path / "trace.txt"),
    )
    assert json.loads(out) == metrics.aggregates_dict(run_experiment(config))
    assert [p["point"] for p in json.loads(out)["points"]] == [4, 1]


def test_experiment_repeated_thresholds_exit_with_one_json_line(tmp_path, capsys):
    code, out, err = run(capsys, *trace_threshold_argv(tmp_path, "4", "4", "1"))
    assert_one_json_error(code, out, err, "thresholds must be distinct, got (4, 4, 1)")
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["ratio-vs-cores", "--coflows", "3", "5", "--cores", "1", "2", "--ports", "4"],
            "ratio-vs-cores experiments do not sweep coflows, got (3, 5)",
        ),
        (
            ["box", "--threshold", "3", "--density", "dense"],
            "box experiments do not read density, got 'dense'",
        ),
        (
            ["trace-threshold", "--trace", "trace.txt", "--coflows", "3"],
            "trace-threshold experiments do not read coflows, got (3,)",
        ),
        (["cdf", "--coflows", "0"], "coflow counts must be >= 1, got (0,)"),
        (
            ["ratio-vs-coflows", "--coflows", "3", "3", "--ports", "4"],
            "coflows must be distinct, got (3, 3)",
        ),
        (["ratio-vs-cores", "--cores", "1", "0"], "core counts must be >= 1, got (1, 0)"),
    ],
    ids=[
        "unswept-coflows",
        "unread-density",
        "unread-coflows",
        "no-coflows",
        "repeated-coflows",
        "no-cores",
    ],
)
def test_experiment_refuses_what_it_would_not_run(tmp_path, capsys, argv, message):
    # Run, each would ignore a flag or cut a sweep to its first point, run
    # one point twice under one label, or, with no coflows or cores, fail
    # after running instances; each is refused before any file is written.
    out = tmp_path / "exp"
    out.mkdir()
    code, stdout, err = run(
        capsys, "experiment", *argv, "--instances", "2", "--out", str(out)
    )
    assert_one_json_error(code, stdout, err, message)
    assert list(out.iterdir()) == []


def test_experiment_flags_are_the_config_fields():
    # cmd_experiment drops a flag whose dest is no config field.
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in sub.choices["experiment"]._actions} - {"help", "out"}
    assert dests == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_oracle_check_ok(tmp_path, capsys):
    inst = model.Instance(
        cores=2,
        ports=2,
        coflows=(
            model.Coflow(id=1, release=0, weight=1, demands={(1, 1): 2}),
            model.Coflow(id=2, release=1, weight=3, demands={(1, 2): 1, (2, 2): 4}),
        ),
    )
    path = tmp_path / "tiny.json"
    path.write_text(model.dumps_instance(inst))
    code, out, err = run(capsys, "oracle-check", str(path))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(doc["checks"].values())
    assert doc["dual_cost_flow"] <= doc["best_cost_flow"] + 1e-9
    assert doc["dual_cost_coflow"] <= doc["best_cost_coflow"] + 1e-9
    assert doc["trivial_lower_bound"] <= doc["best_cost_flow"] + 1e-9
    assert doc["schedules_examined"] > 0


def test_oracle_check_refuses_large_instance(tmp_path, capsys):
    big = model.Instance(
        cores=1,
        ports=4,
        coflows=(model.Coflow(id=1, release=0, weight=1, demands={(1, 4): 1}),),
    )
    path = tmp_path / "big.json"
    path.write_text(model.dumps_instance(big))
    code, out, err = run(capsys, "oracle-check", str(path))
    assert code == 1
    assert "caps" in json.loads(err)["error"]


def test_oracle_check_refuses_dense_instance_inside_the_size_caps(tmp_path, capsys):
    # 4 coflows, 27 flows on 3 ports and 2 cores: 4! x 2^27 pairs at flow
    # level, refused by the cell cap before any placement is built.
    code, out, err = run(
        capsys, "generate", "--coflows", "4", "--ports", "3", "--cores", "2",
        "--seed", "2", "--density", "dense", "--out", str(tmp_path),
    )
    assert code == 0 and err == ""
    path = tmp_path / "instance.json"
    assert len(model.loads_instance(path.read_text()).table.keys) == 27
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle-check", str(path))
    assert time.perf_counter() - start < 1.0
    assert_one_json_error(code, out, err, "caps")


def test_missing_file_error_is_json(capsys):
    code, out, err = run(capsys, "order", "/nonexistent/instance.json")
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


def test_corrupt_instance_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"cores\": 1}")
    code, _, err = run(capsys, "schedule", str(bad))
    assert code == 1
    assert "missing field" in json.loads(err)["error"]


def _one_coflow_doc(**fields):
    coflow = {"id": 1, "release": 0, "weight": 1, "flows": [{"i": 1, "j": 1, "size": 2}]}
    coflow.update(fields)
    return {"cores": 1, "ports": 2, "coflows": [coflow]}


BIG_FLOWS = [{"i": 1, "j": 1, "size": 3 * 10**9}, {"i": 1, "j": 2, "size": 3 * 10**9}]


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param(_one_coflow_doc(weight="3"), "weight must be", id="weight-string"),
        pytest.param(_one_coflow_doc(weight=None), "weight must be", id="weight-null"),
        pytest.param(_one_coflow_doc(weight=True), "weight must be", id="weight-true"),
        pytest.param(_one_coflow_doc(weight=float("inf")), "weight must be", id="weight-inf"),
        pytest.param(_one_coflow_doc(weight=float("nan")), "weight must be", id="weight-nan"),
        pytest.param(_one_coflow_doc(flows=[[1, 1, 2]]), "list of objects", id="flow-arrays"),
        pytest.param([_one_coflow_doc()], "must be an object", id="top-level-list"),
        pytest.param(_one_coflow_doc(id=True), "ids must be 1..n", id="id-true"),
        pytest.param(_one_coflow_doc(flows=BIG_FLOWS), "input port 1 carries", id="in-total"),
        pytest.param(
            _one_coflow_doc(flows=[dict(f, i=f["j"], j=1) for f in BIG_FLOWS]),
            "output port 1 carries",
            id="out-total",
        ),
        pytest.param(
            _one_coflow_doc(flows=[{"i": 1, "j": 1, "size": 10**19}]),
            "above the limit",
            id="size-1e19",
        ),
        pytest.param(_one_coflow_doc(release=2**63), "time horizon", id="release-2e63"),
        pytest.param(
            _one_coflow_doc(flows=[{"i": [1], "j": 1, "size": 2}]),
            "ports must be integers",
            id="port-list",
        ),
        pytest.param(
            dict(_one_coflow_doc(), ports=10**13), "ports 10000000000000 above", id="ports-1e13"
        ),
        pytest.param(dict(_one_coflow_doc(), cores=10**6), "cores 1000000 above", id="cores-1e6"),
        pytest.param(_one_coflow_doc(weight=10**400), "weight must be", id="weight-1e400"),
        pytest.param(
            {
                "cores": 1,
                "ports": 10_000,
                "coflows": [_one_coflow_doc(id=k)["coflows"][0] for k in range(1, 101)],
            },
            "100 coflows x 10000 ports: 1010101 table cells above the limit",
            id="table-cells",
        ),
    ],
)
def test_bad_instance_exits_with_one_json_line(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert_one_json_error(*run(capsys, "schedule", str(path)), message)


@pytest.mark.parametrize(
    "line, message",
    [
        pytest.param("1 0 0 1 2:5", "1 reducers but no mappers", id="no-mappers"),
        pytest.param("1 0 1 3 1 2:inf", "megabytes must be finite", id="megabytes-inf"),
        pytest.param("1 1" + "0" * 400 + " 1 3 1 2:5", "above the limit 2**53", id="arrival-1e400"),
    ],
)
def test_bad_trace_exits_with_one_json_line(tmp_path, capsys, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(f"9 1\n{line}\n")
    assert_one_json_error(*run(capsys, "trace-import", str(path), "--ports", "3"), message)


@pytest.mark.parametrize("kappa", ["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize(
    "command",
    [["order"], ["schedule"], ["oracle-check"], ["experiment", "box", "--instances", "1"]],
    ids=["order", "schedule", "oracle-check", "experiment"],
)
def test_bad_kappa_exits_with_one_json_line(tmp_path, capsys, command, kappa):
    if command[0] == "experiment":
        argv = [*command, "--out", str(tmp_path / "exp")]
    else:
        argv = [*command, str(gen_instance(tmp_path, capsys))]
    code, out, err = run(capsys, *argv, f"--kappa={kappa}")
    assert_one_json_error(code, out, err, f"kappa must be positive and finite, got {kappa}")


def assert_one_json_error(code, out, err, message):
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert message in json.loads(lines[0])["error"]
