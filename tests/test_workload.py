"""Synthetic generators and the shuffle-trace reader."""

import hashlib
import io

import pytest

from _shared import fb2010_text
from coflowsched.model import dumps_instance
from coflowsched.workload import (
    DENSITY_MODES,
    filter_min_flows,
    gen_density,
    gen_mix,
    mix_templates,
    parse_trace,
)

# --- gen_mix ----------------------------------------------------------------


def test_mix_empty():
    inst = gen_mix(0, 10, 7)
    assert inst.coflows == ()


def test_mix_deterministic():
    a = gen_mix(25, 10, 42, cores=3, release_max=40)
    b = gen_mix(25, 10, 42, cores=3, release_max=40)
    assert dumps_instance(a) == dumps_instance(b)


def test_mix_seed_changes_output():
    assert dumps_instance(gen_mix(25, 10, 1)) != dumps_instance(gen_mix(25, 10, 2))


def test_mix_rejects_tiny_port_count():
    with pytest.raises(ValueError):
        gen_mix(5, 3, 0)


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: gen_mix(-3, 10, 0), "coflow count must be >= 0", id="mix-n"),
        pytest.param(
            lambda: gen_mix(0, 10, 0, release_max=-1), "release_max must be >= 0", id="mix-rel"
        ),
        pytest.param(
            lambda: gen_density(-1, 3, "dense", 0), "coflow count must be >= 0", id="density-n"
        ),
        pytest.param(lambda: gen_density(2, 0, "sparse", 0), "ports must be >= 1", id="ports-0"),
        pytest.param(
            lambda: gen_density(0, 3, "combined", 0, release_max=-1),
            "release_max must be >= 0",
            id="density-rel",
        ),
        # Above 10,000 ports numpy's choice leaves Floyd's algorithm, which
        # gen_mix reproduces; validation would reject such instances anyway.
        pytest.param(
            lambda: gen_mix(5, 10_001, 0), "ports 10001 above the limit 10000", id="mix-ports"
        ),
        pytest.param(
            lambda: gen_mix(1, 10, 0, release_max=2**63),
            r"release_max must be below 2\*\*63",
            id="mix-rel-int64",
        ),
        pytest.param(
            lambda: gen_density(1, 3, "sparse", 0, release_max=2**63),
            r"release_max must be below 2\*\*63",
            id="density-rel-int64",
        ),
    ],
)
def test_generators_reject_bad_arguments_up_front(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_mix_coflows_are_port_grids():
    inst = gen_mix(60, 10, 11)
    for c in inst.coflows:
        ins = sorted({i for i, _ in c.demands})
        outs = sorted({j for _, j in c.demands})
        assert len(c.demands) == len(ins) * len(outs)
        assert set(c.demands) == {(i, j) for i in ins for j in outs}
        assert 1 <= len(ins) <= 10 and 1 <= len(outs) <= 10
        assert all(1 <= s <= 1000 for s in c.demands.values())
        assert 1 <= c.weight <= 100
        assert c.release == 0


def test_mix_template_frequencies():
    # Classify each coflow by its grid widths and largest flow. Width 4 is
    # shared by narrow and wide templates and size 10 by short and long, so
    # the classifier mislabels a small sliver; the 2% band absorbs it.
    counts = {(False, False): 0, (False, True): 0, (True, False): 0, (True, True): 0}
    total = 10_000
    step = 500
    for chunk in range(total // step):
        inst = gen_mix(step, 10, 9000 + chunk)
        for c in inst.coflows:
            ins = {i for i, _ in c.demands}
            outs = {j for _, j in c.demands}
            wide = max(len(ins), len(outs)) > 4
            long_flows = max(c.demands.values()) > 10
            counts[(wide, long_flows)] += 1
    expect = {
        (False, False): 0.41,
        (False, True): 0.29,
        (True, False): 0.09,
        (True, True): 0.21,
    }
    for cls, share in expect.items():
        assert abs(counts[cls] / total - share) < 0.02, (cls, counts)


def test_mix_release_spread():
    inst = gen_mix(200, 10, 5, release_max=30)
    rel = [c.release for c in inst.coflows]
    assert all(0 <= r <= 30 for r in rel)
    assert max(rel) > 0


# --- gen_density ------------------------------------------------------------


def test_density_sparse_flow_counts():
    inst = gen_density(80, 10, "sparse", 3)
    assert all(1 <= c.flow_count <= 10 for c in inst.coflows)


def test_density_dense_flow_counts():
    inst = gen_density(80, 10, "dense", 3)
    assert all(10 <= c.flow_count <= 100 for c in inst.coflows)


def test_density_combined_uses_both_ranges():
    inst = gen_density(80, 10, "combined", 3)
    counts = [c.flow_count for c in inst.coflows]
    assert any(c <= 10 for c in counts) and any(c > 10 for c in counts)
    assert all(1 <= c <= 100 for c in counts)


def test_density_sizes_and_ports_in_range():
    inst = gen_density(40, 5, "combined", 8)
    for c in inst.coflows:
        assert all(1 <= i <= 5 and 1 <= j <= 5 for i, j in c.demands)
        assert all(1 <= s <= 100 for s in c.demands.values())


def test_density_deterministic():
    a = gen_density(30, 6, "dense", 17, cores=2)
    b = gen_density(30, 6, "dense", 17, cores=2)
    assert dumps_instance(a) == dumps_instance(b)


def test_density_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        gen_density(5, 5, "chunky", 0)
    assert set(DENSITY_MODES) == {"dense", "sparse", "combined"}


# sha256 of dumps_instance, computed before the generators drew each coflow's
# sizes in one call. Equal digests mean the same random stream, byte for byte.
# The entries from "mix-4-ports" on were computed while gen_mix and
# parse_trace still drew through numpy's Generator methods one call at a time.
PINNED_BYTES = {
    "box-seeds-0-19": "92349e8fbd4fd1dd960532f8db68be39c2389aba4a8b18eedb597532870950c0",
    "mix-releases": "0082bf0b61beaa4ac071f05ead8475ba583745b95db2c0939d4bd0a2424c2acf",
    "dense": "d13db78253d8174f30a97e4a27daf363253d03694fa6865f1ff554cba8915ac1",
    "sparse": "b29e60c0bbd12334ec86dbce4152764da56e077f2d4d7fd20adefac8bde8d8ad",
    "combined": "881217a4bd644ca970de9d30fc3407995fb425c9f72e93dbf44cfee92ca22910",
    "mix-4-ports": "61e54351bb2272303a3b4eba2e00b8a169f9b805596e23027bc900814e7f4e75",
    "mix-release-2**31": "f891b22d21167edfff063fee2f533fd7fa053b88d426d5a39eeff740384f7cf4",
    "mix-release-2**32-1": "d61a028c5aa27422bf9231aa0bd6336f2828cdc43b75bd90e65972dcc1300c65",
    "mix-release-2**40": "fdc5aac17337e988e436305165fd57037da948677d3508a0b8d3401ae644b789",
    "mix-10000-ports": "84c742a0783412c646ae28c276d75468c642e99ac24aee51b812e3802cf2dd97",
    "trace-fb2010": "4c26d14e096814e5b6d5bfb8db3fbc7914842e57172f3b2bb6adc869b597fb0b",
}
RELEASE_PINS = {
    "mix-release-2**31": 2**31,
    "mix-release-2**32-1": 2**32 - 1,
    "mix-release-2**40": 2**40,
}


def _pinned_instances(name):
    if name == "box-seeds-0-19":
        return [gen_mix(25, 10, seed, cores=5) for seed in range(20)]
    if name == "mix-releases":
        return [gen_mix(40, 20, 7, cores=3, release_max=500)]
    if name == "mix-4-ports":
        # Wide templates span exactly 4 ports: their widths draw nothing.
        return [gen_mix(30, 4, seed) for seed in range(10)]
    if name in RELEASE_PINS:
        return [gen_mix(40, 20, 7, cores=3, release_max=RELEASE_PINS[name])]
    if name == "mix-10000-ports":
        return [gen_mix(4, 10_000, 1, cores=2)]
    if name == "trace-fb2010":
        return [parse_trace(fb2010_text(seed), 150, seed) for seed in range(3)]
    return [gen_density(25, 10, name, 3, cores=5, release_max=100 if name == "combined" else 0)]


@pytest.mark.parametrize("name", sorted(PINNED_BYTES))
def test_generator_bytes_are_pinned(name):
    text = "".join(dumps_instance(inst) for inst in _pinned_instances(name))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_BYTES[name]


def test_mix_templates_cover_probability_one():
    probs = [t.probability for t in mix_templates(10)]
    assert abs(sum(probs) - 1.0) < 1e-12


# --- parse_trace ------------------------------------------------------------


def trace(*coflow_lines, machines=3000):
    return "\n".join([f"{machines} {len(coflow_lines)}", *coflow_lines]) + "\n"


def test_trace_single_flow_line():
    inst = parse_trace(trace("1 0 1 5 1 7:128"), rack_count=150, weight_seed=0)
    (c,) = inst.coflows
    assert c.demands == {(5, 7): 128}
    assert c.release == 0


def test_trace_split_over_mappers_and_arrival_conversion():
    inst = parse_trace(trace("2 1000 2 1 2 1 3:100"), rack_count=150, weight_seed=0)
    (c,) = inst.coflows
    assert c.demands == {(1, 3): 50, (2, 3): 50}
    assert c.release == 128


def test_trace_rounds_share_up_to_one():
    # 1 MB over 4 mappers: each share is max(1, ceil(1/4)) = 1
    inst = parse_trace(trace("9 0 4 1 2 3 4 1 5:1"), rack_count=5, weight_seed=0)
    (c,) = inst.coflows
    assert c.demands == {(1, 5): 1, (2, 5): 1, (3, 5): 1, (4, 5): 1}


def test_trace_merges_duplicate_mapper_racks():
    inst = parse_trace(trace("3 0 2 4 4 1 2:10"), rack_count=4, weight_seed=0)
    (c,) = inst.coflows
    assert c.demands == {(4, 2): 10}


def test_trace_ids_renumbered_in_file_order():
    inst = parse_trace(
        trace("17 0 1 1 1 2:4", "4 500 1 3 1 1:6"), rack_count=3, weight_seed=0
    )
    assert [c.id for c in inst.coflows] == [1, 2]
    assert inst.coflows[1].release == 64


@pytest.mark.parametrize(
    "arrival_ms, release",
    [
        (0, 0),
        (3, 0),
        (4, 1),
        (1000, 128),
        # 880628121620217.472: in floats the product reads ...217.5 and rounds up.
        (6879907200157949, 880628121620217),
    ],
)
def test_trace_release_is_the_nearest_integer(arrival_ms, release):
    inst = parse_trace(trace(f"1 {arrival_ms} 1 1 1 2:4"), rack_count=2, weight_seed=0)
    assert inst.coflows[0].release == release


def test_trace_accepts_file_object():
    stream = io.StringIO(trace("1 0 1 1 1 2:8"))
    inst = parse_trace(stream, rack_count=2, weight_seed=5)
    assert inst.coflows[0].demands == {(1, 2): 8}


def test_trace_weights_depend_on_seed_only():
    text = trace("1 0 1 1 1 2:8", "2 0 1 2 1 1:4")
    a = parse_trace(text, rack_count=2, weight_seed=3)
    b = parse_trace(text, rack_count=2, weight_seed=3)
    c = parse_trace(text, rack_count=2, weight_seed=4)
    assert [x.weight for x in a.coflows] == [x.weight for x in b.coflows]
    assert dumps_instance(a) != dumps_instance(c)


def test_trace_volume_conservation():
    # total per reducer is within [MB, MB + mappers - 1] after ceil split
    lines = []
    reducers = {}
    for cid, (n_map, reducer_mb) in enumerate(
        [(3, {1: 97}), (5, {2: 13, 3: 501}), (2, {4: 4})], start=1
    ):
        mappers = " ".join(str(r) for r in range(1, n_map + 1))
        red = " ".join(f"{r}:{mb}" for r, mb in reducer_mb.items())
        lines.append(f"{cid} 0 {n_map} {mappers} {len(reducer_mb)} {red}")
        for r, mb in reducer_mb.items():
            reducers[(cid, r)] = (mb, n_map)
    inst = parse_trace(trace(*lines), rack_count=6, weight_seed=0)
    for c in inst.coflows:
        per_reducer: dict[int, int] = {}
        for (_, j), size in c.demands.items():
            per_reducer[j] = per_reducer.get(j, 0) + size
        for j, got in per_reducer.items():
            mb, n_map = reducers[(c.id, j)]
            assert mb <= got <= mb + n_map - 1


def test_trace_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_trace(trace("1 0 1 1 1"), rack_count=2, weight_seed=0)
    with pytest.raises(ValueError, match="line 2"):
        parse_trace(trace("1 0 1 1 1 2:zap"), rack_count=2, weight_seed=0)
    with pytest.raises(ValueError, match="line 3"):
        parse_trace(
            trace("1 0 1 1 1 2:4", "2 0 1 9 1 2:4"), rack_count=2, weight_seed=0
        )


def test_trace_rejects_bad_header_and_count_mismatch():
    with pytest.raises(ValueError, match="header"):
        parse_trace("3000\n1 0 1 1 1 2:4\n", rack_count=2, weight_seed=0)
    with pytest.raises(ValueError, match="declares"):
        parse_trace("3000 5\n1 0 1 1 1 2:4\n", rack_count=2, weight_seed=0)
    with pytest.raises(ValueError, match="empty"):
        parse_trace("", rack_count=2, weight_seed=0)


def test_trace_rejects_rack_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        parse_trace(trace("1 0 1 7 1 2:4"), rack_count=5, weight_seed=0)
    with pytest.raises(ValueError, match="out of range"):
        parse_trace(trace("1 0 1 1 1 9:4"), rack_count=5, weight_seed=0)


# --- filter_min_flows -------------------------------------------------------


def test_filter_identity_at_threshold_one():
    inst = gen_mix(12, 6, 2)
    out = filter_min_flows(inst, 1)
    assert dumps_instance(out) == dumps_instance(inst)


def test_filter_drops_and_renumbers():
    inst = parse_trace(
        trace("1 0 1 1 1 2:4", "2 0 2 1 2 2 1:6 2:6", "3 0 1 2 1 1:3"),
        rack_count=2,
        weight_seed=1,
    )
    counts = [c.flow_count for c in inst.coflows]
    assert counts == [1, 4, 1]
    out = filter_min_flows(inst, 2)
    assert [c.id for c in out.coflows] == [1]
    assert out.coflows[0].flow_count == 4
    assert out.ports == inst.ports and out.cores == inst.cores


def test_filter_monotone_in_threshold():
    inst = gen_density(30, 5, "combined", 21)
    sizes = [len(filter_min_flows(inst, t).coflows) for t in (1, 3, 6, 12, 26)]
    assert sizes == sorted(sizes, reverse=True)


def test_filter_rejects_negative():
    inst = gen_mix(2, 5, 0)
    with pytest.raises(ValueError):
        filter_min_flows(inst, -1)
