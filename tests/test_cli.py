"""End-to-end command-line tests: outputs, exit codes, determinism."""

import collections
import hashlib
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

from ossvqa import cli, groups, instances
from ossvqa.cli import main
from ossvqa.groups import BRUTE_FORCE_VERTEX_CAP

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCORES_224 = {
    "0010000110000100": 5, "0010000101001000": 5,
    "0010010000011000": 7, "0100000100101000": 7,
    "0010100000010100": 7, "0100001000011000": 8,
    "0100000110000010": 8, "0010100001000001": 8,
    "0010010010000001": 8, "1000000100100100": 8,
    "0001001010000100": 9, "0001001001001000": 9,
    "1000001000010100": 9, "1000000101000010": 9,
    "0100001010000001": 9, "0100100000100001": 10,
    "0100100000010010": 10, "0001010000101000": 10,
    "0001100000100100": 10, "1000001001000001": 10,
    "1000010000100001": 11, "1000010000010010": 11,
    "0001100001000010": 11, "0001010010000010": 11,
}
SCORES_133 = {
    "001010100": 5, "001100010": 6, "010001100": 6,
    "010100001": 7, "100001010": 8, "100010001": 8,
}


def write_instance(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def zero_instance(tmp_path, machines, slots, jobs):
    """An instance file of the given shape with all-zero linear weights."""
    return write_instance(tmp_path, f"i{machines}x{slots}x{jobs}.json", {
        "machines": machines, "time_slots": slots, "jobs": jobs,
        "objective": {"linear": {"weights": [[0] * jobs] * (machines * slots)}},
    })


def test_enumerate_published_tables(tmp_path):
    out = tmp_path / "rows.json"
    assert main(["enumerate", "--preset", "ossp224", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n_solutions"] == 24
    got = {row["bitstring"]: row["value"] for row in doc["solutions"]}
    assert got == SCORES_224
    optima = {row["bitstring"] for row in doc["solutions"] if row["optimal"]}
    assert optima == {"0010000110000100", "0010000101001000"}
    keys = [(row["value"], row["bitstring"]) for row in doc["solutions"]]
    assert keys == sorted(keys)

    out2 = tmp_path / "rows133.json"
    assert main(["enumerate", "--preset", "ossp133", "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert {r["bitstring"]: r["value"] for r in doc2["solutions"]} == SCORES_133
    assert doc2["optimum"] == 5.0
    assert doc2["solutions"][0]["bitstring"] == "001010100"


def test_enumerate_csv_and_stdout(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["enumerate", "--preset", "ossp133", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "bitstring,value,optimal"
    assert len(lines) == 7
    assert main(["enumerate", "--preset", "ossp133"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_solutions"] == 6


# SHA-256 of `ossvqa enumerate --preset P` on stdout and written to a .csv
# file, as the per-bit scorer with exact-equality optima printed them; the
# presets' integer weights tie exactly, so the shared tie rule prints the same
ENUMERATE_SHA256 = {
    "ossp224": ("e1c2f5747422b4b6d2d3375bc7a8ddc3eae537d5e2dbcea375c1369bc5bd6501",
                "0c474d1a61f2fbedf176a2eb1a806b9b209aed182be29a712c09e1c7636e7e85"),
    "ossp133": ("953a704936c68e0553aa908783aeee8bf0a5b442ba26ae81986601761b6c0c18",
                "3451505bb342fd325c9b35a4395bae46a7e08fb3380610e8507e4405db5f5d38"),
    "ossp133-restricted": ("953a704936c68e0553aa908783aeee8bf0a5b442ba26ae81986601761b6c0c18",
                           "3451505bb342fd325c9b35a4395bae46a7e08fb3380610e8507e4405db5f5d38"),
}


@pytest.mark.parametrize("preset", sorted(ENUMERATE_SHA256))
def test_enumerate_presets_are_byte_identical(preset, tmp_path, capsys):
    json_sha, csv_sha = ENUMERATE_SHA256[preset]
    assert main(["enumerate", "--preset", preset]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == json_sha
    out = tmp_path / "rows.csv"
    assert main(["enumerate", "--preset", preset, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha


def test_enumerate_flags_optima_by_the_oracle_tie_rule(tmp_path):
    # 0110 scores 0.0 + 0.3 = 0.3 and 1001 scores 0.1 + 0.2 =
    # 0.30000000000000004: apart by exact equality, tied within 1e-12
    doc = {"machines": 1, "time_slots": 2, "jobs": 2,
           "objective": {"linear": {"weights": [[0.1, 0.3], [0.0, 0.2]]}}}
    path = write_instance(tmp_path, "near_tie.json", doc)
    out = tmp_path / "rows.json"
    assert main(["enumerate", "--instance", path, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["solutions"]
    assert [(r["bitstring"], r["value"], r["optimal"]) for r in rows] == [
        ("0110", 0.3, True), ("1001", 0.30000000000000004, True)]
    instance, objective = instances.load_instance(path)
    assert instances.optimal_solutions(instance, objective) == (0.3, {"0110", "1001"})


def test_enumerate_infeasible_instance(tmp_path, capsys):
    path = write_instance(tmp_path, "bad.json", {
        "machines": 1, "time_slots": 1, "jobs": 2,
        "objective": {"linear": {"weights": [[0, 0]]}},
    })
    assert main(["enumerate", "--instance", path]) == 2
    assert "infeasible instance" in capsys.readouterr().err


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"machines": 1,\n  "time_slots": }')
    assert main(["enumerate", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_non_finite_weight_exits_2(tmp_path):
    doc = {"machines": 1, "time_slots": 3, "jobs": 3,
           "objective": {"linear": {"weights": [[1, 2, float("nan")], [3, 4, 5], [6, 7, 8]]}}}
    path = write_instance(tmp_path, "nan.json", doc)
    assert "NaN" in (tmp_path / "nan.json").read_text()
    assert main(["enumerate", "--instance", path]) == 2


@pytest.mark.parametrize("objective", [
    {"linear": {"weights": [[1, "heavy", 3], [4, 5, 6], [7, 8, 9]]}},
    {"linear": {"weights": [[1, 2, 3], None, [7, 8, 9]]}},
    {"linear": {"weights": 5}},
    {"tsp": {"distances": [[0, 1, 2], [1, 0, "far"], [2, "far", 0]]}},
    {"tsp": {"distances": 5}},
    {"linear": {"weights": ["123", "456", "789"]}},
    {"linear": {"weights": [["1", "2", "3"], [4, 5, 6], [7, 8, 9]]}},
    {"linear": {"weights": [[True, False, True], [4, 5, 6], [7, 8, 9]]}},
    {"tsp": {"distances": ["012", "104", "240"]}},
    {"tsp": {"distances": [[0, "1", 2], ["1", 0, 4], [2, 4, 0]]}},
    {"tsp": {"distances": [[False, True, True], [True, False, True], [True, True, False]]}},
], ids=["string-weight", "null-row", "scalar-weights", "string-distance", "scalar-distances",
        "string-rows", "numeric-string-weights", "bool-weights", "string-distance-rows",
        "numeric-string-distances", "bool-distances"])
def test_malformed_objective_exits_2(tmp_path, capsys, objective):
    path = write_instance(tmp_path, "bad.json", {
        "machines": 1, "time_slots": 3, "jobs": 3, "objective": objective,
    })
    assert main(["enumerate", "--instance", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_unreadable_documents_exit_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"machines": "\xe9"}')
    for path in (tmp_path, latin1, tmp_path / "missing.json"):
        assert main(["enumerate", "--instance", str(path)]) == 2
        assert main(["report", "--record", str(path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_an_unwritable_out_exits_2(tmp_path, capsys):
    # --out naming a directory, or a file under a missing one: exit 2 with
    # one stderr line and nothing written, for _emit and for report alike
    record = tmp_path / "run.json"
    assert main(["optimize", "--preset", "ossp133-restricted", "--seed", "0",
                 "--max-iters", "1", "--out", str(record)]) == 0
    capsys.readouterr()
    target = tmp_path / "out"
    target.mkdir()
    for out in (target, target / "missing" / "x.json"):
        for argv in (["enumerate", "--preset", "ossp133"], ["report", "--record", str(record)]):
            assert main(argv + ["--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: cannot write")
    assert list(target.iterdir()) == []


def test_report_refuses_documents_that_are_not_records(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(["optimize", "--preset", "ossp133-restricted", "--seed", "0",
                 "--max-iters", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    rowless = dict(record, histogram=[
        {k: v for k, v in row.items() if k not in ("count", "probability")}
        for row in record["histogram"]
    ])
    for name, doc in [("array", [record]), ("rowless", rowless),
                      ("null-fraction", dict(record, dominant_fraction=None))]:
        path = write_instance(tmp_path, f"{name}.json", doc)
        assert main(["report", "--record", path]) == 2, name
        assert "not a run record" in capsys.readouterr().err


def test_group_check_refuses_oversize_groups_before_building(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("group built")

    monkeypatch.setattr(cli, "PermutationGroup", refuse)
    monkeypatch.setattr(cli, "group_generators", refuse)
    monkeypatch.setattr(cli, "group_order", refuse)
    # OSSP(1,20,20): 400 bits, order 2*(20!)^2; OSSP(1,2000,1): 2000 bits,
    # order 2000!; both past the 63 bits that enumerate covers
    for slots, jobs in ((20, 20), (2000, 1)):
        path = write_instance(tmp_path, f"i{slots}x{jobs}.json", {
            "machines": 1, "time_slots": slots, "jobs": jobs,
            "objective": {"linear": {"weights": [[1] * jobs] * slots}},
        })
        assert main(["group-check", "--instance", path]) == 4
        assert "exceed the 63-bit integer range" in capsys.readouterr().err


def test_missing_inputs_and_unknown_preset(capsys):
    assert main(["enumerate"]) == 2
    assert main(["enumerate", "--preset", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown preset" in err


def test_graph_record(tmp_path):
    out = tmp_path / "graph.json"
    assert main(["graph", "--preset", "ossp133", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n_vertices"] == 9
    assert doc["edge_count"] == 18
    assert doc["job_blocks"] == [[1, 4, 7], [2, 5, 8], [3, 6, 9]]
    assert doc["position_blocks"] == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert len(doc["edges"]) == 18
    assert doc["vertices"][0] == {"index": 1, "coordinate": [1, 1, 1]}


@pytest.mark.parametrize("shape", [
    (1, 1, 1), (1, 2, 1), (1, 3, 2), (1, 3, 3), (2, 2, 4), (2, 3, 4), (3, 2, 2),
], ids=lambda s: "x".join(map(str, s)))
def test_graph_edges_match_dense_reference(tmp_path, shape):
    # reference: an adjacency matrix of bits sharing a position or a job
    inst = instances.OsspInstance(*shape)
    coords = [instances.index_to_coordinate(inst, i) for i in range(1, inst.n_bits + 1)]
    adjacency = np.array([
        [u != v and (cu[:2] == cv[:2] or cu[2] == cv[2]) for v, cv in enumerate(coords)]
        for u, cu in enumerate(coords)
    ])
    rows, cols = np.nonzero(np.triu(adjacency))
    out = tmp_path / "graph.json"
    assert main(["graph", "--instance", zero_instance(tmp_path, *shape), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["edges"] == [[a + 1, b + 1] for a, b in zip(rows.tolist(), cols.tolist())]
    assert doc["edge_count"] == len(doc["edges"]) == int(adjacency.sum()) // 2


def test_graph_of_a_large_instance_builds_no_matrix(tmp_path, run_capped):
    # OSSP(1,200,200): 40,000 bits, so a dense adjacency would take 1.5 GiB
    out = tmp_path / "graph.json"
    code, err = run_capped(["graph", "--instance", zero_instance(tmp_path, 1, 200, 200),
                            "--out", str(out)], limit_mb=1024)
    assert code == 0, err
    doc = json.loads(out.read_text())
    assert doc["n_vertices"] == 40_000 and "edges" not in doc
    assert doc["edge_count"] == 2 * 200 * (200 * 199 // 2)


def test_oversize_sector_exits_4_before_listing_patterns(tmp_path, run_capped):
    # OSSP(1,40,40) with weight 20 in block 1: C(40,20) ~ 1.4e11 patterns
    z = "1" * 20 + "0" * 20 + ("1" + "0" * 39) * 39
    code, err = run_capped(["simulate", "--instance", zero_instance(tmp_path, 1, 40, 40),
                            "--initial", z], limit_mb=1024)
    assert code == 4, err
    assert "capability exceeded" in err


@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_huge_depth_exits_4_before_allocating(command, run_capped):
    # 10^8 rounds of ossp224 would take 4 * 10^8 angle slots, gigabytes
    # as Python lists; the circuit is refused before any is listed
    code, err = run_capped([command, "--preset", "ossp224", "--depth", "100000000"],
                           limit_mb=1024)
    assert code == 4, err
    assert "capability exceeded" in err and "circuit parameters" in err


def test_group_check_instances(tmp_path):
    out = tmp_path / "gc.json"
    assert main(["group-check", "--preset", "ossp133", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["claimed_order"] == doc["generated_order"] == 72
    assert doc["transitive"] is True
    assert doc["bruteforce_match"] is True
    assert doc["block_systems"] == {"job_blocks": True, "position_blocks": True}

    path = write_instance(tmp_path, "i132.json", {
        "machines": 1, "time_slots": 3, "jobs": 2,
        "objective": {"linear": {"weights": [[1, 2], [3, 4], [5, 6]]}},
    })
    assert main(["group-check", "--instance", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["generated_order"] == 12

    assert main(["group-check", "--preset", "ossp224", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["generated_order"] == 1152
    assert doc["bruteforce_match"] is None
    assert "skipped" in doc["notice"]


def test_group_check_of_the_single_bit_instance(tmp_path):
    # no generators, so the group is the identity on the one bit, which is
    # also the one permutation the brute-force scan keeps
    out = tmp_path / "gc.json"
    assert main(["group-check", "--instance", zero_instance(tmp_path, 1, 1, 1),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["generators"] == []
    assert doc["claimed_order"] == doc["generated_order"] == 1
    assert doc["transitive"] is True and doc["bruteforce_match"] is True


@pytest.mark.parametrize("shape", [(1, 12, 1), (1, 6, 6), (2, 3, 6), (3, 3, 3), (1, 21, 3)],
                         ids=lambda s: "x".join(map(str, s)))
def test_group_check_past_the_closure_cap(tmp_path, shape):
    # each order passes the 10^6 closure cap; OSSP(1,21,3)'s, 21!*3! =
    # 306,545,653,030,256,640,000, also passes what len() can return
    out = tmp_path / "gc.json"
    assert main(["group-check", "--instance", zero_instance(tmp_path, *shape),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    want = groups.group_order(instances.OsspInstance(*shape))
    assert doc["claimed_order"] == doc["generated_order"] == want > 10**6
    assert doc["order_match"] is True and doc["transitive"] is True


def test_group_check_skips_the_scan_past_the_closure_cap(tmp_path):
    # OSSP(1,10,1): 10 bits, within the scan's reach, but 10! preservers
    out = tmp_path / "gc.json"
    assert main(["group-check", "--instance", zero_instance(tmp_path, 1, 10, 1),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["generated_order"] == math.factorial(10)
    assert doc["order_match"] is True and doc["transitive"] is True
    assert doc["bruteforce_match"] is None
    assert doc["notice"] == ("exhaustive permutation scan skipped (group order 3628800 "
                             "> cap 1000000); order and orbit checks still run")


def test_group_check_lists_no_element(tmp_path, capsys):
    # OSSP(1,8,4): 8!*4! = 967,680 elements, which a listed group holds as
    # 31 MB of rows
    path = zero_instance(tmp_path, 1, 8, 4)
    tracemalloc.start()
    try:
        assert main(["group-check", "--instance", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["generated_order"] == 967_680
    assert peak < 5 * 2**20


def test_group_check_mismatch_exits_3(monkeypatch, tmp_path):
    import ossvqa.cli as cli_mod

    monkeypatch.setattr(cli_mod, "group_order", lambda inst: 9999)
    assert main(["group-check", "--preset", "ossp133",
                 "--out", str(tmp_path / "gc.json")]) == 3


def test_reach_command(tmp_path, capsys):
    out = tmp_path / "reach.json"
    assert main(["reach", "--preset", "ossp133", "--source", "100010001",
                 "--target", "010001100", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["word"] == [2, 1]
    assert doc["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert doc["n_rotation_slots"] == 6
    assert "fidelity 1.000000" in capsys.readouterr().err

    assert main(["reach", "--preset", "ossp133", "--source", "100010001",
                 "--target", "100010001", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["word"] == []

    assert main(["reach", "--preset", "ossp133", "--source", "100010001",
                 "--target", "110000000"]) == 2

    path = write_instance(tmp_path, "i132.json", {
        "machines": 1, "time_slots": 3, "jobs": 2,
        "objective": {"linear": {"weights": [[1, 2], [3, 4], [5, 6]]}},
    })
    assert main(["reach", "--instance", path, "--source", "100010",
                 "--target", "010100"]) == 4


def test_simulate_grid_point(tmp_path):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--preset", "ossp133", "--depth", "1",
                 "--beta", "1.5707963267948966,0", "--gamma", "0",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "010100001"
    assert len(doc["histogram"]) == 1
    assert doc["histogram"][0]["probability"] == pytest.approx(1.0)
    assert doc["feasible_mass"] == pytest.approx(1.0)
    assert doc["expectation"] == pytest.approx(7.0)

    assert main(["simulate", "--preset", "ossp133", "--depth", "1",
                 "--beta", "0.5,0.5", "--shots", "400", "--seed", "1",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sum(r["count"] for r in doc["histogram"]) == 400
    assert 0.0 < doc["feasible_mass"] < 1.0

    assert main(["simulate", "--preset", "ossp133", "--depth", "1",
                 "--beta", "0.1"]) == 2  # wrong slot count
    assert main(["simulate", "--preset", "ossp133", "--beta", "oops"]) == 2


def test_negative_seeds_and_non_finite_angles_exit_2(capsys):
    simulate = ["simulate", "--preset", "ossp133", "--depth", "1"]
    assert main(simulate + ["--seed", "-1"]) == 2
    assert main(["optimize", "--preset", "ossp133-restricted", "--seed", "-1",
                 "--max-iters", "1"]) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert main(["optimize", "--preset", "ossp133-restricted", "--sgd-radius", "inf",
                 "--max-iters", "1"]) == 2
    assert main(simulate + ["--beta", "nan,0"]) == 2
    assert main(simulate + ["--gamma", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


def test_negative_shots_exit_2(capsys):
    # --shots 0, the default, is the exact readout; below it nothing is valid
    assert main(["simulate", "--preset", "ossp133", "--shots", "-1"]) == 2
    assert "shots must be nonnegative" in capsys.readouterr().err


def test_strings_past_63_bits_exit_4(tmp_path, capsys):
    def shape(slots, jobs):
        return write_instance(tmp_path, f"i{slots}x{jobs}.json", {
            "machines": 1, "time_slots": slots, "jobs": jobs,
            "objective": {"linear": {"weights": [[1] * jobs] * slots}},
        })

    assert main(["enumerate", "--instance", shape(65, 1)]) == 4
    assert main(["enumerate", "--instance", shape(64, 1)]) == 4
    busy = shape(8, 8)  # 64 bits
    z = "".join("1" if k % 9 == 0 else "0" for k in range(64))
    assert main(["reach", "--instance", busy, "--source", z, "--target", z]) == 4
    assert main(["simulate", "--instance", busy, "--initial", z]) == 4
    assert "63-bit" in capsys.readouterr().err
    out = tmp_path / "rows.json"
    assert main(["enumerate", "--instance", shape(63, 1), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n_solutions"] == 63 and doc["optimum"] == 1.0
    assert doc["solutions"][0]["bitstring"] == "0" * 62 + "1"


def test_enumerate_refuses_past_63_bits_before_building_solutions(tmp_path, monkeypatch, capsys):
    def refuse(instance):
        raise AssertionError("solution strings built")

    monkeypatch.setattr(instances, "enumerate_solutions", refuse)
    monkeypatch.setattr(cli, "enumerate_solutions", refuse)
    # OSSP(1,12,12): 144 bits and 12! = 479,001,600 solutions
    path = write_instance(tmp_path, "i12x12.json", {
        "machines": 1, "time_slots": 12, "jobs": 12,
        "objective": {"linear": {"weights": [[1] * 12] * 12}},
    })
    assert main(["enumerate", "--instance", path]) == 4
    assert "63-bit" in capsys.readouterr().err
    out = tmp_path / "rows.json"
    assert main(["enumerate", "--preset", "ossp224", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["solutions"]
    assert {r["bitstring"]: r["value"] for r in rows} == SCORES_224


def test_overflowing_phase_angle_exits_2(capsys):
    # 1e308 * f(z) overflows for every f(z) >= 2, and its phase would be NaN
    gamma = ["--gamma", "1e308,1e308,1e308"]
    assert main(["simulate", "--preset", "ossp133"] + gamma) == 2
    assert "not finite" in capsys.readouterr().err


def test_simulate_full_engine_over_cap_exits_4(tmp_path):
    # OSSP(2,3,6) has 36 bits: a full statevector would need 2^36 amplitudes
    doc = {"machines": 2, "time_slots": 3, "jobs": 6,
           "objective": {"linear": {"weights": [[1] * 6] * 6}}}
    path = write_instance(tmp_path, "big.json", doc)
    z = "".join("1" if k % 7 == 0 else "0" for k in range(36))
    assert main(["simulate", "--instance", path, "--initial", z,
                 "--engine", "full"]) == 4


def test_optimize_and_report(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(["optimize", "--preset", "ossp133-restricted", "--seed", "0",
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "mode 010001100" in err
    doc = json.loads(out.read_text())
    assert doc["mode"] == "010001100"
    assert doc["config"]["kind"] == "sgd"
    assert doc["seed"] == 0
    assert len(doc["iterations"]) == 6
    assert sum(r["count"] for r in doc["histogram"]) == 1024

    assert main(["report", "--record", str(out)]) == 0
    table = capsys.readouterr().out
    assert "bitstring" in table and "010001100" in table
    timing = table.splitlines()[-1]
    assert timing.startswith(f"timing {doc['n_evaluations']} evaluations, optimizer ")
    assert all(f"{doc['sidecar'][k]:.3f} s" in timing
               for k in ("optimizer_seconds", "readout_seconds", "oracle_seconds"))
    # records without stage timings still render, without the line
    doc["sidecar"] = {"started_at": "then", "wall_clock_seconds": 1.0}
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    assert main(["report", "--record", str(old)]) == 0
    assert "timing" not in capsys.readouterr().out

    csv_out = tmp_path / "run.csv"
    assert main(["report", "--record", str(out), "--format", "csv",
                 "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "bitstring,count,value,feasible,hamming_to_mode"
    assert len(lines) == len(doc["histogram"]) + 1


def test_optimize_flag_overrides(tmp_path):
    out = tmp_path / "run.json"
    assert main(["optimize", "--preset", "ossp133-restricted", "--seed", "3",
                 "--optimizer", "sgd", "--sgd-samples", "10",
                 "--sgd-radius", "0.5", "--max-iters", "2", "--shots", "64",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["sample_size"] == 10
    assert doc["config"]["radius"] == 0.5
    assert doc["config"]["max_iters"] == 2
    assert doc["shots"] == 64
    assert len(doc["iterations"]) == 3


def test_trust_region_budget_below_cobyla_minimum_exits_2(tmp_path, capsys):
    # ossp224 at depth 6 has 24 parameters, so COBYLA needs 26 evaluations
    out = tmp_path / "run.json"
    args = ["optimize", "--preset", "ossp224", "--seed", "0", "--out", str(out)]
    for budget in ("1", "25"):
        assert main(args + ["--max-iters", budget]) == 2
        assert "n + 2 = 26" in capsys.readouterr().err
    assert main(args + ["--max-iters", "26"]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["max_iters"] == doc["n_evaluations"] == 26


def test_optimize_byte_identical_modulo_sidecar(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["optimize", "--preset", "ossp133-restricted", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("sidecar"), db.pop("sidecar")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_scipy_optimize_is_loaded_by_cobyla_only():
    code = textwrap.dedent("""
        import sys
        import ossvqa
        from ossvqa import cli
        assert cli.main(["group-check", "--preset", "ossp133"]) == 0
        assert "scipy.optimize" not in sys.modules, "loaded before any optimiser ran"
        instance, objective, preset = ossvqa.resolve_preset("ossp133")
        config = ossvqa.OptimizerConfig(kind="tr", max_iters=5)
        rec = ossvqa.run_experiment(instance, objective, depth=1,
                                    initial_state=preset["initial_state"],
                                    config=config, shots=0)
        assert rec.n_evaluations == 5 and "scipy.optimize" in sys.modules
    """)
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_the_verify_path_stays_free_of_scipy():
    """Reach plans, group checks and enumeration import neither
    scipy.optimize nor scipy.linalg: importing scipy.optimize alone raises
    a process's peak RSS by tens of MB. The first trust_region_minimize
    call loads scipy.optimize."""
    code = textwrap.dedent("""
        import contextlib, io, sys
        import numpy as np
        import ossvqa
        from ossvqa import cli
        instance, _, _ = ossvqa.resolve_preset("ossp224")
        source, target = ossvqa.enumerate_solutions(instance)[:2]
        assert ossvqa.compile_reach(instance, source, target).fidelity > 1 - 1e-10
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["group-check", "--preset", "ossp224"]) == 0
            assert cli.main(["enumerate", "--preset", "ossp133"]) == 0
        loaded = {"scipy.optimize", "scipy.linalg"} & set(sys.modules)
        assert not loaded, f"loaded on the verify path: {sorted(loaded)}"
        from ossvqa.vqa import trust_region_minimize
        best = trust_region_minimize(lambda x: float(x @ x), np.ones(2), -2 * np.ones(2),
                                     2 * np.ones(2), max_iters=10, rhobeg=0.5, tol=1e-6)[1]
        assert best < 2.0 and "scipy.optimize" in sys.modules
    """)
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


SUBCOMMANDS = ("enumerate", "graph", "group-check", "reach", "simulate", "optimize", "report")
FUZZ_SHAPES = [(m, t, j) for m, t, j in itertools.product(range(1, 15), repeat=3) if m * t * j <= 14]


def _fuzz_argv(rng, tmp_path, k):
    """One random command line: a shape of at most 14 bits (mostly feasible),
    weights or distances up to 1e300 in magnitude, random strings, angles
    and budgets, each now and then invalid, and sometimes an --out under
    tmp_path."""
    def pick(valid, invalid):
        return str(invalid if rng.random() < 0.1 else valid)

    command = str(rng.choice(SUBCOMMANDS))
    shapes = FUZZ_SHAPES
    if command == "group-check":  # past the factorial scan; smaller shapes are swept
        shapes = [s for s in shapes if s[0] * s[1] * s[2] > BRUTE_FORCE_VERTEX_CAP]
    elif command == "reach" and rng.random() < 0.7:  # reach plans need P = J
        shapes = [s for s in shapes if s[0] * s[1] == s[2]]
    m, t, j = shapes[rng.integers(len(shapes))]
    while j > m * t and rng.random() < 0.8:
        m, t, j = shapes[rng.integers(len(shapes))]
    n = m * t * j
    scale = 10.0 ** int(rng.integers(0, 301))
    if m == 1 and t == j and rng.random() < 0.3:
        d = rng.uniform(0, scale, (j, j))
        objective = {"tsp": {"distances": (d + d.T).tolist()}}
    else:
        weights = rng.uniform(-scale, scale, (m * t, j))
        if rng.random() < 0.5:
            weights = np.round(weights)
        objective = {"linear": {"weights": weights.tolist()}}
    path = write_instance(tmp_path, f"fuzz{k}.json",
                          {"machines": m, "time_slots": t, "jobs": j, "objective": objective})

    def string():
        if j <= m * t and rng.random() < 0.8:  # a schedule: job i at position p
            bits = ["0"] * n
            for i, p in enumerate(rng.permutation(m * t)[:j].tolist()):
                bits[p * j + i] = "1"
            return "".join(bits)
        return "".join(rng.choice(["0", "1"], size=n))

    def angles(count):
        values = rng.uniform(-10, 10, count) * 10.0 ** rng.integers(0, 4, count)
        return ",".join(repr(float(v)) for v in values)

    argv = [command, "--instance", path]
    if command == "reach":
        argv += ["--source", string(), "--target", string()]
    elif command in ("simulate", "optimize"):
        depth = int(rng.integers(1, 4))
        argv += ["--initial", string(), "--depth", str(depth),
                 "--engine", str(rng.choice(["full", "subspace"])),
                 "--shots", pick(rng.choice([0, 1, 64]), -1),
                 "--seed", pick(rng.integers(1000), -1)]
        if command == "simulate" and rng.random() < 0.8:
            slots = depth * (j - 1) + int(rng.random() < 0.1)
            argv += [f"--beta={angles(slots)}", f"--gamma={angles(depth)}"]
        if command == "optimize":
            argv += ["--optimizer", str(rng.choice(["tr", "sgd"])),
                     "--max-iters", pick(rng.choice([0, depth * j + 2]), rng.integers(1, 3)),
                     "--sgd-samples", pick(rng.integers(1, 4), 0),
                     "--sgd-radius", pick(rng.uniform(0.1, 2.0), -1.0)]
    elif command == "report":  # a record, another command's output or a stray document
        records = sorted(tmp_path.glob("out*.json")) + [tmp_path / "stray.json"]
        argv = ["report", "--record", str(records[rng.integers(len(records))]),
                "--format", str(rng.choice(["table", "csv"]))]
    if rng.random() < 0.5:
        argv += ["--out", pick(tmp_path / f"out{k}{rng.choice(['.json', '.csv'])}",
                               rng.choice([tmp_path, tmp_path / "missing" / "out.json"]))]
    return argv


def clamped_beta(argv):
    """True when a --beta flag of argv holds an angle more than 1e-12
    outside [0, pi/2], the slack clamp_beta leaves without a warning."""
    return any(not -1e-12 <= float(v) <= math.pi / 2 + 1e-12 for a in argv
               if a.startswith("--beta=") for v in a[len("--beta="):].split(",") if v)


def test_seeded_cli_fuzz(tmp_path, capsys):
    # every documented exit code, never an uncaught exception, and no
    # warning but the clamp's, which a run that exits 0 gives exactly when
    # one of its angles lies outside the box
    def run(argv):
        try:
            code = main(argv)
        except Exception as exc:
            raise AssertionError(f"uncaught {type(exc).__name__} from {argv}") from exc
        capsys.readouterr()
        return code

    # group-check exits 0 on every shape of at most 8 bits
    for m, t, j in itertools.product(range(1, 9), repeat=3):
        if m * t * j <= 8 and j <= m * t:
            argv = ["group-check", "--instance", zero_instance(tmp_path, m, t, j)]
            assert run(argv) == 0, argv
    (tmp_path / "stray.json").write_text(json.dumps({"histogram": [{"bitstring": "01"}]}))
    rng = np.random.default_rng(26)
    codes, clamps = collections.Counter(), collections.Counter()
    checked_groups = 0
    for k in range(300):
        argv = _fuzz_argv(rng, tmp_path, k)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
        assert code in (0, 2, 3, 4), (code, argv)
        warned = [str(w.message) for w in caught]
        assert warned in ([], ["mixer angles outside [0, pi/2] were clamped"]), (warned, argv)
        assert clamped_beta(argv) or not warned, argv
        if code == 0:
            assert bool(warned) == clamped_beta(argv), argv
            clamps[bool(warned)] += 1
        codes[argv[0], code] += 1
        if argv[0] == "group-check":  # every feasible shape, to stdout or a JSON file
            doc = json.loads(pathlib.Path(argv[2]).read_text())
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            if doc["jobs"] <= doc["machines"] * doc["time_slots"] and (
                    out is None or pathlib.Path(out).parent == tmp_path and out.endswith(".json")):
                assert code == 0, argv
                checked_groups += 1
    # every subcommand ran to success at least once, some with a clamp
    assert {command for command, code in codes if code == 0} == set(SUBCOMMANDS)
    assert clamps[True] and clamps[False]
    assert checked_groups > 10
