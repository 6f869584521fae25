"""End-to-end command-line tests: outputs, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from ossvqa.cli import SEED_ENV_VAR, main

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
    assert doc["edge_count"] == doc["expected_edge_count"] == 18
    assert doc["job_blocks"] == [[1, 4, 7], [2, 5, 8], [3, 6, 9]]
    assert doc["position_blocks"] == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert len(doc["edges"]) == 18
    assert doc["vertices"][0] == {"index": 1, "coordinate": [1, 1, 1]}


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
    assert main(simulate + ["--beta", "nan,0"]) == 2
    assert main(simulate + ["--gamma", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


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


def test_optimize_byte_identical_modulo_sidecar(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["optimize", "--preset", "ossp133-restricted", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("sidecar"), db.pop("sidecar")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_seed_from_environment(tmp_path, monkeypatch):
    out = tmp_path / "run.json"
    monkeypatch.setenv(SEED_ENV_VAR, "41")
    assert main(["optimize", "--preset", "ossp133-restricted",
                 "--max-iters", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 41
    assert main(["optimize", "--preset", "ossp133-restricted", "--seed", "5",
                 "--max-iters", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 5
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    assert main(["optimize", "--preset", "ossp133-restricted",
                 "--max-iters", "1", "--out", str(out)]) == 2
    monkeypatch.setenv(SEED_ENV_VAR, "-4")
    assert main(["optimize", "--preset", "ossp133-restricted",
                 "--max-iters", "1", "--out", str(out)]) == 2


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
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
