import importlib.util
import json
import os

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_file.py")
spec = importlib.util.spec_from_file_location("bench_file", SCRIPT)
bench_file = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_file)


def result_file(path, workload, fit_s, sha):
    data = {"env": {"workload": workload, "seed": 7, "git_sha": sha, "nproc": 2},
            "errors": [],
            "result": {"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {"fit_s": {"value": fit_s, "unit": "s"}}},
            "repetitions": []}
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path), data


def test_bundle_keeps_files_unmodified_and_summarises(tmp_path):
    (tmp_path / "p").mkdir()
    (tmp_path / "c").mkdir()
    p, p_data = result_file(tmp_path / "p" / "iris-seed7-trace0.json", "iris", 4.0, "aaa")
    c, c_data = result_file(tmp_path / "c" / "iris-seed7-trace0.json", "iris", 3.0, "bbb")
    out = tmp_path / "BENCH_x.json"
    assert bench_file.main(["x", "--parent", p, "--change", c, "--out", str(out)]) == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    assert got["label"] == "x"
    assert got["parent"] == {"iris-seed7-trace0.json": p_data}
    assert got["change"] == {"iris-seed7-trace0.json": c_data}
    assert got["summary"] == {"iris": {"fit_s": {"unit": "s", "parent": 4.0,
                                                 "change": 3.0, "relative": -0.25}}}
