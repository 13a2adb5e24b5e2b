import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "compare_runs.py")
spec = importlib.util.spec_from_file_location("compare_runs", SCRIPT)
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)


def make_run(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return str(root)


def test_identical_runs_exit_0(tmp_path, capsys):
    files = {"flow.dwff": b"\x01\x02", "generated/gen_0000.dwfc": b"abc"}
    a = make_run(tmp_path / "a", files)
    b = make_run(tmp_path / "b", files)
    assert compare_runs.main([a, b]) == 0
    assert capsys.readouterr().out == f"0 difference(s) over 2 file(s) in {a}\n"


def test_missing_extra_and_differing_paths_exit_1(tmp_path, capsys):
    a = make_run(tmp_path / "a", {"metrics.txt": b"x=1\n", "only_a": b"",
                                  "generated/gen_0000.dwfc": b"abc"})
    b = make_run(tmp_path / "b", {"metrics.txt": b"x=2\n", "only_b": b"",
                                  "generated/gen_0000.dwfc": b"abc"})
    assert compare_runs.main([a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["differs  metrics.txt", "missing  only_a", "extra    only_b"]
    assert lines[3].startswith("3 difference(s)")
