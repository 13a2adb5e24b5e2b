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
    assert lines[:4] == ["differs  metrics.txt", "    x: 1 -> 2", "missing  only_a",
                         "extra    only_b"]
    assert lines[4].startswith("3 difference(s)")


def test_differing_metrics_list_each_moved_key(tmp_path, capsys):
    # Keys in file order, then those only in B; equal values are not listed.
    a = make_run(tmp_path / "a", {"metrics.txt": b"acc=0.70\niou=0.5\nold=1\n",
                                  "sub/metrics.txt": b"x=1\n",
                                  "other.txt": b"acc=0.70\n"})
    b = make_run(tmp_path / "b", {"metrics.txt": b"acc=0.71\niou=0.5\nnew=2\n",
                                  "sub/metrics.txt": b"no pairs\n",
                                  "other.txt": b"acc=0.71\n"})
    assert compare_runs.main([a, b]) == 1
    assert capsys.readouterr().out.splitlines()[:6] == [
        "differs  metrics.txt", "    acc: 0.70 -> 0.71", "    old: 1 -> -",
        "    new: - -> 2", "differs  other.txt", "differs  sub/metrics.txt"]
