import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "compare_artifacts.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CSV = "# observable=probe_population\ntime_ns,value\n0.0,1.0\n5.0,0.95\n10.0,0.9\n"
FIT = {"parameters": {"lifetime_ns": {"value": 185.0, "uncertainty": 1e-6}}, "model": "damped-sinusoid"}


def write_artifacts(directory: Path, csv: str, fit: dict) -> None:
    directory.mkdir()
    (directory / "a_trace.csv").write_text(csv)
    (directory / "a_fit.json").write_text(json.dumps(fit))
    (directory / "b_trace.csv").write_text(CSV)
    (directory / "a_manifest.json").write_text(json.dumps({"wall_time_s": len(csv)}))


def test_reports_identical_files_a_moved_cell_and_a_moved_fit_value(tmp_path):
    tool = load_tool()
    moved_fit = json.loads(json.dumps(FIT))
    moved_fit["parameters"]["lifetime_ns"]["value"] = 185.5
    write_artifacts(tmp_path / "old", CSV, FIT)
    write_artifacts(tmp_path / "new", CSV.replace("0.95", "0.96"), moved_fit)
    report = tool.compare_dirs(tmp_path / "old", tmp_path / "new")
    # manifests hold the wall time and are left out
    assert report == {
        "a_fit.json": ["$.parameters.lifetime_ns.value: 185.0 -> 185.5, abs 0.5, rel 0.0027"],
        "a_trace.csv": ["1 of 3 rows moved", "value: max abs 0.01, max rel 0.0104, 1 of 3 rows"],
        "b_trace.csv": [],
    }
    assert tool.format_report(report).splitlines()[-1] == "identical: 1 of 3 artifacts"


def test_identical_directories(tmp_path):
    tool = load_tool()
    write_artifacts(tmp_path / "old", CSV, FIT)
    write_artifacts(tmp_path / "new", CSV, FIT)
    report = tool.compare_dirs(tmp_path / "old", tmp_path / "new")
    assert report == {"a_fit.json": [], "a_trace.csv": [], "b_trace.csv": []}
    assert tool.format_report(report) == "identical: 3 of 3 artifacts"


def test_missing_artifacts_and_keys_are_named(tmp_path):
    tool = load_tool()
    write_artifacts(tmp_path / "old", CSV, FIT)
    write_artifacts(tmp_path / "new", CSV + "15.0,0.85\n", {**FIT, "derived": {"t2_ns": 1.0}})
    (tmp_path / "new" / "b_trace.csv").unlink()
    report = tool.compare_dirs(tmp_path / "old", tmp_path / "new")
    assert report["a_fit.json"] == ["$.derived.t2_ns: only in new"]
    assert report["a_trace.csv"][0].startswith("header or shape differs")
    assert report["b_trace.csv"] == ["only in old"]
