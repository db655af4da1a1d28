"""Compare the artifacts of every bundled config between two revisions.

    python3 tools/compare_artifacts.py [rev]

checks out rev (default HEAD) with ``git worktree`` into a temporary
directory, runs every bundled config of that tree and of the working tree
this script belongs to, each tree in one process into an empty directory,
and prints one line per artifact: identical; for a CSV, per moved column
the largest absolute and relative difference and the number of rows
moved; for a JSON file, each key that differs and by how much.  Manifests
record the wall time and are left out.  Only the standard library and
numpy are used, and nothing is fetched.  The exit status is 0 whatever
moved; it is 1 when a run fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# runs every bundled config of the tree whose src is argv[1] into argv[2]
_RUNNER = """
import sys
from pathlib import Path
src, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
sys.path.insert(0, str(src))
import wgqed
from wgqed import cli
assert src in Path(wgqed.__file__).resolve().parents, wgqed.__file__
for config in sorted((src / "wgqed" / "configs").glob("*.cfg")):
    if cli.main(["run", str(config), "--output", str(out / config.stem)]) != 0:
        sys.exit(f"{config.name} failed")
"""


def run_bundled(tree: Path, out: Path) -> None:
    """Every bundled config of tree run in one process into the empty directory out."""
    out.mkdir()
    subprocess.run(
        [sys.executable, "-c", _RUNNER, str(tree / "src"), str(out)],
        check=True, stdout=subprocess.DEVNULL,
    )


def _relative(old, new):
    scale = np.maximum(np.abs(old), np.abs(new))
    return np.divide(np.abs(new - old), scale, out=np.zeros(np.shape(scale)), where=scale > 0)


def _read_csv(path: Path):
    """(comment lines, header, float rows) of a CSV artifact."""
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    rows = [[float(x) for x in line.split(",")] for line in body[1:]]
    return comments, body[0].split(","), np.array(rows, dtype=float).reshape(len(rows), -1)


def compare_csv(old: Path, new: Path) -> list[str]:
    """How a CSV moved: one line per column that moved, or why its rows cannot be matched."""
    old_comments, old_header, old_rows = _read_csv(old)
    new_comments, new_header, new_rows = _read_csv(new)
    if old_header != new_header or old_rows.shape != new_rows.shape:
        return [f"header or shape differs: {old_header} {old_rows.shape} -> {new_header} {new_rows.shape}"]
    lines = [] if old_comments == new_comments else ["comment lines differ"]
    moved = ~((old_rows == new_rows) | (np.isnan(old_rows) & np.isnan(new_rows)))
    for k in np.flatnonzero(moved.any(axis=0)):
        rows = moved[:, k]
        difference = np.abs(new_rows[rows, k] - old_rows[rows, k])
        relative = _relative(old_rows[rows, k], new_rows[rows, k])
        lines.append(
            f"{new_header[k]}: max abs {difference.max():.3g}, max rel {relative.max():.3g}, "
            f"{rows.sum()} of {len(rows)} rows"
        )
    if moved.any():
        lines.insert(0, f"{moved.any(axis=1).sum()} of {len(moved)} rows moved")
    return lines


def _flatten(value, path="$"):
    """{key path: leaf} of a JSON document."""
    if isinstance(value, dict):
        return {k: v for key in value for k, v in _flatten(value[key], f"{path}.{key}").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value) for k, v in _flatten(item, f"{path}[{i}]").items()}
    return {path: value}


def compare_json(old: Path, new: Path) -> list[str]:
    """One line per key path whose value differs, or that only one side has."""
    old_leaves, new_leaves = (_flatten(json.loads(p.read_text())) for p in (old, new))
    lines = []
    for key in sorted(old_leaves.keys() | new_leaves.keys()):
        if key not in new_leaves or key not in old_leaves:
            lines.append(f"{key}: only in {'old' if key in old_leaves else 'new'}")
            continue
        a, b = old_leaves[key], new_leaves[key]
        if a == b:
            continue
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
        change = f", abs {abs(b - a):.3g}, rel {float(_relative(a, b)):.3g}" if numbers else ""
        lines.append(f"{key}: {a!r} -> {b!r}{change}")
    return lines


def compare_dirs(old: Path, new: Path) -> dict[str, list[str]]:
    """{artifact name: report lines} for every non-manifest file of either directory; [] is identical."""
    names = {p.name for d in (old, new) for p in d.iterdir() if not p.name.endswith("_manifest.json")}
    report = {}
    for name in sorted(names):
        a, b = old / name, new / name
        if not (a.exists() and b.exists()):
            report[name] = [f"only in {'old' if a.exists() else 'new'}"]
        elif a.read_bytes() == b.read_bytes():
            report[name] = []
        elif name.endswith(".csv"):
            report[name] = compare_csv(a, b) or ["bytes differ, numbers equal"]
        elif name.endswith(".json"):
            report[name] = compare_json(a, b) or ["bytes differ, values equal"]
        else:
            report[name] = ["bytes differ"]
    return report


def format_report(report: dict[str, list[str]]) -> str:
    lines = []
    for name, moved in report.items():
        if moved:
            lines.append(f"{name}:")
            lines += [f"    {line}" for line in moved]
    same = sum(not moved for moved in report.values())
    lines.append(f"identical: {same} of {len(report)} artifacts")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        tree = scratch / "tree"
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(tree), commit], check=True
        )
        try:
            run_bundled(tree, scratch / "old")
            run_bundled(ROOT, scratch / "new")
        except subprocess.CalledProcessError as err:
            print(f"a bundled run failed: {err}", file=sys.stderr)
            return 1
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True)
        print(f"working tree against {rev} ({commit[:12]})")
        print(format_report(compare_dirs(scratch / "old", scratch / "new")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
