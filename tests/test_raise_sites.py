"""tools/raise_sites: report.py on a hand-made trace directory, and the tracer in a child."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "survnet"


def load_report():
    spec = importlib.util.spec_from_file_location(
        "report", ROOT / "tools" / "raise_sites" / "report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_counts_the_one_traced_raise(tmp_path, capsys):
    raises = sorted((path.name, node.lineno) for path in SOURCES.glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.Raise))
    assert raises
    name, line = raises[0]
    (tmp_path / "1234.txt").write_text(f"{SOURCES / name}:{line}\n")
    report = load_report()
    assert sorted(report.raise_sites()) == raises
    assert report.main(["report.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"1 of {len(raises)} raise sites reached"
    assert lines[1:] == [f"  not reached: src/survnet/{n}:{k}" for n, k in raises[1:]]


def test_tracer_records_the_raise_a_child_reaches(tmp_path):
    grid_py = SOURCES / "grid.py"
    equidistant = next(node for node in ast.parse(grid_py.read_text(encoding="utf-8")).body
                       if isinstance(node, ast.FunctionDef) and node.name == "equidistant_grid")
    t_max_raise, m_raise = (node.lineno for node in ast.walk(equidistant)
                            if isinstance(node, ast.Raise))
    env = dict(os.environ, SURVNET_RAISE_TRACE=str(tmp_path), PYTHONPATH=os.pathsep.join(
        [str(ROOT / "tools" / "raise_sites"), str(ROOT / "src")]))
    code = ("from survnet import errors, grid\n"
            "try:\n    grid.equidistant_grid(1.0, 0)\n"
            "except errors.ValidationError:\n    pass\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    hits = load_report().hits(tmp_path)
    assert ("grid.py", m_raise) in hits
    assert ("grid.py", t_max_raise) not in hits
