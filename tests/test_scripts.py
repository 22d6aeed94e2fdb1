"""The example scripts run end to end, in-process."""

import csv
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_two_loop_pipeline(capsys):
    runpy.run_path(str(SCRIPTS / "two_loop_pipeline.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "irreducible=True, cycle condition ok=True" in out
    assert "box dimension (snowflaked)       = 1.0000" in out
    assert "product repellor box dimension   = 2.0000" in out


def test_radius_sweep_writes_csv(tmp_path, monkeypatch, capsys):
    path = tmp_path / "sweep.csv"
    monkeypatch.setattr(sys, "argv", ["radius_sweep.py", str(path)])
    runpy.run_path(str(SCRIPTS / "radius_sweep.py"), run_name="__main__")
    assert "wrote 60 rows" in capsys.readouterr().out
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["alpha", "two_loops_d2", "two_loops_d4", "mixed_d2_d8", "two_vertex"]
    assert len(rows) == 61
    for column in range(1, 5):
        radii = [float(row[column]) for row in rows[1:]]
        assert radii == sorted(radii)  # the radius grows with alpha
