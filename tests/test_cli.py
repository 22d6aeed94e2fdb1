import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cxcdyn
from cxcdyn.cli import build_parser, main

TWO_LOOPS = "vertices 1\nedge 1 1 2\nedge 1 1 2\n"
ONE_LOOP = "vertices 1\nedge 1 1 2\n"


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "two_loops.g"
    path.write_text(TWO_LOOPS)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_check(capsys, graph_file):
    code, out, _ = run(capsys, ["graph", "--graph", graph_file])
    payload = json.loads(out)
    assert code == 0 and payload["ok"] and payload["levy_witness"] is None


def test_dim_conformal_reports_skew_dimension(capsys, graph_file):
    code, out, _ = run(capsys, ["dim", "--graph", graph_file, "--mode", "conformal"])
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["exponent"] - 1.0) <= 1e-9
    assert abs(payload["skew_dimension"] - 2.0) <= 1e-9


def test_dim_invalid_graph_exits_one(capsys, tmp_path):
    path = tmp_path / "one_loop.g"
    path.write_text(ONE_LOOP)
    code, out, err = run(capsys, ["dim", "--graph", str(path)])
    assert code == 1
    assert "witness" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["gdms", "boxdim", "--alpha", "1/2"],
    ["gdms", "cover", "--alpha", "1/2", "--depth", "2"],
    ["skew", "boxdim", "--alpha", "1/2"],
    ["skew", "scaling", "--alpha", "1/2"],
    ["verify", "gdms", "--alpha", "1/2"],
    ["dim"],
])
def test_edgeless_graph_exits_one(capsys, tmp_path, argv):
    path = tmp_path / "edgeless.g"
    path.write_text("vertices 1\n")
    code, out, err = run(capsys, argv + ["--graph", str(path)])
    assert code == 1 and out == ""
    assert "graph has no edges; the repellor is empty" in err


def test_graph_reports_an_edgeless_graph_as_not_admissible(capsys, tmp_path):
    path = tmp_path / "edgeless.g"
    path.write_text("vertices 1\n")
    code, out, _ = run(capsys, ["graph", "--graph", str(path)])
    payload = json.loads(out)
    assert code == 0 and payload["edges"] == 0
    assert not payload["irreducible"] and not payload["ok"]


@pytest.mark.parametrize("tol, expected", [("0", 1), ("1e-20", 0), ("-1", 1), ("nan", 1),
                                           ("inf", 1), ("1e-300", 0), ("1e-10", 0)])
def test_dim_tol_ends_within_five_seconds(tmp_path, tol, expected):
    """A tol that is not finite and positive exits 1 without an exponent; one
    below the float spacing stops once the bracket ends are adjacent floats.
    Each run is a subprocess, so a bisection that never ends fails the test."""
    path = tmp_path / "two_three.g"
    path.write_text("vertices 1\nedge 1 1 2\nedge 1 1 3\n")
    src = str(Path(cxcdyn.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-m", "cxcdyn.cli", "dim", "--graph", str(path),
                             f"--tol={tol}"], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=5)
    assert result.returncode == expected
    if expected:
        assert result.stdout == "" and "tol must be finite and positive" in result.stderr
    else:
        assert abs(json.loads(result.stdout)["exponent"] - 0.78788491104) < 1e-9


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["dim"])  # missing required --graph
    assert info.value.code == 2


def test_outputs_are_deterministic(capsys, graph_file):
    _, first, _ = run(capsys, ["pillow", "pcs", "--a", "1/8"])
    _, second, _ = run(capsys, ["pillow", "pcs", "--a", "1/8"])
    assert first == second
    _, a, _ = run(capsys, ["skew", "scaling", "--graph", graph_file,
                           "--alpha", "1/2", "--pairs", "500", "--seed", "3"])
    _, b, _ = run(capsys, ["skew", "scaling", "--graph", graph_file,
                           "--alpha", "1/2", "--pairs", "500", "--seed", "3"])
    assert a == b


def test_gdms_cover_writes_svg(capsys, graph_file, tmp_path):
    out_path = tmp_path / "cover.svg"
    code, out, _ = run(capsys, ["gdms", "cover", "--graph", graph_file,
                                "--alpha", "1/2", "--depth", "3",
                                "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().startswith("<svg")
    assert json.loads(out)["cylinders"] == 8


def test_gdms_cover_writes_csv(capsys, graph_file, tmp_path):
    out_path = tmp_path / "cover.csv"
    code, out, _ = run(capsys, ["gdms", "cover", "--graph", graph_file,
                                "--alpha", "1/2", "--depth", "2",
                                "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "word,left,right,length" and len(lines) == 5


def test_ifs_compare(capsys):
    code, out, _ = run(capsys, ["ifs", "compare", "--lambda", "1/2",
                                "--quadratic", "-2", "--n", "16"])
    payload = json.loads(out)
    assert code == 0 and payload["equal"]
    assert payload["kneading"] == "1" + "0" * 15


def test_ifs_kneading_prints_word(capsys):
    code, out, _ = run(capsys, ["ifs", "kneading", "--lambda", "1/2", "--n", "8"])
    assert code == 0 and out.strip() == "10000000"


def test_menger_member_with_oracle(capsys):
    code, out, _ = run(capsys, ["menger", "member", "--point", "1/2,1/2,0",
                                "--depth", "5"])
    payload = json.loads(out)
    assert code == 0
    assert payload["status"] == "out" and payload["level"] == 0
    assert payload["digit_oracle"]["status"] == "out"


def test_pillow_subdivide_svg(capsys, tmp_path):
    out_path = tmp_path / "tiling.svg"
    code, out, _ = run(capsys, ["pillow", "subdivide", "--a", "1/8",
                                "--depth", "2", "--out", str(out_path)])
    payload = json.loads(out)
    assert code == 0 and payload["tiles"] == 32
    body = out_path.read_text()
    assert body.count("<path") == 32


def test_pillow_obstruct(capsys):
    code, out, _ = run(capsys, ["pillow", "obstruct", "--a", "1/64"])
    payload = json.loads(out)
    assert code == 0
    assert payload["degrees"] == [2, 2] and payload["obstructed"]
    assert abs(payload["spectral_radius"] - 1.0) <= 1e-12


# `pillow obstruct` as the 64-sample continuation lifter printed it
_OBSTRUCT_STDOUT = """{
  "a": "%s",
  "degrees": [
    2,
    2
  ],
  "heights": [
    [
      "1/8"
    ],
    [
      "3/8"
    ]
  ],
  "isotopic": [
    true,
    true
  ],
  "matrix": [
    [
      1.0
    ]
  ],
  "obstructed": true,
  "spectral_radius": 1.0
}
"""


@pytest.mark.parametrize("a", ["0", "1/64", "3/40", "1/8", "5/97"])
def test_pillow_obstruct_stdout_pinned(capsys, a):
    assert run(capsys, ["pillow", "obstruct", "--a", a]) == (0, _OBSTRUCT_STDOUT % a, "")


def test_verify_dendrite(capsys):
    code, out, _ = run(capsys, ["verify", "dendrite", "--depth", "10"])
    payload = json.loads(out)
    assert code == 0 and payload["verdict"]
    assert 0.6 <= payload["fitted_epsilon"] <= 0.8


def test_dim_trace_flag(capsys, graph_file):
    code, out, _ = run(capsys, ["dim", "--graph", graph_file, "--trace"])
    payload = json.loads(out)
    assert code == 0 and len(payload["radius_trace"]) == payload["evaluations"]


def test_skew_orbit_csv(capsys, graph_file, tmp_path):
    out_path = tmp_path / "orbit.csv"
    code, out, _ = run(capsys, ["skew", "orbit", "--graph", graph_file,
                                "--alpha", "1/2", "--steps", "12",
                                "--angle", "1/3", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "step,component,coordinate,angle"
    assert len(lines) >= 10


def test_ifs_overlap_json(capsys):
    code, out, _ = run(capsys, ["ifs", "overlap", "--lambda", "1/2", "--depth", "12"])
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "plausible"
    assert abs(payload["candidate_o"][0] - 1.0) < 1e-6


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_ifs_overlap_without_close_pairs_prints_null(capsys):
    code, out, _ = run(capsys, ["ifs", "overlap", "--lambda", "1/2", "--depth", "8",
                                "--tol=0"])
    payload = _strict_json(out)
    assert code == 0 and payload["pairs"] == 0 and payload["candidate_o"] is None


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1"])
def test_ifs_overlap_rejects_a_tol_that_is_not_finite(capsys, tol):
    code, out, err = run(capsys, ["ifs", "overlap", "--lambda", "1/2", "--depth", "6",
                                  f"--tol={tol}"])
    assert code == 1 and out == ""
    assert "tol must be a finite nonnegative number" in err


@pytest.mark.parametrize("argv", [
    ["skew", "scaling", "--alpha", "1/2", "--pairs=-5"],
    ["verify", "gdms", "--alpha", "1/2", "--depth", "2", "--skew-pairs=-3"],
])
def test_negative_pair_count_exits_one(capsys, graph_file, argv):
    code, out, err = run(capsys, argv + ["--graph", graph_file])
    assert code == 1 and out == ""
    assert "pairs must be >= 0" in err


def test_zero_pairs_is_a_clean_zero(capsys, graph_file):
    code, out, _ = run(capsys, ["skew", "scaling", "--graph", graph_file, "--alpha", "1/2",
                                "--pairs", "0"])
    assert code == 0 and _strict_json(out) == {"max_deviation": 0.0, "pairs": 0}


def test_ifs_attractor_pgm(capsys, tmp_path):
    out_path = tmp_path / "cloud.pgm"
    code, _, _ = run(capsys, ["ifs", "attractor", "--lambda", "0.366,0.52",
                              "--depth", "10", "--out", str(out_path)])
    assert code == 0 and out_path.read_text().startswith("P2")


def test_menger_slice_pgm(capsys, tmp_path):
    out_path = tmp_path / "slice.pgm"
    code, _, _ = run(capsys, ["menger", "slice", "--depth", "2",
                              "--resolution", "27", "--out", str(out_path)])
    assert code == 0 and out_path.read_text().startswith("P2")


def test_pillow_invariance(capsys):
    code, out, _ = run(capsys, ["pillow", "invariance", "--a", "1/8"])
    assert code == 0 and json.loads(out)["forward_invariant"]


def test_pillow_diff(capsys):
    code, out, _ = run(capsys, ["pillow", "diff", "--a", "1/8", "--samples", "500"])
    payload = json.loads(out)
    assert code == 0
    assert payload["min_singular_value"] == 1.0 and payload["q_disjointness"]


def test_verify_pillow_faces(capsys):
    code, out, _ = run(capsys, ["verify", "pillow", "--a", "0", "--depth", "1",
                                "--resolution", "5", "--cover", "faces"])
    payload = json.loads(out)
    assert code == 0 and payload["elements_per_level"] == [2, 8]


@pytest.mark.parametrize("argv", [
    ["verify", "pillow", "--a", "0"],  # depth 6 at resolution 6 reaches single cells
    ["verify", "pillow", "--a", "1/8", "--resolution", "1", "--depth", "3"],
])
def test_verify_pillow_single_cells_exit_one(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert "single cell" in err and "resolution" in err


@pytest.mark.parametrize("argv", [
    ["ifs", "overlap", "--lambda=-0.7,0.1", "--depth", "10"],
    ["pillow", "preimages", "--a", "1/8", "--point=-1/4,1/3"],
])
def test_negative_values_joined_with_equals(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize("argv, message", [
    (["verify", "pillow", "--a", "1/8", "--resolution", "5", "--depth", "2", "--kmax=-2",
      "--out", "{out}"], "k_max must be >= 1"),
    (["verify", "pillow", "--a", "1/8", "--resolution", "5", "--depth", "2", "--kmax", "0"],
     "k_max must be >= 1"),
    (["verify", "pillow", "--a", "1/8", "--depth=-2"], "depth must be >= 0"),
    (["verify", "menger", "--depth", "1", "--kmax=-1"], "k_max must be >= 1"),
    (["verify", "menger", "--depth=-1"], "depth must be >= 0"),
    (["verify", "gdms", "--graph", "{graph}", "--alpha", "1/2", "--depth", "3", "--kmax", "0"],
     "k_max must be >= 1"),
    (["verify", "gdms", "--graph", "{graph}", "--alpha", "1/2", "--depth=-1"],
     "depth must be >= 0"),
    (["verify", "dendrite", "--depth=-3"], "depth must be >= 0"),
])
def test_verify_rejects_negative_depth_and_kmax_below_one(capsys, graph_file, tmp_path,
                                                          argv, message):
    out_path = tmp_path / "k.csv"
    argv = [arg.format(out=out_path, graph=graph_file) for arg in argv]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == "" and message in err
    assert not out_path.exists()


def test_verify_menger(capsys):
    code, out, _ = run(capsys, ["verify", "menger", "--depth", "2",
                                "--k", "2", "--n", "0"])
    payload = json.loads(out)
    assert code == 0 and payload["degree_max"] <= 4


def test_distortion_csv_deterministic(capsys, graph_file, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, ["verify", "gdms", "--graph", graph_file, "--alpha", "1/2",
                 "--depth", "4", "--seed", "7", "--out", str(first)])
    run(capsys, ["verify", "gdms", "--graph", graph_file, "--alpha", "1/2",
                 "--depth", "4", "--seed", "7", "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("argv, flag", [
    (["pillow", "preimages", "--a", "1/8"], "--point"),
    (["menger", "member", "--depth", "2"], "--point"),
    (["menger", "slice", "--depth", "1", "--resolution", "9"], "--out"),
    (["verify", "gdms", "--alpha", "1/2"], "--graph"),
    (["verify", "gdms", "--graph", "GRAPH"], "--alpha"),
    (["ifs", "attractor", "--depth", "4"], "--lambda"),
    (["ifs", "overlap", "--depth", "4"], "--lambda"),
    (["ifs", "kneading", "--n", "4"], "--lambda"),
    (["ifs", "compare", "--quadratic", "-2", "--n", "4"], "--lambda"),
    (["ifs", "reference", "--n", "4"], "--quadratic --angle"),
    (["ifs", "compare", "--lambda", "1/2", "--n", "4"], "--quadratic --angle"),
    # a value starting with '-' reads as an option unless joined with '='
    (["ifs", "overlap", "--lambda", "-0.7,0.1", "--depth", "4"], "--lambda"),
])
def test_missing_action_argument_exits_two(capsys, graph_file, argv, flag):
    argv = [graph_file if arg == "GRAPH" else arg for arg in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["pillow", "pcs", "--a", "1/0"],
    ["menger", "member", "--point", "1/0,0,0"],
    ["ifs", "attractor", "--lambda", "1/0"],
    ["ifs", "attractor", "--lambda", "1/2,3/0"],
    ["skew", "orbit", "--graph", "GRAPH", "--alpha", "1/0"],
    ["ifs", "reference", "--angle", "1/0"],
])
def test_zero_denominator_is_a_usage_error(capsys, graph_file, argv):
    argv = [graph_file if arg == "GRAPH" else arg for arg in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "zero denominator" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["pillow", "preimages", "--a", "1/8", "--point", "1/2"], "two coordinates"),
    (["pillow", "preimages", "--a", "1/8", "--point", "1/2,1/2,1/2"], "two coordinates"),
    (["menger", "member", "--point", "1/2,1/2"], "dimension"),
    (["verify", "pillow", "--resolution", "0"], "resolution"),
    (["verify", "pillow", "--resolution", "-1"], "resolution"),
    (["menger", "member", "--point", "1e400,0,0"], "too large"),
    (["menger", "slice", "--axis", "7", "--out", "OUT"], "axis"),
    (["menger", "slice", "--k", "2", "--n", "0", "--axis", "0", "--out", "OUT"], "axis"),
    (["menger", "slice", "--resolution", "0", "--out", "OUT"], "resolution"),
    (["menger", "slice", "--value", "3/2", "--out", "OUT"], "value"),
    (["menger", "check", "--points", "-1"], "points"),
    (["menger", "check", "--points", "10", "--pairs", "-1"], "pairs"),
    (["menger", "check", "--points", "10", "--factors", "3,2097152,3"], "2^20"),
    # the id predates the move of the other actions' --samples rows to
    # test_samples_outside_diff_is_a_usage_error; it is kept stable
    pytest.param(["pillow", "diff", "--a", "1/8", "--samples", "-1"], "samples",
                 id="argv16-samples"),
])
def test_malformed_point_or_grid_exits_one(capsys, tmp_path, argv, message):
    out_path = tmp_path / "unused.pgm"
    code, out, err = run(capsys, [str(out_path) if arg == "OUT" else arg for arg in argv])
    assert not out_path.exists()
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("argv", [
    ["pillow", "obstruct", "--a", "1/8", "--samples", "0"],
    ["pillow", "obstruct", "--a", "1/8", "--samples", "1"],
    ["pillow", "obstruct", "--a", "1/8", "--samples", "-2"],
    ["pillow", "invariance", "--a", "1/8", "--samples", "0"],
    ["pillow", "subdivide", "--a", "1/8", "--depth", "1", "--samples", "-3", "--out", "OUT"],
    ["pillow", "obstruct", "--a", "1/8", "--samples", "64"],
    ["pillow", "pcs", "--a", "1/8", "--samples", "5"],
    ["pillow", "preimages", "--a", "1/8", "--point", "1/4,0", "--samples", "5"],
])
def test_samples_outside_diff_is_a_usage_error(capsys, tmp_path, argv):
    """Only `pillow diff` samples; the exact actions do not declare --samples."""
    out_path = tmp_path / "unused.svg"
    with pytest.raises(SystemExit) as info:
        main([str(out_path) if arg == "OUT" else arg for arg in argv])
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == "" and "--samples" in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [["ifs", "reference"], ["ifs", "compare", "--lambda", "1/2"]])
def test_quadratic_and_angle_are_exclusive(capsys, argv):
    """Each names the reference map; both at once is a usage error, not a
    silent preference for the quadratic."""
    with pytest.raises(SystemExit) as info:
        main(argv + ["--quadratic=-2", "--angle", "1/3", "--n", "8"])
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert "--quadratic" in captured.err and "--angle" in captured.err


def _subparsers(parser):
    """Name -> parser for the parser's subcommands; empty when it has none."""
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def _action_parsers():
    """(command, action) -> the parser of that action; action is None for a
    command without actions, such as `graph`."""
    return {(command, action): parser
            for command, command_parser in _subparsers(build_parser()).items()
            for action, parser in (_subparsers(command_parser) or {None: command_parser}).items()}


def _declared(parser):
    """The long options a parser declares, --help excluded."""
    return {flag for a in parser._actions if not isinstance(a, argparse._HelpAction)
            for flag in a.option_strings}


def _minimal_argv(command, action, parser, values):
    """The action's argv with each required option, and the first option of
    each required group, set to its entry in values."""
    argv = [command] + ([action] if action else [])
    firsts = {g._group_actions[0] for g in parser._mutually_exclusive_groups if g.required}
    for a in parser._actions:
        if a.required or a in firsts:
            argv.append(f"{a.option_strings[0]}={values[a.option_strings[0]]}")
    return argv


def test_no_action_accepts_a_siblings_option(capsys, graph_file, tmp_path):
    """Every option another action of the same command reads is a usage error
    here, not silently ignored: exit 2, nothing on stdout, no --out file."""
    parsers = _action_parsers()
    assert len(parsers) == 25  # one parser per action
    out_path = tmp_path / "unused.out"
    values = {"--graph": graph_file, "--alpha": "1/2", "--lambda": "1/2", "--a": "1/8",
              "--point": "1/4,0", "--out": str(out_path), "--quadratic": "-2"}
    checked = 0
    for (command, action), parser in parsers.items():
        siblings = set().union(*(_declared(p) for (c, _), p in parsers.items() if c == command))
        argv = _minimal_argv(command, action, parser, values)
        for flag in sorted(siblings - _declared(parser)):
            with pytest.raises(SystemExit) as info:
                main(argv + [f"{flag}=1"])
            captured = capsys.readouterr()
            assert info.value.code == 2 and captured.out == "", (argv, flag)
            assert f"unrecognized arguments: {flag}=1" in captured.err, (argv, flag)
            assert not out_path.exists()
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("argv, prog", [
    (["pillow", "pcs", "--a", "1/8", "--out", "x.svg"], "cxcdyn pillow pcs"),
    (["dim", "--graph", "GRAPH", "--out", "x.svg"], "cxcdyn dim"),
], ids=["pillow pcs", "dim"])
def test_an_unread_option_is_reported_by_its_action(capsys, graph_file, argv, prog):
    """The usage line and the error name the action, not the top-level parser."""
    with pytest.raises(SystemExit) as info:
        main([graph_file if arg == "GRAPH" else arg for arg in argv])
    err = capsys.readouterr().err
    assert info.value.code == 2 and err.startswith(f"usage: {prog} ")
    assert f"{prog}: error: unrecognized arguments: --out x.svg" in err


def test_pillow_pcs_rejects_the_options_of_other_actions(capsys, tmp_path):
    out_path = tmp_path / "x.svg"
    with pytest.raises(SystemExit) as info:
        main(["pillow", "pcs", "--a", "1/8", "--depth", "7", "--seed", "3", "--point", "1/4,0",
              "--out", str(out_path)])
    assert info.value.code == 2 and capsys.readouterr().out == ""
    assert not out_path.exists()


def _tour_lines():
    """The `cxcdyn ...` lines of the README's tour block, comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split() for line in block.splitlines()
            if line.startswith("cxcdyn ")]


def test_readme_tour_parses():
    """Each tour command parses against the current parser; none is run."""
    lines = _tour_lines()
    assert len(lines) >= 18
    for line in lines:
        build_parser().parse_args(line[1:])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_outputs(line, directory):
    """Run one `cxcdyn ...` line through `main` in ``directory``, next to
    the README's `two_loops.g`: its exit code, the sha256 of its stdout and
    of its `--out` file (None without one)."""
    argv = line[1:]
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        Path("two_loops.g").write_text(TWO_LOOPS)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        return code, _sha256(stdout.getvalue().encode()), out and _sha256(Path(out).read_bytes())
    finally:
        os.chdir(cwd)


# Recorded with Python 3.11 and numpy 2.4 before the folded-cube adapter
# moved to boxes, and the two `menger check` rows with `--points 1000`
# before the homothety sampler moved to arrays, and the `ifs overlap` and
# `ifs kneading` rows before the close-pair walk grew the attractor level by
# level; a different numpy may move a last digit of a float.
GOLDEN = {
    "cxcdyn graph --graph two_loops.g":
        (0, "c8814d24b8447c01669eddbef7e2591bf2f51205bb696354dd1eea4b640fc9d2", None),
    "cxcdyn dim --graph two_loops.g --mode conformal":
        (0, "1c9463d45f3d6980a0584c4dc217aa36b1e2c2f053e6053893b1ea40a8a27a5a", None),
    "cxcdyn dim --graph two_loops.g --mode hausdorff --alpha 1/2":
        (0, "466424ac21d3b37dc16886ed6ef5deab1cd06998358b9381f91da5d91a9d4d78", None),
    "cxcdyn gdms cover --graph two_loops.g --alpha 1/2 --depth 4 --out cover.svg":
        (0, "8037e3ecf3e092311ad36cd1c2d268e229acecfeaa61890730adeb5b44e2f645",
         "38f714c76ce8dab48c829192de7ebfb1d26ba81d750a0cbda2999a117b0ee5ce"),
    "cxcdyn gdms boxdim --graph two_loops.g --alpha 1/2":
        (0, "f54863f6581601a8cfbc079ed8e68f44056b2b22481f09cdbdd5601e448ce44e", None),
    "cxcdyn skew scaling --graph two_loops.g --alpha 1/2 --pairs 10000":
        (0, "b467dc8ccba38f1fa9aa6defb4278f1bb9641d889497a785e4a0b007a68c60bc", None),
    "cxcdyn ifs attractor --lambda 0.366,0.52 --depth 16 --out cloud.pgm":
        (0, "a24648fdd6f0c9c5d5829476be89b78ac8307740aa679ff3c59e3b79e6a771ec",
         "c1be823b73c3fe9d375cfced0f860153bcf9d785bd3584147eef1ea533bc0af2"),
    "cxcdyn ifs compare --lambda 1/2 --quadratic -2 --n 16":
        (0, "f312e9dcfd735c7a80f2624446b4967a67ed1a800fd11366e097f232731c1335", None),
    "cxcdyn menger member --point 1/2,1/2,0 --depth 5":
        (0, "8be038a886ed251456f1a4b1e9f594b063acb990d78e2523cd271035d4f9eb29", None),
    "cxcdyn menger check --points 10000 --depth 5":
        (0, "df8ae5c1ef84653d0082dc7e5c69cd1f7cf291049fd843c6f52d6cb612ae89cc", None),
    "cxcdyn menger check --factors 3,27,3":
        (0, "7ae0fc42615141cfcfd4399694e25b29d809d2fca6c3de040c75e8ab80da978d", None),
    "cxcdyn menger check --factors 3,27,3 --points 1000 --pairs 2000":
        (0, "cc67f3fe7bc2031053a9d542e7b4d1f5174223e4103c6d814d8ceda41afb2959", None),
    "cxcdyn menger check --mode translate --points 1000 --pairs 5000":
        (0, "e64de28b731faccc519e3905a93e0ebb12453b63a96e9c5af2941d24716bf190", None),
    "cxcdyn pillow subdivide --a 1/8 --depth 6 --out tiling.svg":
        (0, "7856024a69ee8e1fff2f9962629f4feeb9b83fc10af4676a8a1b3454ec6e07b9",
         "36b69d095b1f8ba20cb40790fb5873df8c9e8afc4b4e109b6b58f35b5b86c939"),
    "cxcdyn pillow pcs --a 1/8":
        (0, "efdd92229e3a9f254c7b48f830ef9cf3a3afd632e99744c6bbbb166a477d9d92", None),
    "cxcdyn pillow obstruct --a 1/64":
        (0, "7c43df8c507563a072258ed0a3d596ea4e03c5b527943741555c59f12d0219b4", None),
    "cxcdyn pillow diff --a 1/8":
        (0, "b9c3187187fef5aadc8604c8ae460004e5e5899bfdd6e32099f0749ab3c0a295", None),
    "cxcdyn verify gdms --graph two_loops.g --alpha 1/2 --depth 8 --skew-pairs 10000":
        (0, "4bc42d917c81504653884e13ad53fc189387326299738bf807e3d97c4f8c2a84", None),
    "cxcdyn verify dendrite --depth 10":
        (0, "2da559690896d9a84066c4fade2d7c4bf04f833562c9913a05ba77a67e31bd32", None),
    "cxcdyn verify pillow --a 0 --depth 3 --resolution 6 --cover faces":
        (0, "22e0be19eec0b25ed83b88416efc60ca5eb76a7d03e2bba81d895faa9525c453", None),
    "cxcdyn verify menger --n 1 --k 3 --depth 2":
        (0, "a46e16dcf9aa86d1803799bb5e46f04005490dce258756c21ea1327a98515ed2", None),
    "cxcdyn ifs overlap --lambda 0.606218,0.35 --depth 18":
        (0, "e95d0548388528f82e0fd3ba2e78bd52d22c2b74d7bc5e3398625d670465435d", None),
    "cxcdyn ifs overlap --lambda 0.3,0.2 --depth 22":
        (0, "746a44a87ebf0f876092200c7e0ad98dc592fb1e8b447cdd6ec3b7053c5b01b2", None),
    "cxcdyn ifs overlap --lambda=-0.7,0.1 --depth 16":
        (0, "e7fbd03a9e275e7fa5a6907dc20337baeb07b9dfda61187ad5cb4c0797b568f3", None),
    "cxcdyn ifs kneading --lambda 1/2 --n 64 --depth 22":
        (0, "d98ba52aa905a1ae17ec5407f7a378c191ff956cfc23539e282796971af23b3a", None),
}


@pytest.mark.parametrize("line", _tour_lines() + [
    ["cxcdyn", "verify", "menger", "--n", "1", "--k", "3", "--depth", "2"],
    "cxcdyn menger check --factors 3,27,3 --points 1000 --pairs 2000".split(),
    "cxcdyn menger check --mode translate --points 1000 --pairs 5000".split(),
    "cxcdyn ifs overlap --lambda 0.606218,0.35 --depth 18".split(),
    "cxcdyn ifs overlap --lambda 0.3,0.2 --depth 22".split(),
    "cxcdyn ifs overlap --lambda=-0.7,0.1 --depth 16".split(),
    "cxcdyn ifs kneading --lambda 1/2 --n 64 --depth 22".split()], ids=" ".join)
def test_tour_outputs_are_pinned(tmp_path, line):
    """Every README tour line, a folded-cube verifier run, two folded-cube
    checks (the CI command, and the translate fold over a second sampler
    batch), and dendrite overlap and kneading runs (an overlapping, a
    disjoint and a dense parameter) print and write the same bytes as when
    the table was recorded."""
    assert golden_outputs(line, tmp_path) == GOLDEN[" ".join(line)]


@pytest.mark.parametrize("argv, unknown", [([], 122), (["--k", "5", "--n", "2"], 182),
                                            (["--depth", "7", "--seed", "3"], 464)])
def test_menger_check_counts_pinned(capsys, argv, unknown):
    """`boundary_unknown` as the point-by-point `membership` loop counted it."""
    code, out, _ = run(capsys, ["menger", "check", "--points", "3000", "--pairs", "200"] + argv)
    payload = json.loads(out)
    assert code == 0 and payload["disagreements"] == 0
    assert payload["boundary_unknown"] == unknown


def test_menger_check_outside_the_digit_oracle(capsys):
    """Factors other than all 3 have no exact oracle: `check` reports no
    disagreement count, and the sampler finishes even for steep factors."""
    code, out, _ = run(capsys, ["menger", "check", "--factors", "3,27,3",
                                "--points", "500", "--pairs", "2000"])
    payload = json.loads(out)
    assert code == 0 and payload["disagreements"] is None
    assert 0 < payload["boundary_unknown"] < 500
    assert payload["homothety_max_dev"] <= 1e-12
    assert payload["homothety_max_dev_generalized"] <= 1e-12


def _own_options(command, action, options):
    """The `--flag=value` options that the action's parser declares."""
    declared = _declared(_action_parsers()[command, action])
    return [option for option in options if option.split("=", 1)[0] in declared]


def assert_ends_cleanly(argv):
    """One invocation ends in exit 0, 1 or 2 within 5 s; its output is dropped."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    assert code in (0, 1, 2)
    assert time.perf_counter() - start < 5.0


_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=3**6).map(str)
_COORDINATE = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=3**6).map(str),
    st.sampled_from(["0", "1", "1/3", "2/3", "1e400", "-1e400", "nan", "inf", "1/0", "x", ""]))
_FACTOR = st.one_of(st.integers(3, 30), st.sampled_from([2**19, 2**20, 10**20])).map(str)
_BAD_FACTOR = st.one_of(st.integers(-2, 2).map(str),
                        st.sampled_from(["1" + "0" * 400, "3.5", "x", ""]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), action=st.sampled_from(["member", "slice", "check"]),
       k=st.sampled_from([3, 3, 3, 2, 4, 1]), n=st.sampled_from([1, 1, 0, 0, 2]),
       mode=st.sampled_from(["reflect", "translate"]), depth=st.integers(-1, 8),
       axis=st.sampled_from([2, 2, 2, 0, 1, -1, 3, 4]), resolution=st.integers(-1, 40),
       value=st.one_of(_UNIT, _UNIT, _UNIT, _COORDINATE), pairs=st.integers(-1, 300),
       points=st.integers(-1, 50))
def test_menger_cli_fuzz(data, action, k, n, mode, depth, axis, resolution, value, pairs,
                         points):
    """Every `menger` invocation ends in exit 0, 1 or 2, never in a traceback.
    Depth, resolution, points and pairs stay small, so a run over 5 s means
    an unbounded loop."""
    valid = st.lists(_FACTOR, min_size=k, max_size=k)
    factors = data.draw(st.one_of(st.none(), st.none(), valid, valid,
                                  st.lists(st.one_of(_FACTOR, _BAD_FACTOR), min_size=1,
                                           max_size=5)))
    point = data.draw(st.one_of(st.lists(_UNIT, min_size=k, max_size=k),
                                st.lists(_COORDINATE, min_size=1, max_size=5)))
    with tempfile.TemporaryDirectory() as tmp:
        options = [f"--k={k}", f"--n={n}", f"--mode={mode}", f"--depth={depth}",
                   f"--axis={axis}", f"--resolution={resolution}", f"--value={value}",
                   f"--pairs={pairs}", f"--points={points}", f"--point={','.join(point)}",
                   f"--out={os.path.join(tmp, 'slice.pgm')}"]
        if factors is not None:
            options.append(f"--factors={','.join(factors)}")
        assert_ends_cleanly(["menger", action] + _own_options("menger", action, options))


_VALID_PARAMETER = st.fractions(min_value=0, max_value=Fraction(1, 8),
                                max_denominator=1000).map(str)
_PARAMETER = st.one_of(
    _VALID_PARAMETER, _VALID_PARAMETER, _VALID_PARAMETER,
    st.fractions(min_value=-1, max_value=1, max_denominator=64).map(str),
    st.sampled_from(["0", "1/8", "0.125", "0.1", "1e-3", "1e400", "-0.0", "nan", "inf", "1/0",
                     "1/8/2", "x", ""]))
_VALID_POINT = st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=64).map(str),
                        min_size=2, max_size=2)
_PILLOW_POINT = st.one_of(
    _VALID_POINT, _VALID_POINT,
    st.lists(st.one_of(st.fractions(min_value=-2, max_value=2, max_denominator=64).map(str),
                       st.sampled_from(["0.5", "1e400", "nan", "inf", "1/0", "x", ""])),
             min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(action=st.sampled_from(["subdivide", "pcs", "obstruct", "diff", "preimages",
                               "invariance"]),
       a=_PARAMETER, depth=st.integers(0, 2),
       samples=st.one_of(st.none(), st.integers(1, 64), st.integers(-3, 64)),
       point=st.one_of(st.none(), _PILLOW_POINT))
def test_pillow_cli_fuzz(action, a, depth, samples, point):
    """Every `pillow` invocation ends in exit 0, 1 or 2, never in a traceback.
    Depth and samples stay small, so a run over 5 s means an unbounded loop."""
    with tempfile.TemporaryDirectory() as tmp:
        options = [f"--a={a}", f"--depth={depth}", f"--out={os.path.join(tmp, 'tiling.svg')}"]
        if samples is not None:
            options.append(f"--samples={samples}")
        if point is not None:
            options.append(f"--point={','.join(point)}")
        assert_ends_cleanly(["pillow", action] + _own_options("pillow", action, options))


_DEGREE = st.one_of(st.integers(2, 5), st.integers(2, 5), st.integers(1, 5),
                    st.sampled_from([2**62, 10**30, 10**400])).map(str)
_MALFORMED_LINE = st.one_of(
    st.builds(lambda c: f"vertices {c}", st.sampled_from(["0", "-1", "3.5", "x", "", "1 2"])),
    st.lists(st.one_of(st.integers(0, 6).map(str), _DEGREE,
                       st.sampled_from(["-1", "2.0", "x", "", "1e3", "\uff11"])), max_size=5)
    .map(lambda fields: " ".join(["edge"] + fields)),
    st.sampled_from(["", "# a comment", "   ", "edge", "vertex 2", "\t# tab", "nodes 3"]))


@st.composite
def _graph_texts(draw):
    """A graph file on 1-5 vertices: in-range edges, in half the draws mixed
    with malformed lines."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(1, n).map(str)
    edge = st.builds(lambda s, d, w, note: f"edge {s} {d} {w}{note}", vertex, vertex, _DEGREE,
                     st.sampled_from(["", "", "  # trailing"]))
    header = draw(st.sampled_from([f"vertices {n}", f"vertices {n}", f"# a graph\nvertices {n}",
                                   f"vertices {n}  # trailing", ""]))
    lines = draw(st.lists(st.one_of(edge, edge, edge, _MALFORMED_LINE) if draw(st.booleans())
                          else edge, max_size=6))
    if draw(st.booleans()):
        # a ring through every vertex plus one more edge out of each: often a valid graph
        lines = [f"edge {v} {v % n + 1} {draw(_DEGREE)}" for v in range(1, n + 1)] + [
            f"edge {v} {draw(vertex)} {draw(_DEGREE)}" for v in range(1, n + 1)] + lines
    return "\n".join([header] + lines)


_GRAPH_COMMANDS = [
    ["graph"],
    ["dim"],
    ["dim", "--mode", "hausdorff", "--alpha", "1/2"],
    ["gdms", "boxdim", "--alpha", "1/2"],
    ["skew", "scaling", "--alpha", "1/2", "--pairs", "10"],
    ["verify", "gdms", "--alpha", "1/2", "--depth", "2"],
]


@settings(max_examples=40, deadline=None)
@given(text=_graph_texts(),
       junk=st.one_of(st.just(b""), st.just(b""), st.binary(min_size=1, max_size=6),
                      st.sampled_from([b"\xff\xfe", b"\x80", b"\xc3\x28", b"\x00"])))
def test_graph_file_cli_fuzz(text, junk):
    """Every command that reads a graph file ends in exit 0, 1 or 2 on
    well-formed and malformed files alike, non-UTF-8 bytes included.
    Vertex counts stay at most 5, so a run over 5 s means an unbounded loop."""
    text = text.encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.g")
        with open(path, "wb") as handle:
            handle.write(text[:len(text) // 2] + junk + text[len(text) // 2:])
        for argv in _GRAPH_COMMANDS:
            assert_ends_cleanly(argv + ["--graph", path])
