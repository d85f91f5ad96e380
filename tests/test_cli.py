import argparse
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from pandiag import cli, magic
from pandiag.lattice import build
from pandiag.magic import compose_checked
from pandiag.params import ParamVector
from pandiag.verify import verify_latin_pandiagonal

from fixtures import CUBE_SLICE_DIAG, CUBE_SLICE_K2, HYPERCUBE_SLICE


def run_cli(capsys, argv, stdin=None):
    """Run the CLI on argv with stdin as text, or as bytes decoded strictly as UTF-8."""
    if isinstance(stdin, bytes):
        cli.sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", errors="strict")
    elif stdin is not None:
        cli.sys.stdin = io.StringIO(stdin)
    try:
        code = cli.run(argv)
    finally:
        cli.sys.stdin = cli.sys.__stdin__
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grid_lines(rows):
    return "\n".join(" ".join(str(v) for v in row) for row in rows)


# generate


def test_generate_grid_square(capsys):
    code, out, err = run_cli(
        capsys, ["generate", "--order", "5", "--params", "1,2", "--format", "grid"]
    )
    assert code == 0
    assert err == ""
    expected = build(ParamVector((1, 2), 5)).values
    assert out == grid_lines(expected) + "\n"


def test_generate_cube_slice_matches_fixture(capsys):
    code, out, err = run_cli(
        capsys,
        [
            "generate", "--order", "11", "--params", "1,2,7",
            "--slice", "k=2", "--format", "grid",
        ],
    )
    assert code == 0
    assert out == grid_lines(CUBE_SLICE_K2) + "\n"


def test_generate_json_document(capsys):
    code, out, _ = run_cli(capsys, ["generate", "--order", "5", "--params", "1,2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "latin"
    assert doc["order"] == 5
    assert doc["dimension"] == 2
    assert doc["params"] == [1, 2]
    assert doc["values"] == [int(v) for v in build(ParamVector((1, 2), 5)).values.ravel()]
    # compact separators, trailing newline, keys sorted
    assert out.endswith("\n")
    assert ", " not in out
    assert out.index('"dimension"') < out.index('"kind"') < out.index('"order"')


def test_generate_check_rejects_infeasible(capsys):
    code, out, err = run_cli(
        capsys,
        ["generate", "--order", "5", "--params", "1,4", "--check"],
    )
    assert code == 1
    assert out == ""
    assert err.startswith("check failed:")
    assert "repeated symbol" in err


def test_generate_without_check_emits_infeasible(capsys):
    code, out, err = run_cli(
        capsys, ["generate", "--order", "5", "--params", "1,4", "--format", "grid"]
    )
    assert code == 0
    assert out.count("\n") == 5


def test_generate_csv_blocks(capsys):
    code, out, _ = run_cli(
        capsys,
        ["generate", "--order", "5", "--params", "1,2,3", "--format", "csv"],
    )
    assert code == 0
    blocks = out.rstrip("\n").split("\n\n")
    assert len(blocks) == 5
    values = build(ParamVector((1, 2, 3), 5)).values
    first = [row.split(",") for row in blocks[0].split("\n")]
    assert [[int(c) for c in row] for row in first] == values[0].tolist()


def test_generate_one_based_grid(capsys):
    code, out, _ = run_cli(
        capsys,
        ["generate", "--order", "5", "--params", "1,2", "--format", "grid", "--one-based"],
    )
    assert code == 0
    expected = build(ParamVector((1, 2), 5)).values + 1
    assert out == grid_lines(expected) + "\n"


def test_one_based_json_rejected(capsys):
    code, out, err = run_cli(
        capsys,
        ["generate", "--order", "5", "--params", "1,2", "--format", "json", "--one-based"],
    )
    assert code == 2
    assert "one-based" in err
    # rejected before the check or the composition runs, which would exit 1
    for argv in (
        ["generate", "--order", "11", "--params", "1,2,3", "--check", "--one-based"],
        ["magic", "--order", "5", "--params-list", "1,2;1,2", "--one-based"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:")
        assert out == ""


def test_generate_output_file(capsys, tmp_path):
    target = tmp_path / "square.json"
    code, out, _ = run_cli(
        capsys,
        ["generate", "--order", "5", "--params", "1,2", "--output", str(target)],
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["order"] == 5


def test_generate_bad_params_exit_2(capsys):
    for argv in (
        ["generate", "--order", "5", "--params", "1,2,x"],
        ["generate", "--order", "5", "--params", "0,2"],
        ["generate", "--order", "1", "--params", "1,2"],
        ["generate", "--order", "5", "--params", "1,2,3,4,5"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:")


def test_generate_order_0_is_refused_before_its_charge(capsys):
    # the memory charge divides by the order, so the order is checked first
    code, out, err = run_cli(capsys, ["generate", "--order", "0", "--params", "1,2"])
    assert (code, out, err) == (2, "", "error: order 0 outside [2, 1000]\n")


def test_generate_dim_mismatch_exit_2(capsys):
    code, _, err = run_cli(
        capsys, ["generate", "--order", "5", "--params", "1,2", "--dim", "3"]
    )
    assert code == 2
    assert "contradicts" in err


def test_generate_order_cap_and_force(capsys):
    code, _, err = run_cli(capsys, ["generate", "--order", "43", "--params", "1,2,4,9"])
    assert code == 2
    assert "--force" in err
    code, out, _ = run_cli(
        capsys,
        [
            "generate", "--order", "43", "--params", "1,2,4,9",
            "--force", "--slice", "k=0,l=0", "--format", "grid",
        ],
    )
    assert code == 0
    assert out.count("\n") == 43


FAMILY_4_101 = "1,22,28,32;1,87,92,75;1,11,48,2;1,40,54,31"
CELLS_4_101, SUB_4_101, MiB = 101**4, 101**3, 1 << 20


@pytest.mark.parametrize(
    "argv, need, fits",
    [
        # the grid and two sub-grids of codes, twice the text of 3 digits and a comma, and a run's 1 MiB
        (["generate", "--order", "101", "--params", "1,2,4,8"], 8 * (CELLS_4_101 + 2 * SUB_4_101) + 8 * CELLS_4_101 + MiB, False),
        # a slice's text: twice 3 digits and up to two terminators for its n**2 cells
        (
            ["generate", "--order", "101", "--params", "1,2,4,8", "--slice", "k=0,l=0", "--format", "grid"],
            8 * (CELLS_4_101 + 2 * SUB_4_101) + 10 * 101**2 + MiB,
            True,
        ),
        # five sub-grids for four vectors; twice the text of 9 digits and a comma
        (["magic", "--order", "101", "--params-list", FAMILY_4_101], 8 * (CELLS_4_101 + 5 * SUB_4_101) + 20 * CELLS_4_101 + MiB, False),
        # with neither test named both run, and the brute test marks each code in a byte
        (["orthogonal", "--order", "101", "--params-list", FAMILY_4_101], 8 * (CELLS_4_101 + 5 * SUB_4_101) + CELLS_4_101 + MiB, True),
        (
            ["orthogonal", "--order", "101", "--params-list", FAMILY_4_101, "--brute"],
            8 * (CELLS_4_101 + 5 * SUB_4_101) + CELLS_4_101 + MiB,
            True,
        ),
    ],
    ids=[f"argv{i}" for i in range(5)],
)
def test_force_stops_at_the_memory_budget_before_building(capsys, monkeypatch, argv, need, fits):
    def refuse(*args):
        raise AssertionError("a grid was built")

    for module in (cli, magic):
        monkeypatch.setattr(module, "build", refuse)
        monkeypatch.setattr(module, "_read_codes", refuse)
    assert (need <= cli.MEMORY_BUDGET) == fits
    monkeypatch.setattr(cli, "MEMORY_BUDGET", need)
    with pytest.raises(AssertionError, match="a grid was built"):
        cli.run(argv + ["--force"])
    capsys.readouterr()
    monkeypatch.setattr(cli, "MEMORY_BUDGET", need - 1)
    code, out, err = run_cli(capsys, argv + ["--force"])
    assert (code, out) == (2, "")
    assert err == (
        f"error: order 101 at dimension 4 needs about {need >> 20} MiB,"
        f" above the memory budget of {(need - 1) >> 20} MiB\n"
    )


def test_memory_budget_charges_text_only_for_a_full_document(capsys, monkeypatch):
    # a slice's whole charge: the grid, two sub-grids, twice 2 digits and two terminators for each
    # of its 11**2 cells and a run's 1 MiB; it leaves no room for a full document's text
    monkeypatch.setattr(cli, "MEMORY_BUDGET", cli._CELL_BYTES["codes"] * (11**4 + 2 * 11**3 + 11**2) + (1 << 20))
    argv = ["generate", "--order", "11", "--params", "1,2,4,8", "--force"]
    code, out, err = run_cli(capsys, argv + ["--slice", "k=0,l=0", "--format", "grid"])
    assert (code, err) == (0, "")
    assert out.count("\n") == 11
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "above the memory budget" in err


@pytest.mark.parametrize(
    "order, family, face",
    [(101, "1,2,4;1,2,41;1,3,22", "k=0"), (41, "1,16,38,35;1,9,24,39;1,31,38,5;1,17,36,15", "k=0,l=0")],
    ids=["d3_n101", "d4_n41"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["generate"],
        ["generate", "--format", "grid"],
        ["generate", "--slice", "{face}", "--format", "grid"],
        ["generate", "--check"],
        ["magic"],
        ["magic", "--check"],
        ["orthogonal", "--brute"],
    ],
)
def test_each_charge_bounds_its_traced_peak(monkeypatch, order, family, face, command):
    argv = [part.format(face=face) for part in command] + ["--order", str(order)]
    argv += ["--params", family.split(";")[0]] if command[0] == "generate" else ["--params-list", family]
    needs = []
    charge = cli._charge
    monkeypatch.setattr(cli, "_charge", lambda what, need: needs.append(need) or charge(what, need))
    monkeypatch.setattr(cli.sys, "stdout", type("Sink", (), {"write": lambda self, text: None})())
    tracemalloc.start()
    try:
        assert cli.run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= needs[0] <= 1.5 * peak, (peak, needs)


def test_fast_orthogonal_test_needs_no_memory_budget(capsys):
    argv = ["orthogonal", "--order", "101", "--params-list", "1,2,4,8;1,3,9,27;1,4,16,64;1,5,25,24"]
    code, out, err = run_cli(capsys, argv + ["--fast", "--force"])
    assert code in (0, 1)
    assert out.startswith("det=")
    assert "budget" not in err


def test_force_cannot_exceed_hard_cap(capsys):
    code, _, err = run_cli(
        capsys, ["generate", "--order", "103", "--params", "1,2", "--force"]
    )
    assert code == 2
    assert "hard cap" in err


def test_generate_holds_one_grid(monkeypatch):
    built, emitted, written = [], [], []
    monkeypatch.setattr(cli, "build", lambda v: built.append(build(v)) or built[-1])
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc, *rest: emitted.append(doc) or emit(doc, *rest))
    monkeypatch.setattr(cli.sys, "stdout", type("Sink", (), {"write": lambda self, text: written.append(len(text))})())
    tracemalloc.start()
    try:
        assert cli.run(["generate", "--order", "17", "--params", "1,2,4,8"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert emitted[0].values is built[0].values
    # the encoder holds two copies of the text at once, so a second grid would pass this
    assert peak < 2 * built[0].values.nbytes + written[0]


def _refuse(*args, **kwargs):
    raise AssertionError("a value was parsed")


@pytest.mark.parametrize("command", [["verify"], ["slice", "--spec", "k=0"]])
@pytest.mark.parametrize("path", ["fast path", "json.loads path", "unclosed list"])
def test_verify_and_slice_charge_a_document_before_parsing_it(capsys, monkeypatch, command, path):
    _, doc, _ = run_cli(capsys, ["generate", "--order", "11", "--params", "1,2,7"])
    within = (0, "")
    if path == "fast path":
        need = 2 * len(doc) + 8 * 11**3
    elif path == "json.loads path":  # a space after the key sends the text to json.loads whole
        doc = doc.replace('"values":[', '"values": [')
        need = 2 * len(doc) + 48 * (doc.count(",") + 1)
    else:  # charged as if it were whole, though no value is kept
        doc = doc[: len(doc) // 2]
        need = 2 * len(doc) + 8 * (doc.count(",", doc.index('"values":[')) + 1)
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(doc)
        within = (2, f"error: invalid JSON: {exc.value}\n")
    monkeypatch.setattr(cli, "MEMORY_BUDGET", need)
    code, out, err = run_cli(capsys, command, stdin=doc)
    assert (code, err) == within
    monkeypatch.setattr(cli, "MEMORY_BUDGET", need - 1)
    monkeypatch.setattr(cli, "_plain_ints", _refuse)
    monkeypatch.setattr(cli, "_plain_commas", _refuse)
    monkeypatch.setattr(cli.json, "loads", _refuse)
    code, out, err = run_cli(capsys, command, stdin=doc)
    assert (code, out) == (2, "")
    assert err == f"error: the document needs about {need >> 20} MiB, above the memory budget of 0 MiB\n"


def test_verify_unreadable_file_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"dimension":2,"order":2,"values":[0,1,1,\xff]}')
    code, out, err = run_cli(capsys, ["verify", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("command", [["verify"], ["slice", "--spec", "i=0"]])
def test_undecodable_stdin_exit_2(capsys, command):
    code, out, err = run_cli(capsys, command, stdin=b'{"dimension":2,"order":2,"values":[0,1,1,\xff]}')
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read -: ")


def test_output_into_a_missing_directory_exit_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, ["generate", "--order", "5", "--params", "1,2", "--output", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")


# verify


def test_verify_roundtrip_from_stdin(capsys):
    _, doc, _ = run_cli(capsys, ["generate", "--order", "5", "--params", "1,2"])
    code, out, err = run_cli(capsys, ["verify"], stdin=doc)
    assert code == 0
    assert out == "verified pandiagonal-latin: lines=20\n"


def test_verify_magic_document(capsys, tmp_path):
    _, doc, _ = run_cli(capsys, ["magic", "--order", "5", "--params-list", "1,2;1,3"])
    path = tmp_path / "magic.json"
    path.write_text(doc)
    code, out, err = run_cli(capsys, ["verify", str(path)])
    assert code == 0
    assert out == "verified pandiagonal-magic: sum=60, lines=20\n"


def test_verify_failure_reports_grade(capsys):
    values = [[(2 * r + 2 * c) % 5 for c in range(5)] for r in range(5)]
    doc = json.dumps(
        {"dimension": 2, "kind": "latin", "order": 5, "values": [v for row in values for v in row]}
    )
    code, out, err = run_cli(capsys, ["verify"], stdin=doc)
    assert code == 1
    assert out == ""
    assert err.startswith("verification failed (achieved: latin)")
    assert "diagonal-minus" in err


def test_verify_expect_overrides_kind(capsys):
    _, doc, _ = run_cli(capsys, ["generate", "--order", "5", "--params", "1,2"])
    code, _, err = run_cli(capsys, ["verify", "--expect", "magic-pandiagonal"], stdin=doc)
    assert code == 1
    assert "verification failed" in err
    assert "repeat" in err


def test_verify_fail_fast_stops_early(capsys):
    values = [0] * 25
    doc = json.dumps({"dimension": 2, "kind": "latin", "order": 5, "values": values})
    code, _, err = run_cli(capsys, ["verify", "--fail-fast"], stdin=doc)
    assert code == 1
    assert "repeated symbol" in err


def test_one_parser_serves_every_run(capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for _ in range(2):
        assert run_cli(capsys, ["search", "--dim", "2", "--order", "5"])[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_a_kept_parser_keeps_no_flag_between_runs(capsys):
    # (1,1) is latin but fails its diagonal-minus: only a full scan finds the rows and columns latin
    array = build(ParamVector((1, 1), 5))
    _, doc, _ = run_cli(capsys, ["generate", "--order", "5", "--params", "1,1"])
    full = verify_latin_pandiagonal(array)
    code, _, err = run_cli(capsys, ["verify", "--fail-fast"], stdin=doc)
    assert (code, err.startswith("verification failed (achieved: none): ")) == (1, True)
    code, out, err = run_cli(capsys, ["verify"], stdin=doc)
    assert full.property == "latin"
    assert (code, out, err) == (
        1, "", f"verification failed (achieved: latin): {full.first_failure.reason}\n"
    )


def test_verify_malformed_json_exit_2(capsys):
    code, _, err = run_cli(capsys, ["verify"], stdin="{not json")
    assert code == 2
    assert err.startswith("error:")


def test_verify_wrong_value_count_exit_2(capsys):
    doc = json.dumps({"dimension": 2, "kind": "latin", "order": 5, "values": [0, 1, 2]})
    code, _, err = run_cli(capsys, ["verify"], stdin=doc)
    assert code == 2


def test_verify_out_of_range_symbol_exit_2(capsys):
    doc = json.dumps({"dimension": 2, "kind": "latin", "order": 2, "values": [0, 1, 2, 3]})
    code, _, err = run_cli(capsys, ["verify"], stdin=doc)
    assert code == 2
    assert "values" in err


@pytest.mark.parametrize("big", [2**63, 9999999999999999999, 2**64 - 1, 2**64, -(2**63) - 1])
def test_verify_values_beyond_int64_exit_2(capsys, big):
    doc = json.dumps({"dimension": 2, "order": 2, "values": [0, 1, 1, big]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["verify"], stdin=doc)
    assert (code, out, err) == (2, "", "error: values must fit in 64-bit integers\n")


@pytest.mark.parametrize(
    "doc",
    [
        {"dimension": 2, "order": 2, "values": [True, False, False, True]},
        {"dimension": 2, "order": 2, "values": [1, 0, 0, True]},
        {"dimension": True, "order": 2, "values": [0, 1]},
        {"dimension": 2, "order": True, "values": [0]},
        {"dimension": 2, "order": 5, "values": list(range(5)) * 5, "params": [True, 2]},
        {"dimension": 2, "order": 5, "values": list(range(5)) * 5, "params": [[1, 2], [1, False]]},
    ],
)
def test_verify_json_booleans_exit_2(capsys, doc):
    code, out, err = run_cli(capsys, ["verify"], stdin=json.dumps(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# search


def test_search_lists_feasible_vectors(capsys):
    code, out, err = run_cli(capsys, ["search", "--dim", "2", "--order", "5"])
    assert code == 0
    assert err == "8 feasible vectors\n"
    rows = out.strip().split("\n")
    assert rows == ["1,2", "1,3", "2,1", "2,4", "3,1", "3,4", "4,2", "4,3"]


def test_search_canonical_only(capsys):
    code, out, err = run_cli(capsys, ["search", "--dim", "2", "--order", "5", "--canonical"])
    assert code == 0
    assert out.strip().split("\n") == ["1,2", "1,3"]
    assert err == "2 feasible vectors\n"


def test_search_empty_exit_1(capsys):
    code, out, err = run_cli(capsys, ["search", "--dim", "3", "--order", "9"])
    assert code == 1
    assert out == ""
    assert err == "0 feasible vectors\n"


def test_search_limit(capsys):
    code, out, err = run_cli(capsys, ["search", "--dim", "3", "--order", "11", "--limit", "4"])
    assert code == 0
    assert len(out.strip().split("\n")) == 4


@pytest.mark.parametrize("limit", ["0", "-1", "-7"])
def test_search_limit_below_one_exit_2(capsys, limit):
    code, out, err = run_cli(capsys, ["search", "--dim", "3", "--order", "11", "--limit", limit])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--limit" in err


def run_module(module, *argv):
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_python_dash_m_runs_the_cli():
    proc = run_module("pandiag", "search", "--dim", "2", "--order", "5", "--limit", "1")
    assert proc.returncode == 0
    assert proc.stdout == "1,2\n"
    assert proc.stderr == "1 feasible vectors\n"


def test_python_dash_m_cli_module_runs_the_cli():
    proc = run_module("pandiag.cli", "search", "--dim", "2", "--order", "5", "--limit", "1")
    assert proc.returncode == 0
    assert proc.stdout == "1,2\n"
    assert proc.stderr == "1 feasible vectors\n"


def test_search_caps_by_dimension(capsys):
    code, _, err = run_cli(capsys, ["search", "--dim", "4", "--order", "43"])
    assert code == 2
    assert "--force" in err


# orthogonal


def test_orthogonal_reports_both_routes(capsys):
    code, out, err = run_cli(
        capsys, ["orthogonal", "--order", "5", "--params-list", "1,2;1,3"]
    )
    assert code == 0
    assert "det=1" in out
    assert "det_mod=1" in out
    assert "fast=orthogonal" in out
    assert "brute=orthogonal" in out


def test_orthogonal_fast_only(capsys):
    code, out, _ = run_cli(
        capsys, ["orthogonal", "--order", "5", "--params-list", "1,2;1,3", "--fast"]
    )
    assert code == 0
    assert "fast=orthogonal" in out
    assert "brute" not in out


def test_orthogonal_brute_only(capsys):
    code, out, _ = run_cli(
        capsys, ["orthogonal", "--order", "5", "--params-list", "1,2;1,3", "--brute"]
    )
    assert code == 0
    assert "brute=orthogonal" in out
    assert "fast" not in out


def test_orthogonal_negative_exit_1(capsys):
    code, out, err = run_cli(
        capsys, ["orthogonal", "--order", "5", "--params-list", "1,2;2,4"]
    )
    assert code == 1
    assert "not-orthogonal" in out


def test_orthogonal_quad_family_det(capsys):
    code, out, _ = run_cli(
        capsys,
        ["orthogonal", "--order", "17", "--params-list", "1,2,4,8;1,2,4,9;1,2,8,4;1,4,9,2"],
    )
    assert code == 0
    assert "det=-8" in out
    assert "det_mod=9" in out


def test_orthogonal_infeasible_family_exit_1(capsys):
    code, out, err = run_cli(
        capsys, ["orthogonal", "--order", "5", "--params-list", "1,2;1,4"]
    )
    assert code == 1
    assert "not a pandiagonal family" in err


def test_orthogonal_wrong_row_count_exit_2(capsys):
    code, _, err = run_cli(capsys, ["orthogonal", "--order", "5", "--params-list", "1,2"])
    assert code == 2


@pytest.mark.parametrize("command", ["orthogonal", "magic"])
@pytest.mark.parametrize("family", ["1,2;1,2,3", "1,2"])
def test_malformed_family_exit_2(capsys, command, family):
    code, out, err = run_cli(capsys, [command, "--order", "5", "--params-list", family])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# magic


def test_magic_grid_output(capsys):
    code, out, _ = run_cli(
        capsys, ["magic", "--order", "5", "--params-list", "1,2;1,3", "--format", "grid"]
    )
    assert code == 0
    expected = compose_checked([ParamVector((1, 2), 5), ParamVector((1, 3), 5)]).values
    assert out == grid_lines(expected) + "\n"


def test_magic_json_params_nested(capsys):
    code, out, _ = run_cli(capsys, ["magic", "--order", "5", "--params-list", "1,2;1,3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "magic"
    assert doc["params"] == [[1, 2], [1, 3]]
    assert max(doc["values"]) == 24


def test_magic_check_passes_good_family(capsys):
    code, out, err = run_cli(
        capsys, ["magic", "--order", "5", "--params-list", "1,2;1,3", "--check"]
    )
    assert code == 0
    assert json.loads(out)["kind"] == "magic"


def test_magic_rejects_non_orthogonal(capsys):
    code, out, err = run_cli(
        capsys, ["magic", "--order", "5", "--params-list", "1,2;2,4"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("composition rejected:")
    assert "not orthogonal" in err


def test_magic_rejects_infeasible(capsys):
    code, _, err = run_cli(capsys, ["magic", "--order", "5", "--params-list", "1,4;1,2"])
    assert code == 1
    assert "infeasible" in err


def test_magic_perms_applied(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "magic", "--order", "5", "--params-list", "1,2;1,3",
            "--perms", "0,1,2,3,4;1,2,3,4,0",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    base = compose_checked(
        [ParamVector((1, 2), 5), ParamVector((1, 3), 5)],
        perms=[[0, 1, 2, 3, 4], [1, 2, 3, 4, 0]],
    )
    assert doc["values"] == [int(v) for v in base.values.ravel()]


def test_magic_bad_perm_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        ["magic", "--order", "5", "--params-list", "1,2;1,3", "--perms", "0,0,1,2,3;0,1,2,3,4"],
    )
    assert code == 2
    assert "bijection" in err


# slice


def test_slice_hypercube_fixture(capsys, tmp_path):
    _, doc, _ = run_cli(capsys, ["generate", "--order", "17", "--params", "1,2,4,9"])
    path = tmp_path / "hc.json"
    path.write_text(doc)
    code, out, _ = run_cli(capsys, ["slice", str(path), "--spec", "i=2,j+k=16"])
    assert code == 0
    assert out == grid_lines(HYPERCUBE_SLICE) + "\n"


def test_slice_json_output_is_square_document(capsys):
    _, doc, _ = run_cli(capsys, ["generate", "--order", "11", "--params", "1,2,7"])
    code, out, _ = run_cli(capsys, ["slice", "--spec", "i=j", "--format", "json"], stdin=doc)
    assert code == 0
    sliced = json.loads(out)
    assert sliced["dimension"] == 2
    assert sliced["order"] == 11
    assert "params" not in sliced
    rows = [sliced["values"][r * 11 : (r + 1) * 11] for r in range(11)]
    assert rows == [list(row) for row in CUBE_SLICE_DIAG]


def test_slice_of_magic_document(capsys):
    _, doc, _ = run_cli(
        capsys, ["magic", "--order", "11", "--params-list", "1,2,4;1,5,8;1,6,8"]
    )
    # raw value grids are fine, but the document format has no magic square kind
    code, out, _ = run_cli(capsys, ["slice", "--spec", "k=2"], stdin=doc)
    assert code == 0
    assert out.count("\n") == 11
    code, _, err = run_cli(
        capsys, ["slice", "--spec", "k=2", "--format", "json"], stdin=doc
    )
    assert code == 2
    assert "latin" in err


def test_slice_bad_spec_exit_2(capsys):
    _, doc, _ = run_cli(capsys, ["generate", "--order", "11", "--params", "1,2,7"])
    for spec in ("k=11", "i=j,k=2", "m=2", "i+j=15,k=1", "k=2,k=3", "i=i,j=1"):
        code, _, err = run_cli(capsys, ["slice", "--spec", spec], stdin=doc)
        assert code == 2, spec
        assert err.startswith("error:")
    # a tie whose target is bound: only slice_values can see it
    _, doc, _ = run_cli(capsys, ["generate", "--order", "5", "--params", "1,2,3,4"])
    code, _, err = run_cli(capsys, ["slice", "--spec", "i=j,j=2"], stdin=doc)
    assert code == 2
    assert err.startswith("error:")
    assert "tie on axis i must reference a free axis, got j" in err


def test_slice_square_document_rejected(capsys):
    _, doc, _ = run_cli(capsys, ["generate", "--order", "5", "--params", "1,2"])
    code, _, err = run_cli(capsys, ["slice", "--spec", "i=2"], stdin=doc)
    assert code == 2


# top level


def test_unknown_subcommand_exit_2(capsys):
    code, _, err = run_cli(capsys, ["frobnicate"])
    assert code == 2


def test_missing_required_argument_exit_2(capsys):
    code, _, err = run_cli(capsys, ["generate", "--params", "1,2"])
    assert code == 2
