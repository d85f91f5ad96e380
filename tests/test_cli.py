import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pandiag import cli, magic
from pandiag.lattice import build
from pandiag.magic import compose_checked
from pandiag.params import ParamVector

from fixtures import CUBE_SLICE_DIAG, CUBE_SLICE_K2, HYPERCUBE_SLICE


def run_cli(capsys, argv, stdin=None):
    if stdin is not None:
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


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--order", "101", "--params", "1,2,4,8"],
        ["generate", "--order", "101", "--params", "1,2,4,8", "--slice", "k=0,l=0", "--format", "grid"],
        ["magic", "--order", "101", "--params-list", "1,2,4,8;1,3,9,27;1,4,16,64;1,5,25,24"],
        ["orthogonal", "--order", "101", "--params-list", "1,2,4,8;1,3,9,27;1,4,16,64;1,5,25,24"],
        ["orthogonal", "--order", "101", "--params-list", "1,2,4,8;1,3,9,27;1,4,16,64;1,5,25,24", "--brute"],
    ],
)
def test_force_stops_at_the_memory_budget_before_building(capsys, monkeypatch, argv):
    def refuse(v):
        raise AssertionError("build called")

    monkeypatch.setattr(cli, "build", refuse)
    monkeypatch.setattr(magic, "build", refuse)
    code, out, err = run_cli(capsys, argv + ["--force"])
    assert (code, out) == (2, "")
    assert err.startswith("error: order 101 at dimension 4 needs about ")
    assert err.endswith(f" MiB, above the memory budget of {cli.MEMORY_BUDGET >> 20} MiB\n")


def test_memory_budget_charges_text_only_for_a_full_document(capsys, monkeypatch):
    # two int64 grids of 11**4 cells fit in 20 bytes a cell; their text as well does not
    monkeypatch.setattr(cli, "MEMORY_BUDGET", 20 * 11**4)
    argv = ["generate", "--order", "11", "--params", "1,2,4,8", "--force"]
    code, out, err = run_cli(capsys, argv + ["--slice", "k=0,l=0", "--format", "grid"])
    assert (code, err) == (0, "")
    assert out.count("\n") == 11
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "above the memory budget" in err


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
