"""The document writer, renderer and reader against reference code.

The reference writer is json.dumps of the int list and the reference
renderer a string join per row; the reference reader is the json.loads
path of document_from_json with its fast path switched off.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pandiag import cli
from pandiag.lattice import SliceSpec, Tie, build, slice_values
from pandiag.magic import compose_checked
from pandiag.params import ParamVector

SETTINGS = settings(max_examples=150, deadline=None, database=None)


def reference_json(doc):
    payload = {
        "dimension": doc.dimension,
        "order": doc.order,
        "kind": doc.kind,
        "values": [int(x) for x in doc.values.ravel()],
    }
    if doc.params is not None:
        payload["params"] = list(doc.params[0]) if doc.kind == "latin" else [list(v) for v in doc.params]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def reference_blocks(values, sep, offset=0):
    n = values.shape[0]
    blocks = [
        "\n".join(sep.join(str(int(x) + offset) for x in row) for row in block)
        for block in values.reshape(-1, n, n)
    ]
    return "\n\n".join(blocks) + "\n"


def assert_same_text(doc):
    assert cli.document_to_json(doc) == reference_json(doc)
    for sep in (" ", ","):
        for offset in (0, 1):
            assert cli.render_blocks(doc.values, sep, offset) == reference_blocks(doc.values, sep, offset)


LATIN = [
    ((1, 1), 2),
    ((1, 2), 5),
    ((3, 7), 10),
    ((1, 2), 101),
    ((1, 2, 1), 3),
    ((1, 2, 7), 11),
    ((1, 2, 4), 101),
    ((1, 1, 1, 1), 2),
    ((1, 2, 4, 8), 17),
]


@pytest.mark.parametrize("alphas,n", LATIN)
def test_latin_documents_match_reference(alphas, n):
    v = ParamVector(alphas, n)
    assert_same_text(cli.ArrayDocument(v.dimension, n, build(v).values, "latin", (alphas,)))
    assert_same_text(cli.ArrayDocument(v.dimension, n, build(v).values, "latin"))


# (d, n): single-digit values up to five-digit ones, and from uint8 to uint32 temporaries
@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 101), (3, 4), (3, 41), (4, 3), (4, 11), (4, 17)])
def test_magic_documents_match_reference(d, n):
    rng = np.random.default_rng(n * 10 + d)
    values = rng.permutation(n**d).reshape((n,) * d)
    params = tuple(tuple(int(a) for a in rng.integers(1, n, d)) for _ in range(d))
    doc = cli.ArrayDocument(d, n, values, "magic", params)
    assert {int(values.min()), int(values.max())} == {0, n**d - 1}
    assert_same_text(doc)


@pytest.mark.parametrize(
    "alphas,n,spec",
    [
        ((1, 2, 4), 11, SliceSpec(0, 1, {2: 3})),
        ((1, 2, 4), 101, SliceSpec(1, 2, {0: Tie(2, anti=True)})),
        ((1, 2, 4, 8), 17, SliceSpec(0, 3, {1: Tie(0), 2: 16})),
    ],
)
def test_slices_match_reference(alphas, n, spec):
    grid = slice_values(build(ParamVector(alphas, n)).values, spec)
    assert_same_text(cli.ArrayDocument(2, n, grid, "latin"))


@pytest.mark.parametrize("offset", [0, 1])
def test_render_blocks_up_to_the_int64_top(offset):
    top = 2**63 - 1 - offset
    values = np.array([[0, 9, 10], [99, 10**17, 10**18 - 1], [10**18, top - 1, top]])
    for sep in (" ", ","):
        assert cli.render_blocks(values, sep, offset) == reference_blocks(values, sep, offset)


def test_cli_one_based_grid_and_csv_match_reference(capsys):
    latin = build(ParamVector((1, 2, 7), 11)).values
    magic = compose_checked([ParamVector((1, 2), 5), ParamVector((1, 3), 5)]).values
    for fmt, sep in (("grid", " "), ("csv", ",")):
        assert cli.run(["generate", "--order", "11", "--params", "1,2,7", "--format", fmt, "--one-based"]) == 0
        assert capsys.readouterr().out == reference_blocks(latin, sep, 1)
        assert cli.run(["magic", "--order", "5", "--params-list", "1,2;1,3", "--format", fmt, "--one-based"]) == 0
        assert capsys.readouterr().out == reference_blocks(magic, sep, 1)


def encoder_paths(call):
    """call's result and the paths its encodes took: "table" when it wrote the digits of fewer values than cells."""
    sizes = []
    write = cli._write_digits
    with mock.patch.object(cli, "_write_digits", lambda v, out: sizes.append(v.size) or write(v, out)):
        with mock.patch.object(cli, "_encode", wraps=cli._encode) as encode:
            got = call()
    cells = [call_args.args[0].size for call_args in encode.call_args_list]
    return got, ["table" if written < size else "loop" for written, size in zip(sizes, cells)]


TOPS = [0, 9, 10, 99, 100, 101]


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("top", TOPS)
def test_encode_matches_reference_on_both_paths(top, offset, block):
    """A list body of 2 * (top + 1) cells (the table) or one fewer (the loop)."""
    if top < offset:
        return
    rng = np.random.default_rng(top * 2 + offset)
    with mock.patch.object(cli, "_PACK_BLOCK", block):
        for cells, path in ((2 * (top + 1), "table"), (2 * (top + 1) - 1, "loop")):
            flat = rng.integers(0, top - offset + 1, cells)
            flat[rng.integers(cells)] = top - offset
            flat.flags.writeable = False
            got, paths = encoder_paths(lambda: cli._encode(flat, ",", 0, offset))
            assert paths == [path]
            assert got == json.dumps((flat + offset).tolist(), separators=(",", ":"))[1:-1]


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("top", TOPS)
def test_render_blocks_matches_reference_on_both_paths(top, offset):
    """Grids whose top + 1 lies either side of half their cells, with rows of n and blocks of n * n."""
    if top < offset:
        return
    rng = np.random.default_rng(top * 2 + offset)
    seen = set()
    for shape in ((2, 2), (3, 3), (7, 7), (10, 10), (15, 15), (2, 2, 2), (4, 4, 4), (5, 5, 5), (3, 3, 3, 3)):
        values = rng.integers(0, top - offset + 1, shape)
        values.flat[rng.integers(values.size)] = top - offset
        for sep in (" ", ","):
            got, paths = encoder_paths(lambda: cli.render_blocks(values, sep, offset))
            assert got == reference_blocks(values, sep, offset)
        seen.add(paths[0])
        assert paths == ["table" if 2 * (top + 1) <= values.size else "loop"]
    # a grid of zeros always has half its cells or more to spare
    assert seen == ({"table", "loop"} if top else {"table"})


def test_text_across_pack_blocks_matches_reference():
    """A d=3 n=101 document and grid, megabytes of text over many blocks."""
    v = ParamVector((1, 2, 4), 101)
    doc = cli.ArrayDocument(3, 101, build(v).values, "latin", (v.alphas,))
    for block in (1 << 16, 12345):
        with mock.patch.object(cli, "_PACK_BLOCK", block):
            (text, grid), paths = encoder_paths(
                lambda: (cli.document_to_json(doc), cli.render_blocks(doc.values, " ", 1))
            )
        assert paths == ["table", "table"]
        assert len(text) > 8 * block
        assert text == reference_json(doc)
        assert grid == reference_blocks(doc.values, " ", 1)


def test_magic_documents_stay_on_the_loop_path():
    values = compose_checked([ParamVector((1, 2), 5), ParamVector((1, 3), 5)]).values
    for offset in (0, 1):
        got, paths = encoder_paths(lambda: cli.render_blocks(values, ",", offset))
        assert paths == ["loop"]
        assert got == reference_blocks(values, ",", offset)


def test_magic_document_encode_peak():
    family = [ParamVector(alphas, 101) for alphas in ((1, 2, 4), (1, 2, 5), (1, 3, 5))]
    doc = cli.ArrayDocument(3, 101, compose_checked(family).values, "magic")
    tracemalloc.start()
    try:
        text = cli.document_to_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    padded = doc.values.size * (len(str(101**3 - 1)) + 1)  # a digit row and a comma per cell
    # the padded rows and the text, where stripping the rows through bytes held them twice
    assert peak < padded + len(text) + (64 << 10) < 2 * padded, f"peak {peak / 2**20:.2f} MiB"


# reader: the fast path against json.loads whole


def outcome(text):
    try:
        doc = cli.document_from_json(text)
    except cli.InputError as exc:
        return ("error", str(exc))
    vals = doc.values
    return ("doc", doc.dimension, doc.order, doc.kind, doc.params, vals.dtype.str, vals.shape, vals.tobytes())


def assert_paths_agree(text):
    fast = outcome(text)
    with mock.patch.object(cli, "_plain_document", return_value=None):
        slow = outcome(text)
    assert fast == slow


TOKENS = [
    "0", "7", "01", "00", "-0", "-1", "1e2", "1.0", "true", "false", "null", '"1"', "[1]", "[]", "{}",
    "999999999999999999", "1000000000000000000", "9223372036854775807", "9223372036854775808",
    "18446744073709551615", "99999999999999999999", "",
]


@st.composite
def documents(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["latin", "magic"]))
    top = n - 1 if kind == "latin" else n**d - 1
    values = draw(st.lists(st.integers(0, top + 1), min_size=n**d, max_size=n**d))
    payload = {"dimension": d, "order": n, "kind": kind, "values": values}
    if draw(st.booleans()):
        payload["params"] = [draw(st.integers(1, 9)) for _ in range(d)]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def mutate(data, text):
    """text with one of the changes that must send the reader to json.loads, or none."""
    key = '"values":['
    lo = text.index(key) + len(key)
    hi = text.index("]", lo)
    tokens = text[lo:hi].split(",")
    kind = data.draw(st.sampled_from([
        "none", "token", "space", "duplicate", "nested key", "quoted key", "placeholder",
        "empty", "nested list", "trailing", "truncate", "spaced key",
    ]))
    if kind == "token":
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.sampled_from(TOKENS))
    elif kind == "space":
        at = data.draw(st.integers(0, len(tokens) - 1))
        tokens[at] = data.draw(st.sampled_from([" ", "\n", "\t"])) + tokens[at]
    elif kind == "empty":
        tokens = []
    elif kind == "nested list":
        tokens = ["[" + ",".join(tokens) + "]"]
    body = text[:lo] + ",".join(tokens) + text[hi:]
    if kind == "duplicate":
        return body[:-1] + ',"values":' + data.draw(st.sampled_from(["[0,1,1,0]", "[]", '"<values>"', "[" + text[lo:hi] + "]"])) + "}"
    if kind == "nested key":
        return '{"note":{"values":[1,2]},' + body[1:]
    if kind == "quoted key":
        return '{"note":"\\"values\\":[1,2]",' + body[1:]
    if kind == "placeholder":
        return '{"note":"<values>",' + body[1:]
    if kind == "trailing":
        return body + data.draw(st.sampled_from(["x", "]", "}", " ", "\n", "[1]"]))
    if kind == "truncate":
        return body[: data.draw(st.integers(0, len(body) - 1))]
    if kind == "spaced key":
        return body.replace('"values":[', '"values" : [', 1)
    return body


@SETTINGS
@given(documents(), st.data())
@example('{"dimension":2,"order":2,"values":[0,1,1,0]}', None)
def test_fast_reader_agrees_with_json_loads(text, data):
    assert_paths_agree(mutate(data, text) if data is not None else text)


@SETTINGS
@given(documents(), st.data(), st.integers(1, 6))
def test_fast_reader_agrees_with_json_loads_in_small_blocks(text, data, block):
    # blocks of a few characters put a block edge at every place in the values list
    with mock.patch.object(cli, "_READ_BLOCK", block):
        assert_paths_agree(mutate(data, text))


def test_reader_holds_the_values_once():
    family = [ParamVector(alphas, 101) for alphas in ((1, 2, 4), (1, 2, 5), (1, 3, 5))]
    text = cli.document_to_json(cli.ArrayDocument(3, 101, compose_checked(family).values, "magic"))
    tracemalloc.start()
    try:
        doc = cli.document_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= doc.values.nbytes + (2 << 20)


@pytest.mark.parametrize(
    "text",
    [
        '{"dimension":2,"order":2,"values":[0,1,1,9999999999999999999]}',
        '{"dimension":2,"order":2,"values":[0,1,1,0],"values":[1,0,0,1]}',
        '{"values":[0,1,1,0],"dimension":2,"order":2,"note":{"values":"<values>"}}',
        '{"note":{"values":[0,1,1,0]},"dimension":2,"order":2,"values":"<values>"}',
        '{"note":"\\u003cvalues>","dimension":2,"order":2,"values":[0,1,1,0]}',
        # the placeholder spelled with an escape, standing for the top-level values
        '{"note":{"values":[0,1,1,0]},"dimension":2,"order":2,"values":"\\u003cvalues>"}',
        '{"note":"\\"values\\":[0,1,1,0]","dimension":2,"order":2,"values":"\\u003cvalues>"}',
        '{"dimension":2,"order":2,"values":[0,1,1,0],"note":"\\u005d"}',
        '{"dimension":2,"order":2,"values":[0,1,1,0],"kind":"l\\u0061tin"}',
        '{"dimension":2,"order":2,"values":[0,1,1,0]}{"values":[1]}',
        '{"note":"\u00e9","dimension":2,"order":2,"values":[0,1,1,0]}',
        '{"dimension":2,"order":2,"values":[0,1,1,\u0660]}',
        '{"dimension":2,"order":2,"values":[0,1,1,0]',
        '{"dimension":2,"order":2,"values":[0,1,1,0]}',
        '[{"dimension":2,"order":2,"values":[0,1,1,0]}]',
        '{"dimension":2,"order":2,"values":[0,1,1,0],"kind":"magic","params":[[1,1],[1,0]]}',
    ],
)
def test_reader_edge_cases_agree(text):
    assert_paths_agree(text)


@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("at", [0, 2, 3])
def test_every_token_at_every_place_agrees(token, at):
    cells = ["0", "1", "1", "0"]
    cells[at] = token
    assert_paths_agree('{"dimension":2,"order":2,"values":[' + ",".join(cells) + "]}")


def test_a_cut_document_fails_as_json_loads_does_at_every_offset():
    text = '{"dimension":2,\n"kind":"latin","order":3,"params":[1,2],"values":[0,1,2,1,2,0,2,0,1]}'
    for at in range(len(text)):
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(text[:at])
        assert outcome(text[:at]) == ("error", f"invalid JSON: {exc.value}"), at


@pytest.mark.parametrize("tail", ["", "]", "]}x"], ids=["unclosed", "closed", "closed, then junk"])
def test_a_truncated_document_is_refused_from_a_short_text(tail):
    text = cli.document_to_json(cli.ArrayDocument(3, 101, build(ParamVector((1, 2, 4), 101)).values))
    text = text[: text.index(",", len(text) // 2)] + tail
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(text)
    with mock.patch.object(cli.json, "loads", wraps=json.loads) as loads:
        assert outcome(text) == ("error", f"invalid JSON: {exc.value}")
    assert loads.call_count == 1 and len(loads.call_args.args[0]) < 1024


def test_canonical_document_takes_the_fast_path(capsys):
    assert cli.run(["generate", "--order", "11", "--params", "1,2,7"]) == 0
    text = capsys.readouterr().out
    lo = text.index('"values":[') + len('"values":')
    hi = text.index("]", lo) + 1
    with mock.patch.object(cli.json, "loads", wraps=json.loads) as loads:
        doc = cli.document_from_json(text)
    # json.loads reads only the header, with the placeholder for the 1331 cells
    assert loads.call_args_list == [mock.call(f'{text[:lo]}"{cli._PLACEHOLDER}"{text[hi:]}')]
    assert np.array_equal(doc.values, build(ParamVector((1, 2, 7), 11)).values)
