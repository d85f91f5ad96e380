"""Command line front end and the array document format.

Documents are JSON objects with keys dimension, order, values (the flat
cell list, first axis slowest), an optional kind tag (latin or magic) and
optional generating params.  Serialization is deterministic: sorted keys,
compact separators, one trailing newline, so identical arrays produce
identical bytes.

Cells are written and read without per-cell Python.  json.dumps writes
the header with an empty values list and one encoder, shared with the
grid and csv renderers, splices in the digits of every cell, so the
bytes are those of json.dumps of the int list or of a string join.  Each
cell takes a NUL-padded byte row: a grid whose values span at most half
as many numbers as it has cells, as a latin grid spells n, reads each
cell's row from a table of those numbers' rows, and any other grid has
its digits written cell by cell; the NULs are then dropped a block at a
time, in place.  The reader parses a values list of plain digits and
commas (no empty token, no leading zero, at most 18 digits per token, in
an ASCII text with no backslash) with numpy, in blocks of about
_READ_BLOCK characters into one array sized by the comma count, and
hands json.loads the rest with a placeholder string in its place; any
other text, or a values key that does not end up holding the
placeholder, goes to json.loads whole, with the same result.  When
json.loads refuses the rest, or the list is cut off (no "]" after it)
but plain up to its last comma, the error comes from a short text, the
header with the placeholder or with the last token alone, and is moved
back to its place in the whole text: its message, line and column are
json.loads's for the whole text, and no value of a cut list is kept.

A grid is held once: the arrays that build, compose and the reader make
are frozen and kept as they are by LatinArray, MagicArray and
ArrayDocument, which copy only arrays that come from their callers.

Generate, magic and orthogonal --brute refuse, --force or not, a run
whose estimated arrays and text pass MEMORY_BUDGET, before building;
a 2-D slice's text is not charged.  Verify and slice refuse a document
the same way before parsing any value: its text twice, as read and as
decoded, and the bytes each value will take.

Exit codes: 0 success or property verified, 1 well-formed input with a
negative answer (failed verification, infeasible or non-orthogonal
family, empty search), 2 usage errors or malformed input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from functools import cache
from typing import Iterator, Sequence

import numpy as np

from .lattice import (
    AXIS_NAMES,
    MAX_ORDER,
    LatinArray,
    SliceSpec,
    Tie,
    _own_grid,
    build,
    slice_values,
    value_grid,
)
from .magic import MagicArray, compose_checked
from .modarith import MAX_MODULUS
from .orthogonal import ParamMatrix, check_orthogonal_fast, determinant_mod, verify_orthogonal_brute
from .params import DIMENSIONS, ParamVector, iter_feasible
from .verify import verify_latin_pandiagonal, verify_magic_pandiagonal

# d=4 arrays grow as n**4; past 41 the CLI wants explicit --force
DEFAULT_ORDER_CAPS = {2: 101, 3: 101, 4: 41}

# bytes of int64 arrays and output text that generate, magic and orthogonal --brute may plan to hold
MEMORY_BUDGET = 1 << 30

# stands in for a plain values list while json.loads reads the header
_PLACEHOLDER = "<values>"

# characters of a plain values list checked and parsed at a time
_READ_BLOCK = 1 << 18

# bytes of padded text the encoder strips of NULs at a time
_PACK_BLOCK = 1 << 16

KINDS = ("latin", "magic")


class InputError(Exception):
    """Malformed input or bad usage; maps to exit code 2."""


@dataclass(frozen=True)
class ArrayDocument:
    """In-memory form of the JSON wire format."""

    dimension: int
    order: int
    values: np.ndarray
    kind: str = "latin"
    params: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        # the header is checked before it shapes the flat cell list
        if self.dimension not in DIMENSIONS:
            raise InputError(f"dimension must be one of {DIMENSIONS}, got {self.dimension}")
        if not 2 <= self.order <= MAX_ORDER:
            raise InputError(f"order {self.order} outside [2, {MAX_ORDER}]")
        if self.kind not in KINDS:
            raise InputError(f"kind must be one of {KINDS}, got {self.kind!r}")
        try:
            vals = np.asarray(self.values, dtype=np.int64)
        except OverflowError:
            raise InputError("values must fit in 64-bit integers") from None
        if isinstance(self.values, list):
            _own_grid(vals)  # made from the list just now, so no one else holds it
        expected = (self.order,) * self.dimension
        if vals.shape != expected:
            if vals.size == self.order**self.dimension and vals.ndim == 1:
                vals = vals.reshape(expected)
            else:
                raise InputError(
                    f"values must hold {self.order**self.dimension} cells, got {vals.size}"
                )
        object.__setattr__(self, "values", _wrap_input(lambda: value_grid(vals, self.kind)))
        if self.params is not None:
            object.__setattr__(
                self, "params", tuple(tuple(int(a) for a in vec) for vec in self.params)
            )
            for vec in self.params:
                if len(vec) != self.dimension:
                    raise InputError("params must list one coefficient per axis")


def document_to_json(doc: ArrayDocument) -> str:
    payload: dict[str, object] = {
        "dimension": doc.dimension,
        "order": doc.order,
        "kind": doc.kind,
        "values": [],
    }
    if doc.params is not None:
        if doc.kind == "latin":
            payload["params"] = list(doc.params[0])
        else:
            payload["params"] = [list(vec) for vec in doc.params]
    head = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    before, _, after = head.partition('"values":[]')
    return f'{before}"values":[{_encode(doc.values.ravel(), ",")}]{after}\n'


def document_from_json(text: str) -> ArrayDocument:
    try:
        raw = _plain_document(text)
        if raw is None:
            # the text as read and as decoded; a JSON list holds at most one value more than
            # it has commas, and json.loads keeps a list slot and a 32-byte int for each besides its cell
            _charge("the document", 2 * len(text) + 48 * (text.count(",") + 1))
            raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError("document must be a JSON object")
    for key in ("dimension", "order", "values"):
        if key not in raw:
            raise InputError(f"document missing required key {key!r}")
    dimension, order = raw["dimension"], raw["order"]
    if not _all_ints([dimension, order]):
        raise InputError("dimension and order must be integers")
    values = raw["values"]
    if not isinstance(values, np.ndarray) and (
        not isinstance(values, list) or not _all_ints(values)
    ):
        raise InputError("values must be a list of integers")
    kind = raw.get("kind", "latin")
    params = raw.get("params")
    norm: tuple[tuple[int, ...], ...] | None = None
    if params is not None:
        if not isinstance(params, list) or not params:
            raise InputError("params must be a non-empty list")
        if _all_ints(params):
            norm = (tuple(params),)
        elif all(isinstance(vec, list) and _all_ints(vec) for vec in params):
            norm = tuple(tuple(vec) for vec in params)
        else:
            raise InputError("params must be a vector or a list of vectors")
    return ArrayDocument(dimension, order, values, kind, norm)


def _plain_document(text: str) -> dict | None:
    """The decoded document with its values already an int64 array, or None.

    None unless the text is ASCII with no backslash (so no string can hide
    a quote or spell the placeholder another way), its first '"values":['
    list is plain, and the top-level values key of the decoded text holds
    the placeholder that replaced that list.  Raises the JSONDecodeError
    of json.loads(text) when the list is plain but the text around it is
    not JSON, or when the list never closes and is plain up to its last
    comma: json.loads fails the same way on the text without that plain
    run, and the error is moved back to its place.
    """
    key = text.find('"values":[')
    if key < 0 or not text.isascii() or "\\" in text or f'"{_PLACEHOLDER}"' in text:
        return None
    lo = key + len('"values":[')
    hi = text.find("]", lo)
    count = text.count(",", lo, len(text) if hi < 0 else hi) + 1
    _charge("the document", 2 * len(text) + 8 * count)  # the text as read and as decoded, and the cells
    if hi < 0:
        # the list never closes, so once the values before its last comma are plain
        # json.loads fails in its last token or after it; they are checked, not kept
        cut = text.rfind(",", lo) + 1 or lo
        if cut > lo and not all(_plain_commas(span) is not None for span in _spans(text, lo, cut - 1)):
            return None
        _decode_moved(text[:lo] + text[cut:], text, lo, cut - lo)  # raises, as json.loads(text) does
        return None
    values = _plain_ints(text, lo, hi, count)
    if values is None:
        return None
    short = f'{text[: lo - 1]}"{_PLACEHOLDER}"{text[hi + 1 :]}'
    raw = _decode_moved(short, text, lo + len(_PLACEHOLDER) + 1, len(text) - len(short))
    if not isinstance(raw, dict) or raw.get("values") != _PLACEHOLDER:
        return None
    raw["values"] = _own_grid(values)
    return raw


def _decode_moved(short: str, text: str, at: int, moved: int):
    """json.loads(short), where short[at:] is text[at + moved:] and short[:at] stands for the rest.

    An error at or after at is raised at its place in text, so its message,
    line and column are those json.loads(text) gives.
    """
    try:
        return json.loads(short)
    except json.JSONDecodeError as exc:
        pos = exc.pos + moved if exc.pos >= at else exc.pos
        raise json.JSONDecodeError(exc.msg, text, pos) from None


def _plain_ints(text: str, lo: int, hi: int, count: int) -> np.ndarray | None:
    """text[lo:hi] parsed as int64 when it is plain JSON integers joined by commas, else None.

    The span holds count - 1 commas, so its count values go into one
    array allocated up front.
    """
    out = np.empty(count, dtype=np.int64)
    at = 0
    for span in _spans(text, lo, hi):
        block = _plain_block(span)
        if block is None:
            return None
        out[at : at + block.size] = block
        at += block.size
    return out


def _spans(text: str, lo: int, hi: int) -> Iterator[str]:
    """text[lo:hi] in blocks of about _READ_BLOCK characters that end before a comma.

    Each block of a plain list is then a plain list on its own, and the
    temporaries of its checks stay block-sized.
    """
    while True:
        end = text.find(",", min(lo + _READ_BLOCK, hi), hi)
        end = hi if end < 0 else end
        yield text[lo:end]
        if end == hi:
            return
        lo = end + 1


def _plain_block(span: str) -> np.ndarray | None:
    """span parsed as int64 when it is plain JSON integers joined by commas, else None."""
    cut = _plain_commas(span)
    if cut is None:
        return None
    values = np.fromstring(span, dtype=np.int64, sep=",")
    return values if values.size == np.count_nonzero(cut) - 1 else None


def _plain_commas(span: str) -> np.ndarray | None:
    """span's comma mask, with one more comma at each end, when span is plain, else None.

    Plain means digits and commas only, no empty token, no leading zero
    and at most 18 digits per token, so every token fits in an int64.
    """
    b = np.frombuffer(span.encode("ascii"), dtype=np.uint8)
    cut = np.ones(b.size + 2, dtype=bool)  # commas, with one more at each end
    np.equal(b, ord(","), out=cut[1:-1])
    if (cut[1:] & cut[:-1]).any() or not ((b - ord("0") < 10) | cut[1:-1]).all():
        return None
    if (cut[:-2] & (b == ord("0")) & ~cut[2:]).any():
        return None
    run = ~cut  # run[i]: a digit run of the current length starts at i
    for step in (1, 2, 4, 8, 3):  # run lengths 2, 4, 8, 16, 19
        run = run[:-step] & run[step:]
    return None if run.any() else cut


def _all_ints(items: list) -> bool:
    """True when every decoded JSON item is an integer.

    JSON true and false decode to bool, a subclass of int, so the test is
    on the exact type.
    """
    return {type(x) for x in items} <= {int}


def render_blocks(values: np.ndarray, sep: str, offset: int = 0) -> str:
    """Text form of a shaped array: blank-line separated 2-D blocks.

    Blocks run over the leading coordinates in ascending row-major order;
    each block prints the final two axes as rows of cells.
    """
    return _encode(values.ravel(), sep, values.shape[0], offset)


def _encode(flat: np.ndarray, sep: str, row: int = 0, offset: int = 0) -> str:
    """Decimal text of flat + offset (non-negative int64), each value followed by its terminator.

    row=0 joins the values by sep (a JSON list body); row=n lays them out
    as render_blocks does.  Each value fills one fixed-width byte row:
    digits right-aligned behind NUL padding, then its terminators.  When
    offset .. top spans at most half as many values as there are cells, as
    in a latin grid, the rows of offset .. top are written once and each
    cell takes its value's row; otherwise each cell's digits are written.
    """
    top = int(flat.max()) + offset
    width = len(str(top))
    size = width + (2 if row else 1)
    if 2 * (top + 1) <= flat.size:
        # rows padded to a power of two bytes, which numpy indexes about four times faster than 3 or 5
        table = np.zeros((top + 1 - offset, 1 << (size - 1).bit_length()), dtype=np.uint8)
        _write_digits(np.arange(offset, top + 1, dtype=np.min_scalar_type(top)), table[:, :width])
        table[:, width] = ord(sep)
        # indexing, not ndarray.take, which copies a read-only index such as a frozen grid
        buf = table.view(f"V{table.shape[1]}")[:, 0][flat].view(np.uint8).reshape(flat.size, -1)
    else:
        buf = np.zeros((flat.size, size), dtype=np.uint8)
        # the one temporary takes the smallest unsigned type that holds top
        v = np.add(flat, offset, dtype=np.min_scalar_type(top), casting="unsafe")
        _write_digits(v, buf[:, :width])
        del v
        buf[:, width] = ord(sep)
    if row:
        buf[row - 1 :: row, width] = ord("\n")
        buf[row * row - 1 : -1 : row * row, width + 1] = ord("\n")
    else:
        buf[-1, width] = 0
    return _unpadded(buf.reshape(-1))


def _unpadded(padded: np.ndarray) -> str:
    """The bytes of padded without its NULs as ASCII text; padded is consumed.

    Each block's kept bytes are moved to the front of padded, which they
    never pass, so the text is made from padded itself and only the str is
    held besides it.
    """
    end = 0
    for lo in range(0, padded.size, _PACK_BLOCK):
        kept = padded[lo : lo + _PACK_BLOCK].tobytes().translate(None, b"\0")
        padded[end : end + len(kept)] = np.frombuffer(kept, dtype=np.uint8)
        end += len(kept)
    return str(padded[:end], "ascii")


def _write_digits(v: np.ndarray, out: np.ndarray) -> None:
    """Write each unsigned value of v in decimal into its row of out, right-aligned behind NULs; v is consumed."""
    last = out.shape[1] - 1
    for col in range(last, -1, -1):
        digit = out[:, col]
        np.remainder(v, 10, out=digit, casting="unsafe")
        np.add(digit, ord("0"), out=digit, where=True if col == last else v > 0)
        np.floor_divide(v, 10, out=v)


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if getattr(args, "one_based", False) and args.format == "json":
            raise InputError("--one-based applies to grid and csv output only")
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1


def main() -> None:  # pragma: no cover - thin entry point
    sys.exit(run())


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="pandiag",
        description="Pandiagonal latin and magic arrays from linear forms over Z_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a linear-form array and emit it")
    p.add_argument("--order", type=int, required=True, metavar="N")
    p.add_argument("--params", required=True, metavar="A1,A2,..", help="one coefficient per axis")
    p.add_argument("--dim", type=int, help="expected dimension (cross-checked against --params)")
    p.add_argument("--check", action="store_true", help="verify pandiagonality before emitting")
    p.add_argument("--slice", metavar="SPEC", help="emit a 2-D view instead of the full array")
    _output_options(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("verify", help="check a document for the pandiagonal property")
    p.add_argument("file", nargs="?", default="-", help="JSON document path or - for stdin")
    p.add_argument(
        "--expect",
        choices=("latin-pandiagonal", "magic-pandiagonal"),
        help="property to check; defaults to the document's kind tag",
    )
    p.add_argument("--fail-fast", action="store_true", help="stop at the first failing square")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("search", help="enumerate feasible parameter vectors")
    p.add_argument("--dim", type=int, required=True, choices=DIMENSIONS)
    p.add_argument("--order", type=int, required=True, metavar="N")
    p.add_argument("--canonical", action="store_true", help="leading coefficient 1 only")
    p.add_argument("--limit", type=int, metavar="K", help="stop after K vectors")
    p.add_argument("--force", action="store_true", help="override the default order cap")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("orthogonal", help="test a family of vectors for orthogonality")
    p.add_argument("--order", type=int, required=True, metavar="N")
    p.add_argument(
        "--params-list", required=True, metavar="V1;V2;..", help="d vectors, e.g. '1,2;1,3'"
    )
    p.add_argument("--fast", action="store_true", help="run the determinant test")
    p.add_argument("--brute", action="store_true", help="run the superposition test")
    p.add_argument("--force", action="store_true", help="override the default order cap")
    p.set_defaults(handler=_cmd_orthogonal)

    p = sub.add_parser("magic", help="compose a pandiagonal magic array from a family")
    p.add_argument("--order", type=int, required=True, metavar="N")
    p.add_argument(
        "--params-list", required=True, metavar="V1;V2;..", help="d vectors, e.g. '1,2;1,3'"
    )
    p.add_argument(
        "--perms",
        metavar="P1;P2;..",
        help="optional symbol relabeling per digit array, e.g. '0,1,2,3,4;4,3,2,1,0'",
    )
    p.add_argument("--check", action="store_true", help="verify the composed array before emitting")
    _output_options(p)
    p.set_defaults(handler=_cmd_magic)

    p = sub.add_parser("slice", help="print a 2-D view of a document")
    p.add_argument("file", nargs="?", default="-", help="JSON document path or - for stdin")
    p.add_argument("--spec", required=True, metavar="SPEC", help="e.g. 'k=2' or 'i=2,j+k=16'")
    p.add_argument("--format", choices=("grid", "csv", "json"), default="grid")
    p.add_argument("--one-based", action="store_true", help="display symbols starting at 1")
    p.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_slice)

    return parser


def _output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "grid", "csv"), default="json")
    p.add_argument("--one-based", action="store_true", help="display symbols starting at 1")
    p.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    p.add_argument("--force", action="store_true", help="override the default order cap")


def _cmd_generate(args: argparse.Namespace) -> int:
    alphas = _parse_vector(args.params)
    if args.dim is not None and args.dim != len(alphas):
        raise InputError(f"--dim {args.dim} contradicts {len(alphas)} coefficients")
    _check_order_cap(len(alphas), args.order, args.force)
    # the built grid, held once; a second grid's worth for the encoder's padded digit rows,
    # at most 8 bytes a cell; and the text of a full document (tracemalloc peaks: 14.8 bytes
    # a cell for json or grid text at d=4 n=41, 15.0 for json at d=3 n=101)
    _check_memory(len(alphas), args.order, 2, 0 if args.slice is not None else args.order)
    v = _wrap_input(lambda: ParamVector(alphas, args.order))
    array = _wrap_input(lambda: build(v))
    if args.check:
        report = verify_latin_pandiagonal(array)
        if not report.passed:
            print(f"check failed: {report.first_failure.reason}", file=sys.stderr)
            return 1
    if args.slice is not None:
        spec = _parse_slice_spec(args.slice, v.dimension, v.order)
        grid = _wrap_input(lambda: slice_values(array.values, spec))
        doc = ArrayDocument(2, v.order, grid, "latin")
    else:
        doc = ArrayDocument(v.dimension, v.order, array.values, "latin", (v.alphas,))
    _emit(doc, args.format, args.one_based, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    expect = args.expect or (
        "magic-pandiagonal" if doc.kind == "magic" else "latin-pandiagonal"
    )
    if expect == "latin-pandiagonal":
        array_type, verify = LatinArray, verify_latin_pandiagonal
    else:
        array_type, verify = MagicArray, verify_magic_pandiagonal
    try:
        array = array_type(doc.values)
    except ValueError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    report = verify(array, fail_fast=args.fail_fast)
    if report.passed:
        total = "" if report.magic_sum is None else f"sum={report.magic_sum}, "
        print(f"verified {report.property}: {total}lines={report.lines_checked}")
        return 0
    reason = report.first_failure.reason
    print(f"verification failed (achieved: {report.property or 'none'}): {reason}", file=sys.stderr)
    return 1


def _cmd_search(args: argparse.Namespace) -> int:
    _check_order_cap(args.dim, args.order, args.force, hard_cap=MAX_MODULUS)
    if args.limit is not None and args.limit < 1:
        raise InputError(f"--limit must be at least 1, got {args.limit}")
    count = 0
    for v in _wrap_input(lambda: iter_feasible(args.dim, args.order, args.canonical)):
        print(",".join(str(a) for a in v.alphas))
        count += 1
        if args.limit is not None and count >= args.limit:
            break
    print(f"{count} feasible vectors", file=sys.stderr)
    return 0 if count else 1


def _cmd_orthogonal(args: argparse.Namespace) -> int:
    vectors = _parse_family(args.params_list, args.order)
    matrix = _wrap_input(lambda: ParamMatrix(vectors))
    _check_order_cap(matrix.dimension, args.order, args.force)
    # with no explicit selection both checks run
    run_fast = args.fast or not args.brute
    run_brute = args.brute or not args.fast
    if run_brute:
        # d built arrays, their superposed codes and one temporary
        _check_memory(matrix.dimension, args.order, matrix.dimension + 2)
    det, residue = determinant_mod(matrix)
    print(f"det={det}")
    print(f"det_mod={int(residue)}")
    verdicts = []
    if run_fast:
        try:
            fast = check_orthogonal_fast(matrix)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"fast={'orthogonal' if fast else 'not-orthogonal'}")
        verdicts.append(fast)
    if run_brute:
        arrays = [build(v) for v in matrix.rows]
        brute = verify_orthogonal_brute(arrays)
        print(f"brute={'orthogonal' if brute else 'not-orthogonal'}")
        verdicts.append(brute)
    return 0 if all(verdicts) else 1


def _cmd_magic(args: argparse.Namespace) -> int:
    vectors = _parse_family(args.params_list, args.order)
    matrix = _wrap_input(lambda: ParamMatrix(vectors))
    dimension = matrix.dimension
    _check_order_cap(dimension, args.order, args.force)
    # d digit arrays, and the superposition's running code, its temporary and the composed grid
    _check_memory(dimension, args.order, dimension + 3, args.order**dimension)
    perms = _parse_perms(args.perms, dimension, args.order) if args.perms else None
    try:
        composed = compose_checked(matrix.rows, perms)
    except ValueError as exc:
        print(f"composition rejected: {exc}", file=sys.stderr)
        return 1
    if args.check:
        report = verify_magic_pandiagonal(composed)
        if not report.passed:
            print(f"check failed: {report.first_failure.reason}", file=sys.stderr)
            return 1
    doc = ArrayDocument(
        dimension,
        args.order,
        composed.values,
        "magic",
        tuple(v.alphas for v in matrix.rows),
    )
    _emit(doc, args.format, args.one_based, args.output)
    return 0


def _cmd_slice(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    spec = _parse_slice_spec(args.spec, doc.dimension, doc.order)
    grid = _wrap_input(lambda: slice_values(doc.values, spec))
    if args.format == "json":
        if doc.kind != "latin":
            raise InputError(
                "json slice output is only defined for latin documents;"
                " use grid or csv"
            )
        out = ArrayDocument(2, doc.order, grid, "latin")
        _emit(out, "json", args.one_based, args.output)
    else:
        sep = " " if args.format == "grid" else ","
        _write(render_blocks(grid, sep, 1 if args.one_based else 0), args.output)
    return 0


def _emit(doc: ArrayDocument, fmt: str, one_based: bool, output: str | None) -> None:
    if fmt == "json":
        text = document_to_json(doc)
    else:
        sep = " " if fmt == "grid" else ","
        text = render_blocks(doc.values, sep, 1 if one_based else 0)
    _write(text, output)


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {output}: {exc}") from None


def _read_document(path: str) -> ArrayDocument:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
    return document_from_json(text)


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        alphas = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"cannot parse coefficient vector {text!r}") from None
    if len(alphas) not in DIMENSIONS:
        raise InputError(f"need 2, 3 or 4 coefficients, got {len(alphas)}")
    return alphas


def _parse_family(text: str, order: int) -> tuple[ParamVector, ...]:
    vectors = []
    for part in text.split(";"):
        alphas = _parse_vector(part)
        vectors.append(_wrap_input(lambda: ParamVector(alphas, order)))
    return tuple(vectors)


def _parse_perms(text: str, dimension: int, order: int) -> list[list[int]]:
    blocks = text.split(";")
    if len(blocks) != dimension:
        raise InputError(f"need {dimension} permutations, got {len(blocks)}")
    perms = []
    for block in blocks:
        try:
            perm = [int(x) for x in block.split(",")]
        except ValueError:
            raise InputError(f"cannot parse permutation {block!r}") from None
        if sorted(perm) != list(range(order)):
            raise InputError(f"permutation {block!r} is not a bijection on 0..{order - 1}")
        perms.append(perm)
    return perms


_CONST_RE = re.compile(r"^([a-z])=(\d+)$")
_EQUAL_RE = re.compile(r"^([a-z])=([a-z])$")
_ANTI_RE = re.compile(r"^([a-z])\+([a-z])=(\d+)$")


def _parse_slice_spec(text: str, dimension: int, order: int) -> SliceSpec:
    """Parse constraints like "k=2", "i=j" or "i=2,j+k=16" into a SliceSpec.

    In a tie the first-named axis is the bound one and the second stays
    free; the remaining free axes become rows then columns in axis order.
    Coordinate ranges and tie targets are left to slice_values.
    """
    names = AXIS_NAMES[:dimension]
    fixed: dict[int, int | Tie] = {}
    ties: list[tuple[int, int, bool]] = []
    tokens = [t.strip() for t in text.split(",") if t.strip()] if text.strip() else []
    for token in tokens:
        if m := _CONST_RE.match(token):
            _claim(fixed, _axis_index(m.group(1), names), int(m.group(2)), token)
        elif m := _EQUAL_RE.match(token):
            bound = _axis_index(m.group(1), names)
            target = _axis_index(m.group(2), names)
            ties.append((bound, target, False))
        elif m := _ANTI_RE.match(token):
            bound = _axis_index(m.group(1), names)
            target = _axis_index(m.group(2), names)
            if int(m.group(3)) != order - 1:
                raise InputError(
                    f"wrap ties must sum to n-1 = {order - 1}, got {token!r}"
                )
            ties.append((bound, target, True))
        else:
            raise InputError(f"cannot parse slice constraint {token!r}")
    for bound, target, anti in ties:
        if bound == target:
            raise InputError("a tie must couple two different axes")
        _claim(fixed, bound, Tie(target, anti), AXIS_NAMES[bound])
    free = [axis for axis in range(dimension) if axis not in fixed]
    if len(free) != 2:
        raise InputError(
            f"slice must leave exactly 2 axes free, got {len(free)} for dimension {dimension}"
        )
    return SliceSpec(free[0], free[1], fixed)


def _axis_index(name: str, names: str) -> int:
    if name not in names:
        raise InputError(f"unknown axis {name!r}; expected one of {','.join(names)}")
    return names.index(name)


def _claim(fixed: dict, axis: int, binding: int | Tie, token: str) -> None:
    if axis in fixed:
        raise InputError(f"axis {AXIS_NAMES[axis]} bound twice (at {token!r})")
    fixed[axis] = binding


def _check_order_cap(
    dimension: int, order: int, force: bool, hard_cap: int = MAX_ORDER
) -> None:
    if dimension not in DIMENSIONS:
        raise InputError(f"dimension must be one of {DIMENSIONS}, got {dimension}")
    cap = DEFAULT_ORDER_CAPS[dimension]
    if order > cap and not force:
        raise InputError(
            f"order {order} above default cap {cap} for dimension {dimension};"
            " pass --force to override"
        )
    if order > hard_cap:
        raise InputError(f"order {order} above hard cap {hard_cap}")


def _check_memory(dimension: int, order: int, arrays: int, top: int = 0) -> None:
    """Refuse a run whose int64 arrays and text, for values up to top, would pass MEMORY_BUDGET.

    The text costs a byte per digit and two per terminator, twice: the
    encoder's string and the document made from it.
    """
    text = 2 * (len(str(top)) + 2) if top else 0
    _charge(f"order {order} at dimension {dimension}", order**dimension * (8 * arrays + text))


def _charge(what: str, need: int) -> None:
    """Refuse a run that needs more than MEMORY_BUDGET bytes."""
    if need > MEMORY_BUDGET:
        raise InputError(
            f"{what} needs about {need >> 20} MiB,"
            f" above the memory budget of {MEMORY_BUDGET >> 20} MiB"
        )


def _wrap_input(fn):
    try:
        return fn()
    except ValueError as exc:
        raise InputError(str(exc)) from None


if __name__ == "__main__":
    main()
