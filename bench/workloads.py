"""The benchmark's three workloads as fixed, seeded lists of operations.

Every operation calls pandiag through its public functions, looked up on
the module at call time so that the tracer's wrappers take effect.  Each
operation carries a check that judges the program's output against
``oracle`` (which shares no code with pandiag) or against a property the
method must have, never against a saved copy of earlier output.  Expected
values are computed on first use, so a process that only times set-up
never pays for them.

The seed picks vectors, unit scalings, relabelings, slice coordinates and
swapped cells.  It never picks how much work an operation does: search
points, array sizes and the position of the first failing square are
fixed, so the same round costs the same on every seed.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import re
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import oracle as O

MODULES = ("modarith", "params", "lattice", "verify", "orthogonal", "magic", "cli")


@dataclass
class Op:
    name: str
    positive: bool  # the correct answer is positive, so the time counts in accept_s
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    calls: int = 1  # program calls one execution makes
    known_fault: bool = False  # fails until a fault listed in the README is fixed


class Program:
    """The pandiag package and its modules, imported from a source tree."""

    def __init__(self, src: Path):
        init = src / "pandiag" / "__init__.py"
        if not init.is_file():
            raise FileNotFoundError(f"no pandiag source at {init}")
        sys.path.insert(0, str(src))
        self.package = importlib.import_module("pandiag")
        if Path(self.package.__file__).resolve() != init.resolve():
            raise ImportError(f"pandiag imported from {self.package.__file__}, not {init}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"pandiag.{name}"))


def run_cli(pd: Program, argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """pandiag.cli.run in-process, with in-memory stdin, stdout and stderr."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    try:
        code = pd.cli.run(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


# --- seeded inputs --------------------------------------------------------------


def _units(n: int) -> list[int]:
    return [a for a in range(1, n) if np.gcd(a, n) == 1]


def _scaled(v, k: int, n: int) -> tuple[int, ...]:
    return tuple(a * k % n for a in v)


def pick_feasible(rng, d: int, n: int) -> tuple[int, ...]:
    """A seeded feasible vector: a canonical one scaled by a seeded unit."""
    canon = O.feasible_vectors(d, n, canonical=True)
    v = canon[rng.integers(len(canon))]
    return _scaled(v, int(rng.choice(_units(n))), n)


def pick_family(rng, d: int, n: int, orthogonal: bool = True) -> list[tuple[int, ...]]:
    """d feasible vectors; their determinant is a unit mod n exactly when orthogonal."""
    while True:
        rows = [pick_feasible(rng, d, n) for _ in range(d)]
        if not orthogonal:
            rows[-1] = _scaled(rows[0], int(rng.choice(_units(n))), n)
        if (np.gcd(O.det(rows) % n, n) == 1) == orthogonal:
            return rows


def pick_line_sum_family(rng, d: int, n: int) -> list[tuple[int, ...]]:
    """d - 1 feasible vectors and one infeasible one, with a unit determinant.

    Composed, they give a permutation of 0..n^d - 1 (the determinant is a
    unit) whose lines in the infeasible vector's failing direction miss the
    magic sum, so a magic scan gets past its repeat check and fails on a sum.
    """
    while True:
        rows = [pick_feasible(rng, d, n) for _ in range(d - 1)] + [pick_infeasible(rng, d, n)]
        if np.gcd(O.det(rows) % n, n) == 1:
            return rows


def pick_infeasible(rng, d: int, n: int) -> tuple[int, ...]:
    """A vector whose only failing direction is (1, .., 1).

    Fixing the failing direction fixes where a scan first fails, so
    fail_fast does the same work on every seed.
    """
    target = [(1,) * d]
    while True:
        v = tuple(int(x) for x in rng.integers(1, n, size=d))
        if O.failing_directions(v, n) == target:
            return v


def relabeled(values: np.ndarray, rng, n: int) -> np.ndarray:
    shift = tuple(int(s) for s in rng.integers(0, n, size=values.ndim))
    return rng.permutation(n)[np.roll(values, shift, axis=tuple(range(values.ndim)))]


def magic_values(family, perms, n: int) -> np.ndarray:
    return O.compose_digits([p[O.linear_array(v, n)] for v, p in zip(family, perms)], n)


def swap_cells(values: np.ndarray, rng, lead: tuple[int, ...]):
    """Copy of values with two cells of different value swapped.

    The swapped cells share the leading coordinates ``lead``, which fixes
    the first constituent square that contains them; the rest is seeded.
    """
    n, d = values.shape[0], values.ndim
    tail = [int(x) for x in rng.integers(0, n, size=d - len(lead))]
    p = tuple(lead) + tuple(tail)
    q = tuple(lead) + tuple(tail[:-1]) + ((tail[-1] + 1 + int(rng.integers(n - 1))) % n,)
    out = values.copy()
    out[p], out[q] = values[q], values[p]
    assert out[p] != out[q], "a latin array never repeats a symbol along an axis"
    return out, {p, q}


def _lines(vectors) -> str:
    return "".join(",".join(map(str, v)) + "\n" for v in vectors)


# --- search -----------------------------------------------------------------------


def search_ops(pd: Program, rng) -> list[Op]:
    """Feasibility search, checks and family census; no array is built."""
    params, magic = pd.params, pd.magic

    def enum(d, n, canonical=False):
        expected = cache(lambda: list(O.feasible_vectors(d, n, canonical)))
        return Op(
            f"enumerate_feasible({d},{n}{',canonical' if canonical else ''})",
            bool(expected()),
            lambda: params.enumerate_feasible(d, n, canonical),
            lambda r: [v.alphas for v in r] == expected(),
        )

    def first_k(d, n, canonical, k):
        expected = cache(lambda: list(itertools.islice(O.iter_feasible_vectors(d, n, canonical), k)))
        return Op(
            f"iter_feasible({d},{n}) first {k}",
            True,
            lambda: [v.alphas for v in itertools.islice(params.iter_feasible(d, n, canonical), k)],
            lambda r: r == expected(),
        )

    def families(d, n):
        expected = cache(
            lambda: O.d2_prime_family_count(n) if d == 2 else O.family_count(d, n)
        )
        return Op(
            f"count_orthogonal_families({d},{n})",
            True,
            lambda: magic.count_orthogonal_families(d, n),
            lambda r: r == expected(),
        )

    points = [(2, 101), (3, 101), (4, 41)]
    feasible = [(pick_feasible(rng, d, n), n) for d, n in points for _ in range(200)]
    infeasible = [(v, n) for d, n in points for v in O.infeasible_vectors(d, n, rng, 200)]

    def check_batch(batch):
        return lambda: [params.check(params.ParamVector(v, n)) for v, n in batch]

    def violations_match(reports):
        # every reported violation value is +-(alpha . u) mod n for a failing direction u
        for (v, n), r in zip(infeasible, reports):
            bad = O.failing_directions(v, n)
            allowed = {x * s % n for u in bad for x in [int(np.dot(v, u))] for s in (1, -1)}
            if r.feasible or not r.violations or any(val not in allowed for _, val in r.violations):
                return False
        return True

    lazy_empty = [(3, 10), (4, 16)]
    return [
        enum(2, 101),
        enum(3, 49),
        enum(2, 121),
        enum(4, 11),
        enum(3, 101, canonical=True),
        Op(
            "check x600 infeasible",
            False,
            check_batch(infeasible),
            violations_match,
            calls=len(infeasible),
        ),
        enum(3, 121, canonical=True),
        Op(
            "empty lazy searches",
            False,
            lambda: [params.minimal_order(d, m) for d, m in lazy_empty]
            + [next(params.iter_feasible(4, 13, True), None)],
            lambda r: r == [O.minimal_order(d, m) for d, m in lazy_empty] + [None],
            calls=3,
        ),
        enum(4, 17, canonical=True),
        enum(4, 13),
        first_k(4, 41, True, 2000),
        first_k(3, 101, False, 2000),
        Op(
            "minimal_order d=2,3,4",
            True,
            lambda: [params.minimal_order(d, 50) for d in (2, 3, 4)],
            lambda r: r == [O.minimal_order(d, 50) for d in (2, 3, 4)],
            calls=3,
        ),
        Op(
            "check x600 feasible",
            True,
            check_batch(feasible),
            lambda rs: all(r.feasible and not r.violations for r in rs),
            calls=len(feasible),
        ),
        families(3, 11),
        families(2, 101),
        families(3, 13),
    ]


# --- verify -----------------------------------------------------------------------


def verify_ops(pd: Program, rng) -> list[Op]:
    """Construction-blind verification of arrays built before timing starts."""
    LatinArray, MagicArray = pd.lattice.LatinArray, pd.magic.MagicArray
    ver = pd.verify
    state: dict[str, Any] = {}

    def expect_pass(values, magic):
        d, n = values.ndim, values.shape[0]

        def check(r):
            grade = "pandiagonal-magic" if magic else "pandiagonal-latin"
            return (
                r.passed
                and r.property == grade
                and r.first_failure is None
                and r.lines_checked == O.lines_total(d, n)
                and (r.magic_sum == O.sigma(d, n) if magic else r.magic_sum is None)
            )

        return check

    def expect_fail(key, values, magic, fail_fast, touched=None):
        d, n = values.ndim, values.shape[0]
        target = O.sigma(d, n) if magic else None

        def check(r):
            if r.passed or r.property in ("pandiagonal-latin", "pandiagonal-magic"):
                return False
            f = r.first_failure
            if f is None:
                return False
            if f.line is None:
                # magic arrays that repeat a value fail before any line is read
                m = re.fullmatch(r"repeat: value (\d+) appears (\d+) times", f.reason)
                ok = (
                    magic
                    and m is not None
                    and r.lines_checked == 0
                    and int(m.group(2)) > 1
                    and int((values == int(m.group(1))).sum()) == int(m.group(2))
                )
            else:
                ok = O.line_fails(values, f.line.cells, target) and (
                    touched is None or bool(touched & set(f.line.cells))
                )
                ok = ok and (
                    r.lines_checked <= O.lines_total(d, n)
                    if fail_fast
                    else r.lines_checked == O.lines_total(d, n)
                )
            if not fail_fast:
                state[key] = f
            elif state.get(key) != f:
                return False  # fail_fast and the full scan must report the same first failure
            return ok

        return check

    def verify_call(fn, obj, fail_fast=False):
        return lambda: getattr(ver, fn)(obj, fail_fast=fail_fast)

    def wrapped(values, magic=False):
        """The program's array object and its values, which the checks then read.

        The wrapper copies the array; its copy is compared once and made
        read-only, so the benchmark keeps one copy of each input.
        """
        obj = (MagicArray if magic else LatinArray)(values)
        assert np.array_equal(obj.values, values)
        obj.values.setflags(write=False)
        return obj, obj.values

    def cases(d, n, lead):
        """(name, call, check) of the positive and of the negative cases at one point."""
        latin = O.linear_array(pick_feasible(rng, d, n), n)
        shifted = relabeled(latin, rng, n)
        perms = [rng.permutation(n) for _ in range(d)]
        magic = magic_values(pick_family(rng, d, n), perms, n)
        bad = O.linear_array(pick_infeasible(rng, d, n), n)
        swapped, touched = swap_cells(latin, rng, lead)
        nonorth = magic_values(pick_family(rng, d, n, orthogonal=False), perms, n)
        line_sum = magic_values(pick_line_sum_family(rng, d, n), perms, n)
        assert (np.bincount(line_sum.ravel(), minlength=n**d) == 1).all()
        pos = []
        for label, values, is_magic in (
            ("latin", latin, False),
            ("relabeled", shifted, False),
            ("magic", magic, True),
        ):
            fn = "verify_magic_pandiagonal" if is_magic else "verify_latin_pandiagonal"
            obj, values = wrapped(values, is_magic)
            pos.append((f"{label} {d},{n}", verify_call(fn, obj), expect_pass(values, is_magic)))
        neg = []
        for label, values, is_magic, touch in (
            ("infeasible", bad, False, None),
            ("swapped", swapped, False, touched),
            ("non-orthogonal", nonorth, True, None),
            ("line-sum", line_sum, True, None),
        ):
            fn = "verify_magic_pandiagonal" if is_magic else "verify_latin_pandiagonal"
            obj, values = wrapped(values, is_magic)
            key = f"{label} {d},{n}"
            for ff in (False, True):
                neg.append(
                    (f"{key}{' fail_fast' if ff else ''}", verify_call(fn, obj, ff),
                     expect_fail(key, values, is_magic, ff, touch))
                )
        return pos, neg

    def batch(name, positive, items, repeat):
        calls = [c for _, c, _ in items]
        checks = [k for _, _, k in items]
        return Op(
            name,
            positive,
            lambda: [c() for _ in range(repeat) for c in calls],
            lambda rs: all(k(r) for k, r in zip(checks * repeat, rs)),
            calls=len(items) * repeat,
        )

    small_pos, small_neg = [], []
    for d, n in ((2, 101), (3, 11)):
        pos, neg = cases(d, n, lead=(n // 3,))
        small_pos += pos
        small_neg += neg
    ops = [batch("small arrays x5", True, small_pos, 5), batch("small failing arrays x5", False, small_neg, 5)]
    for d, n, lead in ((3, 101, (33,)), (4, 17, (5, 5))):
        pos, neg = cases(d, n, lead)
        negs = [Op(name, False, call, check) for name, call, check in neg]
        per = -(-len(negs) // len(pos))  # full scans stay ahead of their fail_fast runs
        for i, (name, call, check) in enumerate(pos):
            ops.append(Op(name, True, call, check))
            ops += negs[i * per : (i + 1) * per]
    latin, values = wrapped(O.linear_array(pick_feasible(rng, 4, 41), 41))
    swapped, touched = swap_cells(values, rng, (2, 2))
    swapped, swapped_values = wrapped(swapped)
    ops.append(Op("latin 4,41", True, verify_call("verify_latin_pandiagonal", latin),
                  expect_pass(values, False)))

    def swapped_41(r):
        f = r.first_failure
        return (
            not r.passed
            and f is not None
            and f.line is not None
            and O.line_fails(swapped_values, f.line.cells)
            and bool(touched & set(f.line.cells))
            and r.lines_checked < O.lines_total(4, 41)
        )

    ops.append(Op("swapped 4,41 fail_fast", False,
                  verify_call("verify_latin_pandiagonal", swapped, True), swapped_41))
    return ops


# --- documents --------------------------------------------------------------------


def documents_ops(pd: Program, rng) -> list[Op]:
    """CLI pipelines run in-process through pandiag.cli.run."""
    n, d = 101, 3
    v = pick_feasible(rng, d, n)
    values = O.linear_array(v, n)
    params = ",".join(map(str, v))
    doc = O.document_text(d, n, "latin", values, (v,))
    family = pick_family(rng, d, n)
    perms = [rng.permutation(n) for _ in range(d)]
    family_arg = ";".join(",".join(map(str, f)) for f in family)
    perms_arg = ";".join(",".join(map(str, p)) for p in perms)
    nonorth = pick_family(rng, d, n, orthogonal=False)
    nonorth_arg = ";".join(",".join(map(str, f)) for f in nonorth)
    bad_v = pick_infeasible(rng, d, n)
    swapped, _ = swap_cells(values, rng, (33,))
    bad_doc = O.document_text(d, n, "latin", swapped)
    c = int(rng.integers(n))
    k = int(rng.integers(20, 41))
    v4 = pick_feasible(rng, 4, 41)
    lines = O.lines_total(d, n)
    state: dict[str, tuple[str, str]] = {}

    def cli(argv, stdin=""):
        return lambda: run_cli(pd, argv, stdin)

    def pipe(first, second):
        def call():
            a = run_cli(pd, first)
            return a, run_cli(pd, second, a[1])

        return call

    def ok(expected_out):
        return lambda r: r == (0, expected_out(), "")

    def failed_with(prefix, code=1):
        return lambda r: r[0] == code and r[1] == "" and r[2].startswith(prefix)

    @cache
    def magic_doc():
        return O.document_text(d, n, "magic", magic_values(family, perms, n), family)

    @cache
    def doc4_digest():
        return O.document_digest(4, 41, "latin", O.linear_array(v4, 41), (v4,))

    def failing_verify(key, fail_fast):
        def check(r):
            code, out, err = r
            m = re.fullmatch(r"verification failed \(achieved: [a-z-]+\): (.*): \[([0-9, ]+)\]\n", err)
            if code != 1 or out or m is None:
                return False
            seen = [int(x) for x in m.group(2).split(",")]
            if len(seen) != n or len(set(seen)) == n:
                return False
            if not fail_fast:
                state[key] = m.group(1, 2)
                return True
            return state.get(key) == m.group(1, 2)

        return check

    def malformed():
        bad = [
            doc[: len(doc) // 2],
            '{"dimension":3,"order":11}',
            '{"dimension":3,"order":11,"values":[' + ",".join(["0"] * 1000) + "]}",
            O.document_text(2, 11, "latin", np.full((11, 11), 11)),
            "[1,2,3]",
        ]
        return [run_cli(pd, ["verify"], text) for text in bad]

    bool_doc = '{"dimension":2,"order":5,"values":[' + ",".join(["true", "false"] * 12 + ["true"]) + "]}"
    return [
        Op(
            "generate | verify",
            True,
            pipe(["generate", "--order", str(n), "--params", params], ["verify"]),
            lambda r: r[0] == (0, doc, "")
            and r[1] == (0, f"verified pandiagonal-latin: lines={lines}\n", ""),
            calls=2,
        ),
        Op("verify failing document", False, cli(["verify"], bad_doc), failing_verify("swap", False)),
        Op(
            "generate --format grid",
            True,
            cli(["generate", "--order", str(n), "--params", params, "--format", "grid"]),
            ok(cache(lambda: O.render_text(values, " "))),
        ),
        Op(
            "verify --fail-fast failing document",
            False,
            cli(["verify", "--fail-fast"], bad_doc),
            failing_verify("swap", True),
        ),
        Op(
            "generate --slice --format csv",
            True,
            cli(["generate", "--order", str(n), "--params", params, "--slice", f"k={c}",
                 "--format", "csv", "--one-based"]),
            ok(cache(lambda: O.render_text(values[:, :, c], ",", 1))),
        ),
        Op(
            "malformed documents",
            False,
            malformed,
            lambda rs: all(r[0] == 2 and r[1] == "" and r[2].startswith("error:") for r in rs),
            calls=5,
        ),
        Op(
            "slice --spec j+k=n-1",
            True,
            cli(["slice", "--spec", f"j+k={n - 1}", "--format", "json"], doc),
            ok(cache(lambda: O.document_text(
                2, n, "latin", values[np.arange(n)[:, None], n - 1 - np.arange(n)[None, :],
                                      np.arange(n)[None, :]]))),
        ),
        Op(
            "generate --check infeasible",
            False,
            cli(["generate", "--order", str(n), "--params", ",".join(map(str, bad_v)), "--check"]),
            failed_with("check failed: "),
        ),
        Op(
            "magic --check | verify",
            True,
            pipe(["magic", "--order", str(n), "--params-list", family_arg, "--perms", perms_arg,
                  "--check"], ["verify"]),
            lambda r: r[0] == (0, magic_doc(), "")
            and r[1] == (0, f"verified pandiagonal-magic: sum={O.sigma(d, n)}, lines={lines}\n", ""),
            calls=2,
        ),
        Op(
            "orthogonal --fast non-orthogonal",
            False,
            cli(["orthogonal", "--order", str(n), "--params-list", nonorth_arg, "--fast"]),
            lambda r: r[0] == 1 and r[2] == ""
            and r[1] == f"det={O.det(nonorth)}\ndet_mod={O.det(nonorth) % n}\nfast=not-orthogonal\n",
        ),
        Op(
            "orthogonal --brute",
            True,
            cli(["orthogonal", "--order", str(n), "--params-list", family_arg, "--brute"]),
            lambda r: r == (0, f"det={O.det(family)}\ndet_mod={O.det(family) % n}\nbrute=orthogonal\n", ""),
        ),
        Op(
            "magic non-orthogonal",
            False,
            cli(["magic", "--order", str(n), "--params-list", nonorth_arg]),
            failed_with("composition rejected: "),
        ),
        Op(
            f"search --limit {k}",
            True,
            cli(["search", "--dim", str(d), "--order", str(n), "--canonical", "--limit", str(k)]),
            lambda r: r == (0, _lines(O.feasible_vectors(d, n, True)[:k]), f"{k} feasible vectors\n"),
        ),
        Op(
            "search empty",
            False,
            cli(["search", "--dim", "3", "--order", "49", "--canonical"]),
            lambda r: r == (1, "", "0 feasible vectors\n"),
        ),
        Op(
            "generate d=4 n=41",
            True,
            cli(["generate", "--order", "41", "--params", ",".join(map(str, v4))]),
            lambda r: r[0] == 0 and r[2] == ""
            and (hashlib.sha256(r[1].encode()).hexdigest(), len(r[1])) == doc4_digest(),
        ),
        # The two operations below fail until the faults the README names are fixed.
        Op(
            "search --limit 0",
            False,
            cli(["search", "--dim", "3", "--order", "11", "--limit", "0"]),
            lambda r: r[0] in (1, 2) and r[1] == "",
            known_fault=True,
        ),
        Op(
            "verify boolean values",
            False,
            cli(["verify"], bool_doc),
            lambda r: r[0] == 2 and r[1] == "",
            known_fault=True,
        ),
    ]


WORKLOADS = {"search": search_ops, "verify": verify_ops, "documents": documents_ops}


# --- rounds -----------------------------------------------------------------------


@dataclass
class Round:
    accept: float = 0.0  # seconds spent on operations whose correct answer is positive
    reject: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: tuple[str, ...] = ()  # failed operations that no known fault explains


def run_round(ops: list[Op], check: bool = True) -> Round:
    """Run every operation once, timing each call alone and checking it afterwards."""
    r = Round()
    wrong = []
    for op in ops:
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a crash is a wrong answer, and the round goes on
            result = exc
        dt = perf_counter() - t0
        if op.positive:
            r.accept += dt
        else:
            r.reject += dt
        r.attempted += op.calls
        if check and (isinstance(result, Exception) or not op.check(result)):
            r.failed += op.calls
            if not op.known_fault:
                wrong.append(f"{op.name}: {result!r}" if isinstance(result, Exception) else op.name)
    r.wrong = tuple(wrong)
    return r
