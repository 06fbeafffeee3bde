"""Slow reference implementations used to cross-check the fast paths.

Everything here works by exhaustive scan over a signature's tuples, with
no iteration tricks, so a disagreement points at the optimised code.
"""

from __future__ import annotations

from itertools import product

from causalcirc import MonotoneFn, Signature, tuple_leq


def brute_fixed_points(f: MonotoneFn) -> list[tuple]:
    assert f.dom == f.cod
    return [x for x in f.dom.tuples() if f.fn(x) == x]


def brute_pre_fixed_points(f: MonotoneFn) -> list[tuple]:
    return [x for x in f.dom.tuples() if tuple_leq(f.fn(x), x)]


def least_of(points: list[tuple]) -> tuple | None:
    """The unique element below all others, by pairwise comparison."""
    for x in points:
        if all(tuple_leq(x, y) for y in points):
            return x
    return None


def brute_lfp(f: MonotoneFn) -> tuple | None:
    return least_of(brute_fixed_points(f))


def brute_is_monotone(f: MonotoneFn) -> bool:
    dom = list(f.dom.tuples())
    return all(
        tuple_leq(f.fn(x), f.fn(y))
        for x in dom
        for y in dom
        if tuple_leq(x, y)
    )


def backtrack_monotone(dom: Signature, cod: Signature):
    """Every monotone function dom -> cod as a table, by backtracking.

    Domain tuples are visited in lexicographic order with bottom first,
    which refines the pointwise order, so a candidate row only needs to
    dominate rows already placed; candidates are tried in ``cod.tuples``
    order, so tables come out in lexicographic order of their rows.
    """
    dom_tuples = list(dom.tuples())
    cod_tuples = list(cod.tuples())
    n = len(dom_tuples)
    below = [
        [j for j in range(i) if tuple_leq(dom_tuples[j], dom_tuples[i])]
        for i in range(n)
    ]
    assign: list = [None] * n

    def fill(i: int):
        if i == n:
            yield dict(zip(dom_tuples, assign))
            return
        for c in cod_tuples:
            if all(tuple_leq(assign[j], c) for j in below[i]):
                assign[i] = c
                yield from fill(i + 1)

    return fill(0)


def all_functions(dom: Signature, cod: Signature):
    """Every function dom -> cod as a table, monotone or not."""
    keys = list(dom.tuples())
    for values in product(list(cod.tuples()), repeat=len(keys)):
        yield dict(zip(keys, values))


def brute_trace(f: MonotoneFn, k: int) -> dict[tuple, tuple]:
    """Close the last k wires of f by scanning for the least fixed point."""
    na = len(f.dom) - k
    ctx = f.dom[:na]
    loop = f.dom[na:]
    out: dict[tuple, tuple] = {}
    for a in ctx.tuples():
        fixed = [
            x for x in loop.tuples() if f.fn(a + x)[len(f.cod) - k:] == x
        ]
        x0 = least_of(fixed)
        assert x0 is not None, "a monotone loop must close"
        out[a] = f.fn(a + x0)[: len(f.cod) - k]
    return out
