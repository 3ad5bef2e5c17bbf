"""Contexts, the syntactic congruence, and syntactic pg-pairs.

An n-ary context in sort k is (u, k1, v, k2): u of rank k1+1+k2, v a
width-n tuple of total rank k-(k1+k2).  A rank-n element f is plugged in
as u . (k1 units + f.v + k2 units).  The congruence is computed, by
``automata.refine`` without enumerating contexts, on a finitary
recognizer (the transformation preclone of the minimized automaton):
every context of the free preclone factors through its morphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .automata import minimize, refine
from .errors import RankOverflow
from .preclone import (
    DEFAULT_BUDGET,
    FinitaryPreclone,
    Morphism,
    PgPair,
    accepting_elements,
    quotient,
    transformation_pgpair,
)
from .trees import compositions


class Context(NamedTuple):
    u: tuple  # El of rank k1+1+k2
    k1: int
    v: tuple  # tuple of El, total rank k-(k1+k2)
    k2: int


def enumerate_contexts(T: FinitaryPreclone, k: int, n: int):
    """All n-ary contexts in sort k over T's carrier, deterministic order:
    the blocks of ``context_blocks`` one after another."""
    return block_contexts(T, context_blocks(T, k, n))


def block_contexts(T: FinitaryPreclone, blocks):
    """The contexts of ``context_blocks``' blocks, in order."""
    return [Context(u, k1, v, k2) for k1, k2, _, vs in blocks
            for u in T.sort(k1 + 1 + k2) for v in vs]


def context_blocks(T: FinitaryPreclone, k: int, n: int):
    """(k1, k2, offset, vs) per (k1, k2) block of the n-ary contexts in sort
    k, for ``enumerate_contexts`` and the block product.  A block lists
    u-major over u in T.sort(k1+1+k2) and v in vs (the width-n tuples of
    total rank k-k1-k2), from offset on; a block with no u or no v has no
    context and is left out.  Needs truncation k+1 for every u-shape.
    """
    if k + 1 > T.trunc:
        raise RankOverflow(f"contexts in sort {k} need truncation >= {k + 1}")
    sorts, offset = [T.sort(r) for r in range(k + 2)], 0
    for k1 in range(k + 1):
        for k2 in range(k - k1 + 1):
            vs = [v for ranks in compositions(k - k1 - k2, n)
                  for v in itertools.product(*map(sorts.__getitem__, ranks))]
            size = len(sorts[k1 + 1 + k2]) * len(vs)
            if size:
                yield k1, k2, offset, vs
                offset += size


def insert_in_context(T: FinitaryPreclone, f, c: Context):
    """u . (k1 units + f.v + k2 units); for rank-0 f this is u.(k1+f+k2)."""
    fv = T.compose(f, c.v)
    return T.plug(c.u, c.k1, fv, c.k2)


def stack_contexts(T: FinitaryPreclone, C: Context, D: Context) -> Context:
    """The context C.D: insert into D, then insert the result into C.

    C is n-ary in sort k and D is m-ary in sort n; C.D is m-ary in sort k
    with insert(f, C.D) == insert(insert(f, D), C) for every rank-m f.
    D.u absorbs the first D.k1 and last D.k2 components of C.v and is
    plugged into C.u; each component of D.v absorbs its slice of the
    middle of C.v.  Stacking is associative.  All but the final plug is
    ``stack_under``, which reads only C.v.

    Truncation: every intermediate has rank at most k+1, the rank bound
    that contexts in sort k already need (D.u composed with the absorbed
    components has rank at most k+1 - C.k1 - C.k2, and each middle slice
    composes into a rank at most k), so T's sorts suffice.
    """
    x, j1, v, j2 = stack_under(T, C.v, D)
    return Context(T.plug(C.u, C.k1, x, C.k2), C.k1 + j1, v, j2 + C.k2)


def stack_under(T: FinitaryPreclone, v, D: Context):
    """The u-free half of stacking: (x, j1, w, j2) with C.D equal to
    (C.u . (C.k1 units + x + C.k2 units), C.k1 + j1, w, j2 + C.k2) for
    every context C whose middle tuple is v."""
    n = len(v)
    if D.k1 + _rank(D.v) + D.k2 != n:
        raise ValueError(f"context {D} is not in sort {n}")
    left = v[: D.k1]
    middle = v[D.k1 : n - D.k2]
    right = v[n - D.k2 :]
    w = []
    pos = 0
    for d in D.v:
        w.append(T.compose(d, middle[pos : pos + d[0]]))
        pos += d[0]
    return T.compose(D.u, left + (T.unit,) + right), _rank(left), tuple(w), _rank(right)


def _rank(els):
    return sum(map(itemgetter(0), els))


def syntactic_congruence(T: FinitaryPreclone, k: int, P, extra_sets=()):
    """Partition of each sort by L-context signatures: f ~c g iff insert(f,
    c) and insert(g, c) lie in the same sets for every context c in sort k.
    ``P`` is a subset of sort k; ``extra_sets`` adds rank-k sets to saturate.
    Returns blocks_by_rank for quotient(), blocks ordered by least member.

    ``refine`` starts from rank plus membership at sort k; f's successors
    are f o_i h and u o_i f within the truncation (o_i as in check_axioms;
    T must be closed there).  Its partition ~ is ~c.  A context is a chain
    of such steps, f.v (rank-0 parts of v first: check_axioms' rank
    argument) then u o_k1, so ~ refines ~c.  A step is insert(., D) for D
    = (1, 0, 1..h..1, 0) or (u, i, units, m-1-i), and insert(f, c.D) =
    insert(insert(f, D), c) (``stack_contexts``): ~c is stable, refines
    membership by c = (1, 0, k units, 0), so it refines ~, the coarsest.
    """
    if k + 1 > T.trunc:
        raise RankOverflow(f"contexts in sort {k} need truncation >= {k + 1}")
    fits = [[h for h in T.elements() if h[0] <= T.trunc + 1 - n] for n in range(T.trunc + 1)]

    def successors(f):
        n = f[0]
        return ([T.plug(f, i, h, n - 1 - i) for i in range(n) for h in fits[n]]
                + [T.plug(u, i, f, u[0] - 1 - i) for u in fits[n] for i in range(u[0])])

    classes = refine([*T.elements()], lambda f: (
        f[0], f[0] == k and tuple(f in s for s in (P, *extra_sets))), successors)
    return [[b for b in classes if b[0][0] == n] for n in range(T.trunc + 1)]


@dataclass
class SyntacticResult:
    pgpair: PgPair
    morphism: Morphism  # from the alphabet into the quotient
    accepting: set  # image of L in the quotient, a subset of sort k
    projection: dict  # recognizer element -> quotient element


def syntactic_pgpair(automaton, trunc, budget=DEFAULT_BUDGET, verify=True) -> SyntacticResult:
    """Syntactic pg-pair of the rank-k language of ``automaton``.

    Pipeline: minimize the automaton, take its transformation pg-pair,
    partition by L-context signatures with P the image of the language,
    and quotient.  The returned morphism recognizes the language via the
    accepting set.
    """
    k = automaton.rank
    if trunc < k + 1 or trunc < automaton.alphabet.max_arity:
        raise RankOverflow("need truncation >= k+1 and >= max arity")
    a = minimize(automaton)
    res = transformation_pgpair(a, trunc, budget)
    S = res.pgpair.preclone
    P = accepting_elements(res)
    blocks = syntactic_congruence(S, k, P)
    Q, proj = quotient(S, blocks, verify=verify)
    image = {name: proj[el] for name, el in res.morphism.image.items()}
    morphism = Morphism(automaton.alphabet, Q, image)
    gens = list(dict.fromkeys(image.values()))
    return SyntacticResult(PgPair(Q, gens), morphism, {proj[e] for e in P}, proj)


# ---------------------------------------------------------------------------
# isomorphism search


def find_isomorphism(S: FinitaryPreclone, T: FinitaryPreclone):
    """A rank-preserving bijection respecting unit and composition, or None.

    Tries every combination of per-rank bijections (the unit fixed) until
    one respects every composition; feasible for small sorts only.
    """
    if S.trunc != T.trunc:
        return None
    for n in range(S.trunc + 1):
        if S.sort_size(n) != T.sort_size(n):
            return None

    per_rank = []
    for n in range(S.trunc + 1):
        elems = T.sort(n)
        perms = [
            dict(zip(S.sort(n), p)) for p in itertools.permutations(elems)
        ]
        if n == 1:  # unit must map to unit
            perms = [p for p in perms if p[S.unit] == T.unit]
        per_rank.append(perms)

    comps = list(S.iter_compositions())

    def respects(mapping):
        return all(
            mapping[S.compose(f, gs)] == T.compose(mapping[f], [mapping[g] for g in gs])
            for f, gs in comps
        )

    for combo in itertools.product(*per_rank):
        mapping = {}
        for p in combo:
            mapping.update(p)
        if respects(mapping):
            return mapping
    return None


def isomorphic(S, T) -> bool:
    return find_isomorphism(S, T) is not None
