"""Element handles: one shared ``(rank, index)`` tuple per preclone element.

The oracle for a sort is the list of handles built afresh,
``[(n, i) for i in range(sort_size(n))]``.  Every reader (``intern``,
``lookup``, ``sort``, ``elements``, ``iter_tuples``, the compose memo, a
morphism's image, a loaded dump's unit and generators, a quotient's
projection) must hand out the
sort's own tuple, and a sort read before an ``intern`` must not hide the
new element from a later read.
"""

import itertools
import os

import pytest

from preclones import compiler
from preclones.automata import boolean_alphabet, k_exists
from preclones.blockprod import BlockProduct
from preclones.cli import load_formula_file
from preclones.logic import free_vars
from preclones.syntactic import syntactic_pgpair
from preclones.preclone import (
    FinitaryPreclone,
    dump_preclone,
    load_preclone,
    quotient,
    t_exists,
    t_mod,
    transformation_pgpair,
)

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
DBOOL = boolean_alphabet([0, 2])


def compiled(name):
    phi, sigma, k, _ = load_formula_file(os.path.join(CORPUS, name + ".lind"))
    rec = compiler.compile_formula(phi, sigma, tuple(sorted(free_vars(phi))), k)
    return rec.pgpair.preclone, list(rec.gamma.image.values()) + sorted(rec.accepting)


def loaded():
    pg = t_mod(3, 3)
    S, gens = load_preclone(dump_preclone(pg.preclone, pg.generators))
    return S, gens


def transformation():
    res = transformation_pgpair(k_exists(DBOOL, 1), 3)
    return res.pgpair.preclone, list(res.morphism.image.values())


def pgpair(pg):
    return pg.preclone, pg.generators


def identity_quotient():
    S = t_mod(2, 3).preclone
    Q, proj = quotient(S, [[[el] for el in S.sort(n)] for n in range(S.trunc + 1)])
    return Q, list(proj.values())


def syntactic():
    syn = syntactic_pgpair(k_exists(DBOOL, 1), 3)
    handed_out = (list(syn.projection.values()) + syn.pgpair.generators
                  + list(syn.morphism.image.values()) + sorted(syn.accepting))
    return syn.pgpair.preclone, handed_out


CARRIERS = {
    "t_exists": lambda: pgpair(t_exists(3)),
    "t_2": lambda: pgpair(t_mod(2, 3)),
    "transformation": transformation,
    "ex04": lambda: compiled("ex04"),
    "ex27": lambda: compiled("ex27"),
    "loaded": loaded,
    "identity_quotient": identity_quotient,
    "syntactic": syntactic,
}


def handle_faults(S, handed_out=()):
    """Every way a reader of S fails to hand out the sort's own handle.

    ``handed_out`` lists handles a constructor returned (generators, a
    morphism's image, accepting elements); each must be a sort entry too.
    """
    faults = []

    def check(what, got, n, i):
        if got is not S.sort(n)[i]:
            faults.append((what, n, i))

    for n in range(S.trunc + 1):
        sort = S.sort(n)
        if list(sort) != [(n, i) for i in range(S.sort_size(n))]:
            faults.append(("sort value", n, None))
            continue
        for i, el in enumerate(sort):
            key = S.key(el)
            check("intern", S.intern(n, key), n, i)
            check("lookup", S.lookup(n, key), n, i)
    check("unit", S.unit, 1, S.unit[1])
    for el in handed_out:
        check("handed out", el, *el)
    pairs = itertools.islice(S.iter_tuples(2, min(2, S.trunc)), 500)
    for what, els in (("elements", S.elements()),
                      ("iter_tuples", (g for gs in pairs for g in gs))):
        for el in els:
            check(what, el, *el)
    for el in S._memo.values():
        check("closure memo", el, *el)
    # every carrier is closed for results of rank 0; an empty memo sends
    # each composition through lookup before it is stored
    S._memo.clear()
    rank0 = ((f, gs) for n in range(S.trunc + 1) for f in S.sort(n)
             for gs in S.iter_tuples(n, 0))
    for f, gs in itertools.islice(rank0, 500):
        el = S.compose(f, gs)
        check("compose", el, *el)
    for el in S._memo.values():
        check("compose memo", el, *el)
    return faults


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_every_reader_hands_out_the_sort_entry(name):
    S, handed_out = CARRIERS[name]()
    assert handle_faults(S, handed_out) == []


def test_loaded_dump_hands_out_its_unit_and_generators():
    S, gens = loaded()
    assert gens == t_mod(3, 3).generators
    assert all(g is S.sort(g[0])[g[1]] for g in gens)
    assert S.unit is S.sort(1)[S.unit[1]]


def test_blockprod_tables_hold_the_sort_entries():
    S = t_exists(3).preclone
    bp = BlockProduct(S, S, 1, trunc=2)
    F = tuple(S.sort(1)[1] for _ in range(bp.n_contexts(1)))
    G = tuple(S.sort(0)[0] for _ in range(bp.n_contexts(0)))
    H, h = bp.compose((F, S.sort(1)[0]), [(G, S.sort(0)[1])])
    assert h is S.sort(0)[h[1]]
    assert H and all(x is S.sort(x[0])[x[1]] for x in H)


def growth_faults(S, n, key):
    """Read sort n, intern key at rank n, read again: the second read must
    hold the new element after the first read's elements."""
    before = list(S.sort(n))
    el = S.intern(n, key)
    after = S.sort(n)
    faults = []
    if list(after) != before + [(n, len(before))]:
        faults.append(("sort after intern", list(after)))
    if S.sort_size(n) != len(after) or el not in after:
        faults.append(("new element", el))
    if list(S.elements()).count(el) != 1:
        faults.append(("elements", el))
    return faults


def bare_preclone():
    S = FinitaryPreclone(2, lambda fkey, gkeys: fkey)
    S.set_unit(S.intern(1, "id"))
    return S


def test_a_sort_read_before_intern_sees_the_new_element():
    S = bare_preclone()
    assert growth_faults(S, 0, "c") == []
    assert growth_faults(S, 0, "d") == []
    assert growth_faults(S, 1, "g") == []
    assert [S.sort_size(n) for n in range(3)] == [2, 2, 0]
    assert growth_faults(S, 2, "h") == []


def test_a_transformation_sort_grows_after_a_read():
    S = t_exists(3).preclone
    n_states, table = S.key(S.sort(2)[0])
    assert growth_faults(S, 2, (n_states, tuple(1 - v for v in table))) == []


def test_a_sort_that_never_refreshes_is_caught(monkeypatch):
    original = FinitaryPreclone.sort

    def stale_sort(self, n):
        cache = self.__dict__.setdefault("_stale_sorts", {})
        if n not in cache:
            cache[n] = tuple(original(self, n))
        return cache[n]

    monkeypatch.setattr(FinitaryPreclone, "sort", stale_sort)
    assert growth_faults(bare_preclone(), 0, "c")
