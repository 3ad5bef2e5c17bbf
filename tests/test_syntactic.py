import functools
import glob
import inspect
import itertools
import os
import random
import textwrap

import pytest

from preclones import automata, compiler, syntactic
from preclones.automata import (
    automaton_equal,
    boolean_alphabet,
    complement,
    intersect,
    k_exists,
    k_mod,
    left_quotient,
    load_automaton,
    random_automaton,
    right_quotient,
)
from preclones.cli import load_formula_file
from preclones.errors import RankOverflow
from preclones.logic import free_vars
from preclones.preclone import (
    accepting_elements,
    check_axioms,
    t_exists,
    t_mod,
    transformation_pgpair,
)
from preclones.syntactic import (
    Context,
    context_blocks,
    enumerate_contexts,
    find_isomorphism,
    insert_in_context,
    isomorphic,
    syntactic_congruence,
    syntactic_pgpair,
)
from preclones.trees import alphabet, compositions, enumerate_trees, oplus
from tree_oracles import reference_minimize

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
DBOOL = boolean_alphabet([0, 2])


def test_enumerate_contexts_counts():
    S = t_exists(3).preclone
    # k=0, n=1: k1=k2=0, u in sort 1 (2 choices), v a 1-tuple of rank 0 (2)
    assert len(enumerate_contexts(S, 0, 1)) == 4
    # k=0, n=0: (u, 0, (), 0) with u in sort 1
    cs = enumerate_contexts(S, 0, 0)
    assert len(cs) == 2
    assert all(c.v == () and c.k1 == c.k2 == 0 for c in cs)


def test_enumerate_contexts_empty_when_no_rank_fits():
    S = t_exists(2).preclone
    # k=0, n=2: v needs two components of total rank 0: fine; but for a
    # preclone with empty sort the list is empty
    from preclones.preclone import FinitaryPreclone, identity_key, _transformation_compose

    tiny = FinitaryPreclone(2, _transformation_compose, None)
    tiny.set_unit(tiny.intern(1, identity_key(2)))
    assert enumerate_contexts(tiny, 0, 1) == []  # sort 0 empty
    # sort 2 empty: the (0, 1) and (1, 0) blocks have v = () but no u
    assert list(context_blocks(tiny, 1, 0)) == [] == reference_contexts(tiny, 1, 0)


def test_enumerate_contexts_requires_room_for_u():
    S = t_exists(2).preclone
    with pytest.raises(RankOverflow):
        enumerate_contexts(S, 2, 0)


def is_L_context(T, P, f, c):
    return insert_in_context(T, f, c) in P


def test_is_L_context_examples():
    S = t_exists(3).preclone
    P = {(0, 1)}  # {true_0}
    or1, true1 = (1, 0), (1, 1)
    true0, false0 = (0, 1), (0, 0)
    c = Context(or1, 0, (), 0)
    assert is_L_context(S, P, true0, c)
    assert not is_L_context(S, P, false0, c)
    c_true = Context(true1, 0, (), 0)
    assert is_L_context(S, P, true0, c_true)
    assert is_L_context(S, P, false0, c_true)


def test_syntactic_congruence_of_k_exists_image():
    res = transformation_pgpair(k_exists(DBOOL, 0), 3)
    S = res.pgpair.preclone
    P = accepting_elements(res)
    blocks = syntactic_congruence(S, 0, P)
    assert [len(b) for b in blocks] == [2, 2, 2, 2]


def test_syntactic_congruence_trivial_P():
    S = t_exists(3).preclone
    for P in (set(), set(S.sort(0))):
        blocks = syntactic_congruence(S, 0, P)
        assert all(len(bs) == 1 for bs in blocks)


def test_syntactic_pgpair_k_exists():
    syn = syntactic_pgpair(k_exists(DBOOL, 0), 3)
    Q = syn.pgpair.preclone
    assert [Q.sort_size(n) for n in range(4)] == [2, 2, 2, 2]
    assert isomorphic(Q, t_exists(3).preclone)
    assert check_axioms(Q).ok


@pytest.mark.parametrize("p,r", [(2, 0), (2, 1), (3, 1)])
def test_syntactic_pgpair_k_mod(p, r):
    syn = syntactic_pgpair(k_mod(DBOOL, 0, p, r), 3)
    Q = syn.pgpair.preclone
    assert [Q.sort_size(n) for n in range(4)] == [p] * 4
    assert isomorphic(Q, t_mod(p, 3).preclone)


def test_syntactic_pgpair_empty_language():
    empty = intersect(k_exists(DBOOL, 0), complement(k_exists(DBOOL, 0)))
    syn = syntactic_pgpair(empty, 3)
    Q = syn.pgpair.preclone
    assert all(Q.sort_size(n) == 1 for n in range(4))


def test_syntactic_morphism_recognizes():
    a = k_mod(DBOOL, 0, 2, 1)
    syn = syntactic_pgpair(a, 3)
    for t in enumerate_trees(DBOOL, 0, 4):
        assert (syn.morphism.eval(t) in syn.accepting) == a.accepts(t)


def test_congruence_saturates_language():
    a = k_exists(DBOOL, 1)
    syn = syntactic_pgpair(a, 3)
    for t in enumerate_trees(DBOOL, 1, 3):
        assert (syn.morphism.eval(t) in syn.accepting) == a.accepts(t)


def test_context_membership_equals_double_quotient():
    # for contexts in the free preclone: C is an L-context of f iff
    # f is in the right quotient (by v) of the left quotient (by u)
    a = k_mod(DBOOL, 1, 2, 1)
    u = next(t for t in enumerate_trees(DBOOL, 2, 3))
    v = oplus([next(t for t in enumerate_trees(DBOOL, 0, 1))])
    from preclones.trees import compose, unit_tuple

    lq = left_quotient(a, u, 0, 1)  # rank 0 language
    # plug f.v into u at the hole: rank arithmetic: k=1, k1=0, k2=1
    for f in enumerate_trees(DBOOL, 1, 3):
        fv = compose(f, v)
        direct = a.accepts(compose(u, (fv,) + unit_tuple(1)))
        via_quotients = right_quotient(lq, v).accepts(f)
        assert direct == via_quotients


def test_find_isomorphism_respects_structure():
    S = t_mod(3, 2).preclone
    T = t_mod(3, 2).preclone
    m = find_isomorphism(S, T)
    assert m is not None
    for f, gs in S.iter_compositions():
        assert m[S.compose(f, gs)] == T.compose(m[f], [m[g] for g in gs])


def test_find_isomorphism_rejects_different():
    assert find_isomorphism(t_exists(2).preclone, t_mod(2, 2).preclone) is None
    assert find_isomorphism(t_mod(2, 2).preclone, t_mod(3, 2).preclone) is None


# ---------------------------------------------------------------------------
# the congruence against the per-context signature walk it replaced


def reference_contexts(T, k, n):
    """The n-ary contexts in sort k, by their own walk: the reference must
    not share the library's enumeration, or a mutation there would reach
    both sides."""
    if k + 1 > T.trunc:
        raise RankOverflow(f"contexts in sort {k} need truncation >= {k + 1}")
    out = []
    for k1 in range(k + 1):
        for k2 in range(k - k1 + 1):
            ell = k - k1 - k2
            if n == 0 and ell != 0:
                continue
            vs = []
            for ranks in compositions(ell, n):
                pools = [T.sort(r) for r in ranks]
                if any(not p for p in pools):
                    continue
                vs.extend(itertools.product(*pools))
            if not vs:
                continue
            for u in T.sort(k1 + 1 + k2):
                for v in vs:
                    out.append(Context(u, k1, tuple(v), k2))
    return out


def reference_congruence(T, k, P, extra_sets=()):
    """The former walk: one insert_in_context per (element, context)."""
    sets = [frozenset(P)] + [frozenset(s) for s in extra_sets]
    blocks_by_rank = []
    for n in range(T.trunc + 1):
        ctxs = reference_contexts(T, k, n)
        groups = {}
        for f in T.sort(n):
            sig = tuple(tuple(insert_in_context(T, f, c) in s for s in sets) for c in ctxs)
            groups.setdefault(sig, []).append(f)
        blocks_by_rank.append(sorted(groups.values(), key=lambda b: b[0]))
    return blocks_by_rank


def checking_congruence(monkeypatch, *modules):
    """Patch each module's syntactic_congruence to compare every call with
    the reference; returns the checked calls as (calling module, k, number
    of extra sets)."""
    checked = []
    original = syntactic.syntactic_congruence

    def checking(caller):
        def check(T, k, P, extra_sets=()):
            got = original(T, k, P, extra_sets)
            assert got == reference_congruence(T, k, P, extra_sets)
            checked.append((caller, k, len(extra_sets)))
            return got
        return check

    for module in modules:
        monkeypatch.setattr(module, "syntactic_congruence", checking(module.__name__))
    return checked


def checking_minimize(monkeypatch, *modules):
    """Patch each module's minimize to compare every call with the former
    loop; returns the list of checked calls."""
    checked = []

    def checking(a, finals_list=None):
        (got, mapped), (want, want_mapped) = (
            fn(a, finals_list or []) for fn in (automata.minimize, reference_minimize))
        assert automaton_equal(got, want) and mapped == want_mapped
        checked.append(a.n_states)
        return got if finals_list is None else (got, mapped)

    for module in modules:
        monkeypatch.setattr(module, "minimize", checking)
    return checked


def subsets(elements):
    return [
        [e for e, keep in zip(elements, mask) if keep]
        for mask in itertools.product((False, True), repeat=len(elements))
    ]


@pytest.mark.parametrize("make", [lambda: t_exists(3), lambda: t_mod(2, 3), lambda: t_mod(3, 3)],
                         ids=["t_exists", "t_2", "t_3"])
def test_congruence_matches_the_context_walk_on_the_paper_preclones(make):
    S = make().preclone
    for k in range(S.trunc):
        every = subsets(S.sort(k))
        for P in every:
            assert syntactic_congruence(S, k, P) == reference_congruence(S, k, P)
        assert (syntactic_congruence(S, k, every[1], every[2:])
                == reference_congruence(S, k, every[1], every[2:]))


@pytest.mark.parametrize("make", [lambda: t_exists(3), lambda: t_mod(2, 3), lambda: t_mod(3, 3)],
                         ids=["t_exists", "t_2", "t_3"])
def test_enumerate_contexts_matches_its_own_walk(make):
    S = make().preclone
    for k in range(S.trunc):
        for n in range(S.trunc + 1):
            assert enumerate_contexts(S, k, n) == reference_contexts(S, k, n)


AUTOMATA = sorted(os.path.basename(p)[:-4] for p in glob.glob(os.path.join(CORPUS, "*.aut")))
FORMULAS = sorted(os.path.basename(p)[:-5] for p in glob.glob(os.path.join(CORPUS, "ex*.lind")))


@pytest.mark.parametrize("name", AUTOMATA)
def test_congruence_matches_the_context_walk_on_syntactic_pgpairs(monkeypatch, name):
    checked = checking_congruence(monkeypatch, syntactic)
    minimized = checking_minimize(monkeypatch, syntactic)
    a = load_automaton(os.path.join(CORPUS, name + ".aut"))
    syntactic_pgpair(a, max(3, a.rank + 1))
    assert checked == [("preclones.syntactic", a.rank, 0)] and len(minimized) == 1


@pytest.mark.parametrize("name", FORMULAS)
def test_congruence_matches_the_context_walk_on_compiles(monkeypatch, name):
    """Every congruence and every minimization a compile makes, against
    the context walk and the former minimize loop."""
    checked = checking_congruence(monkeypatch, compiler, syntactic)
    minimized = checking_minimize(monkeypatch, compiler, syntactic)
    phi, sigma, k, _ = load_formula_file(os.path.join(CORPUS, name + ".lind"))
    compiler.compile_formula(phi, sigma, tuple(sorted(free_vars(phi))), k)
    assert minimized
    assert bool(checked) == (name not in ("ex17", "ex18"))  # true and false quantify nothing
    # the compiler's joint congruence passes the other members' sets, valid_Wx and valid_Y
    joint = [extra for caller, _, extra in checked if caller == "preclones.compiler"]
    assert bool(joint) == bool(checked) and all(joint)


def probe_automata():
    """The corpus automata, then 36 seeded 2-state automata: six seeds over
    each alphabet at ranks 0 and 1."""
    cases = [(name, load_automaton(os.path.join(CORPUS, name + ".aut"))) for name in AUTOMATA]
    for letters in (("f/2", "a/0", "b/0"), ("g/1", "h/1", "a/0"), ("g/1", "h/3", "a/0")):
        for k, seed in itertools.product((0, 1), range(6)):
            a = random_automaton(alphabet(*letters), k, 2, random.Random(seed))
            cases.append(("".join(x[0] + x[2] for x in letters) + f"-k{k}-s{seed}", a))
    return cases


PROBES = probe_automata()


@pytest.mark.parametrize("a", [a for _, a in PROBES], ids=[name for name, _ in PROBES])
def test_congruence_matches_the_context_walk_on_the_probe_automata(a):
    res = transformation_pgpair(a, max(a.rank + 1, a.alphabet.max_arity))
    S, P = res.pgpair.preclone, accepting_elements(res)
    assert syntactic_congruence(S, a.rank, P) == reference_congruence(S, a.rank, P)


@functools.cache
def recorded_congruence_calls():
    """The congruence calls of the ex04, ex19 and ex27 compiles, per formula."""
    calls = {}
    original = compiler.syntactic_congruence
    for name in ("ex04", "ex19", "ex27"):
        def recording(T, k, P, extra_sets=(), name=name):
            calls.setdefault(name, []).append((T, k, P, extra_sets))
            return original(T, k, P, extra_sets)

        compiler.syntactic_congruence = recording
        try:
            phi, sigma, k, _ = load_formula_file(os.path.join(CORPUS, name + ".lind"))
            compiler.compile_formula(phi, sigma, tuple(sorted(free_vars(phi))), k)
        finally:
            compiler.syntactic_congruence = original
    return calls


# mutants of the refinement: (module, function, line, its replacement)
REFINE_MUTATIONS = {
    # successors without f o_i h
    "no-f-o-h": (syntactic, "syntactic_congruence",
                 "return ([T.plug(f, i, h, n - 1 - i) for i in range(n) for h in fits[n]]",
                 "return ([]"),
    # successors without u o_i f
    "no-u-o-f": (syntactic, "syntactic_congruence",
                 "+ [T.plug(u, i, f, u[0] - 1 - i) for u in fits[n] for i in range(u[0])])",
                 "+ [])"),
    # refine stops after one round
    "one-round": (automata, "refine", "if len(ids) == count:", "if count:"),
}


def mutate(monkeypatch, mutation):
    module, name, old, new = REFINE_MUTATIONS[mutation]
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(syntactic, name, namespace[name])


@pytest.mark.parametrize("mutation", sorted(REFINE_MUTATIONS))
def test_a_refinement_that_misses_a_step_is_caught(monkeypatch, mutation):
    calls = recorded_congruence_calls()
    mutate(monkeypatch, mutation)
    for name in ("ex04", "ex19", "ex27"):
        assert any(syntactic.syntactic_congruence(*c) != reference_congruence(*c)
                   for c in calls[name]), name
