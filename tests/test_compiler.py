import dataclasses
import functools
import importlib.util
import inspect
import os
import sys
import types

import pytest

from preclones.automata import (
    automaton_equal,
    boolean_alphabet,
    complement,
    intersect,
    k_exists,
    k_path,
    minimize,
    union,
)
from preclones.cli import load_formula_file
from preclones.compiler import (
    CompiledRecognizer,
    Compiler,
    EquivalenceReport,
    check_equivalence,
    compile_atomic,
    compile_formula,
    membership,
)
from preclones.errors import DeterminismViolation
from preclones.logic import (
    And,
    FALSE,
    LeftJ,
    Less,
    Max,
    Not,
    Or,
    PSym,
    QK,
    RightJ,
    Root,
    Succ,
    TRUE,
    boolean_family,
    evaluator,
    free_vars,
    mk_structure,
    parse_formula,
    satisfies,
    structures,
    tilde_substitute,
)
from preclones.trees import UNIT, RankedTree, alphabet, enumerate_trees, forest, rank as tree_rank

SIG = alphabet("f/2", "a/0", "b/0")
DBOOL = boolean_alphabet([0, 2])
CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def assert_equiv(phi, sigma, Y, k, max_nv=3):
    rec = compile_formula(phi, sigma, Y, k)
    rep = check_equivalence(phi, rec, max_nv)
    assert rep.ok, rep.mismatches[:3]
    return rec


# -- atomic recognizers --------------------------------------------------------


def test_compile_atomic_psym():
    phi = PSym("a", "x")
    rec = compile_atomic(phi, SIG, ("x",), 0)
    for t, lam, s in structures(SIG, ("x",), 0, 3):
        assert membership(rec, s) == satisfies(t, lam, phi)


def test_compile_atomic_root():
    phi = Root("x")
    rec = compile_atomic(phi, SIG, ("x",), 0)
    for t, lam, s in structures(SIG, ("x",), 0, 3):
        assert membership(rec, s) == (lam["x"] == ())


def test_compile_atomic_true_accepts_all_structures():
    rec = compile_atomic(TRUE, SIG, ("x",), 0)
    for t, lam, s in structures(SIG, ("x",), 0, 3):
        assert membership(rec, s)


def test_compile_atomic_rejects_invalid_trees():
    # a tree where x occurs twice is not a structure: membership is False
    rec = compile_atomic(TRUE, SIG, ("x",), 0)
    from preclones.trees import parse_tree

    bad = parse_tree("f(a@x,b@x)", rec.ext_alphabet)
    assert not membership(rec, bad)
    none = parse_tree("f(a,b)", rec.ext_alphabet)
    assert not membership(rec, none)


@pytest.mark.parametrize(
    "phi,Y",
    [
        (Less("x", "y"), ("x", "y")),
        (Succ(1, "x", "y"), ("x", "y")),
        (Succ(2, "x", "y"), ("x", "y")),
    ],
)
def test_compile_atomic_binary(phi, Y):
    rec = compile_atomic(phi, SIG, Y, 0)
    for t, lam, s in structures(SIG, Y, 0, 3):
        assert membership(rec, s) == satisfies(t, lam, phi)


@pytest.mark.parametrize(
    "phi",
    [Max(1, 1, "x"), Max(2, 1, "x"), LeftJ(1, "x"), RightJ(1, "x"), RightJ(2, "x")],
)
def test_compile_atomic_rank_one_atoms(phi):
    rec = compile_atomic(phi, SIG, ("x",), 1)
    for t, lam, s in structures(SIG, ("x",), 1, 3):
        assert membership(rec, s) == satisfies(t, lam, phi)


# -- Boolean combinations -------------------------------------------------------


def test_compile_negation_flips_on_structures():
    phi = PSym("a", "x")
    comp = Compiler(SIG, 0)
    rec = comp.compile(phi, ("x",))
    neg = comp.compile(Not(phi), ("x",))
    assert neg.pgpair is rec.pgpair  # same recognizer, complemented accepting
    assert neg.accepting == rec.valid - rec.accepting
    for t, lam, s in structures(SIG, ("x",), 0, 3):
        assert membership(neg, s) == (not membership(rec, s))


def test_compile_or_and():
    a, b = Root("x"), PSym("a", "x")
    for phi in (Or(a, b), And(a, b), And(Not(a), b)):
        assert_equiv(phi, SIG, ("x",), 0)


def test_compile_false_empty_accepting():
    rec = compile_formula(FALSE, DBOOL, (), 0)
    assert rec.accepting == frozenset()
    for t in enumerate_trees(DBOOL, 0, 3):
        assert not membership(rec, t)


def test_boolean_pointwise_semantics():
    a = parse_formula("exists x. P[1_0](x)", DBOOL, 0)
    b = parse_formula("exists x. P[1_2](x) & root(x)", DBOOL, 0)
    comp = Compiler(DBOOL, 0)
    ra, rb = comp.compile(a, ()), comp.compile(b, ())
    rboth = comp.compile(Or(a, b), ())
    rneg = comp.compile(Not(a), ())
    # the Boolean carrier is generated in the product: each gamma-value is
    # keyed by the pair of the factors' gamma-values
    carrier = rboth.pgpair.preclone
    for t in enumerate_trees(DBOOL, 0, 3):
        assert membership(rboth, t) == (membership(ra, t) or membership(rb, t))
        assert membership(rneg, t) == (not membership(ra, t))
        assert carrier.key(rboth.gamma.eval(t)) == (ra.gamma.eval(t), rb.gamma.eval(t))


# -- quantifiers -----------------------------------------------------------------


def test_exists_matches_satisfies():
    phi = parse_formula("exists x. P[1_0](x)", DBOOL, 0)
    assert_equiv(phi, DBOOL, (), 0, max_nv=3)


def test_qk_over_k_path():
    langs = {"kp": k_path(DBOOL, 0)}
    phi = parse_formula(
        "Q[kp] x { 1_0: P[1_0](x); 0_0: !P[1_0](x); 1_2: P[1_2](x); 0_2: !P[1_2](x) }",
        DBOOL, 0, langs,
    )
    assert_equiv(phi, DBOOL, (), 0)


def test_second_projection_of_gamma_agrees_with_tau():
    # the second components of gamma are exactly the simultaneous morphism,
    # on generators and (homomorphically) on all trees, for a quantifier and
    # for its negation, which shares the carrier
    phi = parse_formula("exists x. P[1_0](x)", DBOOL, 0)
    for psi in (phi, Not(phi)):
        rec = compile_formula(psi, DBOOL, (), 0)
        carrier = rec.pgpair.preclone
        assert rec.tau is not None
        for name, el in rec.gamma.image.items():
            assert carrier.key(el)[1] == rec.tau.image[name]
        assert carrier.key(carrier.unit)[1] == rec.tau.target.unit
        for t in enumerate_trees(DBOOL, 0, 3):
            assert carrier.key(rec.gamma.eval(t))[1] == rec.tau.eval(t)


def test_membership_on_unit_for_rank_one():
    phi = parse_formula("exists x. P[1_0](x)", DBOOL, 1)
    rec = compile_formula(phi, DBOOL, (), 1)
    assert membership(rec, UNIT) == satisfies(UNIT, {}, phi)


def test_mod_quantifier_equivalence():
    for p, r in [(2, 0), (2, 1), (3, 1)]:
        phi = parse_formula(f"mod[{p},{r}] x. P[1_0](x) | P[1_2](x)", DBOOL, 0)
        assert_equiv(phi, DBOOL, (), 0)


def test_nested_exists():
    phi = parse_formula("exists x. exists y. x<y & P[1_0](y)", DBOOL, 0)
    assert_equiv(phi, DBOOL, (), 0)


def test_free_variable_quantified_mix():
    phi = parse_formula("P[1_2](z) & exists x. succ_1(z,x)", DBOOL, 0)
    assert free_vars(phi) == {"z"}
    assert_equiv(phi, DBOOL, ("z",), 0)


def test_rank_one_quantifier():
    phi = parse_formula("exists x. P[1_0](x) & right[2](x)", DBOOL, 1)
    assert_equiv(phi, DBOOL, (), 1)


def test_determinism_violation_detected():
    # family where both rank-0 letters hold at a-nodes
    K = k_exists(DBOOL, 0)
    fam = (("1_0", TRUE), ("0_0", TRUE), ("1_2", TRUE), ("0_2", FALSE))
    phi = QK("K", K, "x", fam)
    with pytest.raises(DeterminismViolation):
        compile_formula(phi, SIG, (), 0)


def test_corrupted_accepting_set_reported():
    phi = parse_formula("exists x. P[1_0](x)", DBOOL, 0)
    rec = compile_formula(phi, DBOOL, (), 0)
    broken = CompiledRecognizer(
        rec.pgpair, rec.gamma, frozenset(rec.valid - rec.accepting), rec.valid,
        rec.rank, rec.variables, rec.sigma, rec.ext_alphabet, rec.automaton,
    )
    rep = check_equivalence(phi, broken, 3)
    assert not rep.ok and len(rep.mismatches) > 0


def test_flattening_equivalence():
    # Q_K with K defined by a sentence equals the tilde-substituted sentence
    psi = parse_formula("exists w. P[1_0](w)", DBOOL, 0)  # sentence over Dbool
    # realize K = L_psi as an automaton via a compiled recognizer's companion
    rec_psi = compile_formula(psi, DBOOL, (), 0)
    K = rec_psi.automaton
    fam = boolean_family(PSym("a", "x"), SIG)
    phi_qk = QK("Lpsi", K, "x", fam)
    phi_flat = tilde_substitute(psi, "x", dict(fam), DBOOL, SIG)
    rec_qk = compile_formula(phi_qk, SIG, (), 0)
    rec_flat = compile_formula(phi_flat, SIG, (), 0)
    for t in enumerate_trees(SIG, 0, 3):
        want = satisfies(t, {}, phi_qk)
        assert membership(rec_qk, t) == want
        assert membership(rec_flat, t) == want
        assert satisfies(t, {}, phi_flat) == want


def membership_interp(rec, t, lam):
    """Membership of the structure that the tree t and interpretation lam encode."""
    return membership(rec, mk_structure(t, lam))


def test_membership_interp_matches_structure_path():
    phi = parse_formula("P[1_2](z) & exists x. succ_1(z,x)", DBOOL, 0)
    rec = compile_formula(phi, DBOOL, ("z",), 0)
    for t, lam, s in structures(DBOOL, ("z",), 0, 3):
        assert membership_interp(rec, t, lam) == membership(rec, s)


def test_compiler_cache_shares_recognizers():
    comp = Compiler(DBOOL, 0)
    phi = PSym("1_0", "x")
    r1 = comp.compile(phi, ("x",))
    r2 = comp.compile(phi, ("x",))
    assert r1 is r2


def test_compiler_cache_shares_family_copies():
    # ex04 is exists x. exists y. ...: the inner quantifier's four family
    # copies are one formula, whose automaton is built once; only the two
    # quantifiers build a carrier
    phi, sigma, k, _ = load_formula_file(os.path.join(CORPUS, "ex04.lind"))
    comp = Compiler(sigma, k)
    comp.compile(phi, ())
    assert len(comp._automata) <= 7
    assert all(isinstance(f, QK) for f, _ in comp._cache) and len(comp._cache) == 2


def test_compiler_cache_shares_equal_sugared_quantifiers():
    # the two sides parse to one formula and compile to one cache entry
    phi = parse_formula("(exists x. P[1_0](x)) | (exists x. P[1_0](x))", DBOOL, 0)
    comp = Compiler(DBOOL, 0)
    comp.compile(phi, ())
    assert sum(isinstance(f, QK) for f, _ in comp._cache) == 1


def test_check_equivalence_skips_the_rank_walk(monkeypatch):
    # structures() yields rank-k trees by construction, so the harness
    # tests gamma directly; a direct membership call keeps its rank check
    import preclones.compiler as compiler

    phi = parse_formula("exists x. P[1_0](x)", DBOOL, 0)
    rec = compile_formula(phi, DBOOL, (), 0)
    walked = []

    def counting_rank(t):
        walked.append(t)
        return tree_rank(t)

    monkeypatch.setattr(compiler, "tree_rank", counting_rank)
    rep = check_equivalence(phi, rec, 3)
    assert rep.ok and rep.checked > 0
    assert walked == []
    with pytest.raises(ValueError):
        membership(rec, UNIT)
    assert walked and all(t is UNIT for t in walked)


def test_rank_mismatch_rejected():
    phi = parse_formula("exists x. P[1_0](x)", DBOOL, 0)
    rec = compile_formula(phi, DBOOL, (), 0)
    with pytest.raises(ValueError):
        membership(rec, UNIT)


@pytest.mark.parametrize("k", [0, 1])
def test_joint_context_partition_is_a_congruence(k):
    # the compiler quotients its simultaneous recognizer without the full
    # verification pass; replay the pipeline here with verification on
    from preclones.automata import product
    from preclones.preclone import (
        accepting_elements,
        quotient,
        transformation_pgpair,
    )
    from preclones.syntactic import syntactic_congruence

    phi = parse_formula("exists x. P[1_0](x)", DBOOL, k)
    comp = Compiler(DBOOL, k)
    recs = {d: comp.compile(sub, (phi.var,)) for d, sub in phi.family}
    order = sorted(recs)
    joint, tuples = product([recs[d].automaton for d in order])
    # the family is P[1_0](x) and its negation, which share one transition
    # table: the reachable product is the diagonal
    assert all(len(set(s)) == 1 for s in tuples)
    finals_in = [
        frozenset(i for i, s in enumerate(tuples) if s[j] in recs[d].automaton.finals)
        for j, d in enumerate(order)
    ]
    joint, finals_out = minimize(joint, finals_in)
    res = transformation_pgpair(joint, max(k + 1, DBOOL.max_arity))
    sets = [frozenset(accepting_elements(res, F)) for F in finals_out]
    T0 = res.pgpair.preclone
    blocks = syntactic_congruence(T0, k, sets[0], extra_sets=sets[1:])
    quotient(T0, blocks, verify=True)  # raises NotACongruence on failure


# -- check_equivalence against the structure walk -------------------------------


def reference_check_equivalence(phi, rec, max_nv):
    """check_equivalence as the structure walk: each (tree, lam, structure)
    of ``structures``, satisfaction through ``evaluator``, membership
    through ``gamma.eval`` of the structure tree."""
    holds = evaluator(phi)
    checked = accepted = 0
    mismatches = []
    for t, lam, s in structures(rec.sigma, rec.variables, rec.rank, max_nv):
        want = holds(t, lam)
        checked += 1
        accepted += 1 if want else 0
        if want != (rec.gamma.eval(s) in rec.accepting):
            mismatches.append((t, lam))
    return EquivalenceReport(checked, accepted, mismatches)


@functools.cache
def corpus_recognizer(name):
    phi, sigma, k, _ = load_formula_file(os.path.join(CORPUS, name + ".lind"))
    return phi, compile_formula(phi, sigma, tuple(sorted(free_vars(phi))), k)


# the recognizer corruptions of the witness goldens
_spec = importlib.util.spec_from_file_location(
    "make_golden", os.path.join(os.path.dirname(__file__), "golden", "make_golden.py"))
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


CORPUS_NAMES = tuple(f"ex{i:02d}" for i in range(1, 33))


@pytest.mark.parametrize("name,max_nv", [(name, 4) for name in CORPUS_NAMES]
                         + [("ex31", 5), ("ex32", 5)])
def test_check_equivalence_matches_the_structure_walk(name, max_nv):
    phi, rec = corpus_recognizer(name)
    rep = check_equivalence(phi, rec, max_nv)
    assert rep == reference_check_equivalence(phi, rec, max_nv)
    assert rep.ok and rep.checked > 0


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_check_equivalence_matches_the_structure_walk_on_corrupted_recognizers(name):
    phi, rec = corpus_recognizer(name)
    bad = make_golden.corrupted(rec, "complement")
    rep = check_equivalence(phi, bad, 4)
    assert rep == reference_check_equivalence(phi, bad, 4)
    assert len(rep.mismatches) == rep.checked > 0
    bad = make_golden.corrupted(rec, "swap")
    if bad is not None:  # 22 of the 32 recognizers have such a pair
        rep = check_equivalence(phi, bad, 4)
        assert rep == reference_check_equivalence(phi, bad, 4)
        assert rep.mismatches


# the recognizers of a constant language have one element of sort k, so no
# corrupted value of a root composition can change a verdict
CONSTANT_NAMES = ("ex16", "ex17", "ex18", "ex29", "ex30")


@pytest.mark.parametrize("name", [n for n in CORPUS_NAMES if n not in CONSTANT_NAMES])
def test_check_equivalence_catches_a_corrupted_compose_memo_entry(name, monkeypatch):
    # the first structure with children at its root: its root composition's
    # memo entry is sent to an element of sort k on the other side of the
    # accepting set, so that structure's membership flips
    phi, rec = corpus_recognizer(name)
    gamma, pre = rec.gamma, rec.gamma.target
    for t, lam, s in structures(rec.sigma, rec.variables, rec.rank, 4):
        if s.children:
            break
    right = gamma.eval(s) in rec.accepting
    wrong = [el for el in pre.sort(rec.rank) if (el in rec.accepting) != right]
    key = (gamma.image[s.label], tuple(gamma.eval(c) for c in s.children))
    assert pre.compose(*key) == gamma.eval(s)
    monkeypatch.setitem(pre._memo, key, wrong[0])
    rep = check_equivalence(phi, rec, 4)
    assert (t, lam) in rep.mismatches


@pytest.mark.parametrize("name", CONSTANT_NAMES)
def test_constant_recognizers_have_one_element_of_sort_k(name):
    _, rec = corpus_recognizer(name)
    assert rec.gamma.target.sort_size(rec.rank) == 1


def dag_trees(dag):
    """The tree of every forest entry, by serial, built from its children's."""
    built = []
    for label, kids, _ in dag:
        built.append(RankedTree(label, tuple(built[c] for c in kids)))
    return built


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_eval_dag_matches_eval_on_every_forest_entry(name):
    _, rec = corpus_recognizer(name)
    dag, levels = forest(rec.sigma, rec.rank, 4)
    assert rec.gamma.eval_dag(dag) == [rec.gamma.eval(t) for t in dag_trees(dag)]
    assert any(levels)


# sentences with a binary tree whose children, exchanged, change its verdict
ASYMMETRIC_NAMES = ("ex05", "ex19", "ex21", "ex22", "ex23", "ex24", "ex25", "ex26",
                    "ex27", "ex28")


@pytest.mark.parametrize("name", ASYMMETRIC_NAMES)
def test_check_equivalence_catches_a_dag_entry_with_swapped_children(name, monkeypatch):
    phi, rec = corpus_recognizer(name)
    dag, levels = forest(rec.sigma, rec.rank, 4)
    values, pre, image = rec.gamma.eval_dag(dag), rec.gamma.target, rec.gamma.image

    def flips(s):
        label, kids, _ = dag[s]
        if len(kids) != 2 or kids[0] == kids[1]:
            return False
        swapped = pre.compose(image[label], (values[kids[1]], values[kids[0]]))
        return (swapped in rec.accepting) != (values[s] in rec.accepting)

    s = next(s for level in levels for s in level if flips(s))
    label, kids, text = dag[s]
    t = dag_trees(dag)[s]
    eval_dag = rec.gamma.eval_dag

    def corrupted_eval_dag(dag):
        # gamma reads the entry swapped; satisfaction reads the dag as built
        return eval_dag(dag[:s] + [(label, kids[::-1], text)] + dag[s + 1:])

    monkeypatch.setattr(rec.gamma, "eval_dag", corrupted_eval_dag)
    rep = check_equivalence(phi, rec, 4)
    assert (t, {}) in rep.mismatches  # and trees above it, wherever it shows


def structure_gammas(phi, rec, max_nv):
    """The gamma value check_equivalence gives each structure, in order: the
    elements it looks up in the accepting set."""
    seen = []

    class Recording(frozenset):
        def __contains__(self, el):
            seen.append(el)
            return frozenset.__contains__(self, el)

    check_equivalence(phi, dataclasses.replace(rec, accepting=Recording(rec.accepting)), max_nv)
    return seen


@pytest.mark.parametrize("name", ["ex31", "ex32"])
def test_structure_gamma_is_eval_of_the_structure(name):
    # a structure recomposes only the nodes holding a variable and their
    # ancestors; its value must be gamma of the whole structure tree
    phi, rec = corpus_recognizer(name)
    want = [rec.gamma.eval(s) for _, _, s in structures(rec.sigma, rec.variables, rec.rank, 5)]
    assert structure_gammas(phi, rec, 5) == want
    assert want


def mutant_compiler(monkeypatch, old, new):
    """A copy of preclones.compiler with ``old`` replaced by ``new``."""
    import preclones.compiler as compiler

    source = inspect.getsource(compiler)
    assert source.count(old) == 1, old
    mutant = types.ModuleType("preclones.compiler_mutant")
    mutant.__package__ = "preclones"
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    exec(compile(source.replace(old, new), compiler.__file__, "exec"), vars(mutant))
    return mutant


@pytest.mark.parametrize("name", ["ex31", "ex32"])
def test_check_equivalence_catches_ancestors_left_unrecomposed(name, monkeypatch):
    # the mutation recomposes each node holding a variable but reads the
    # values above it off the forest, as if no variable sat there; at
    # max_nv 5 that gives 32 mismatches on ex31 and 266 on ex32
    phi, rec = corpus_recognizer(name)
    test = "if i in letters or least < nodes.end[i]:"
    same = mutant_compiler(monkeypatch, test, test)
    assert same.check_equivalence(phi, rec, 5).ok  # the harness alone finds nothing
    mutant = mutant_compiler(monkeypatch, test, "if i in letters:")
    assert mutant.check_equivalence(phi, rec, 5).mismatches


def test_a_closed_quantifier_runs_once_per_node_table(monkeypatch):
    # ex32 is left[1](z) -> exists x. P[1_0](x): the exists is closed, so it
    # has one value per tree, however many placements of z the tree has
    import preclones.logic as logic

    phi, rec = corpus_recognizer("ex32")
    want = reference_check_equivalence(phi, rec, 5)
    by_rank, visits = logic._by_rank, []

    def spying(delta, formulas):
        letters = by_rank(delta, formulas)
        return {m: lambda n, e, f=letters[m]: visits.append(n) or f(n, e)
                for m in delta.arities()}

    monkeypatch.setattr(logic, "_by_rank", spying)
    rep = check_equivalence(phi, rec, 5)
    assert rep == want
    tables = list({id(n): n for n in visits}.values())
    assert len(visits) == sum(len(n.labels) for n in tables)  # one pass per table
    assert 0 < len(tables) < rep.checked


@pytest.mark.parametrize("name,per_tree", [("ex01", 0), ("ex03", 1), ("ex31", 1)])
def test_node_tables_built_by_a_passing_check(name, per_tree, monkeypatch):
    # ex01 is decided once per forest entry; ex03 reads root(x) and ex31 has
    # a free z, so each of their trees gets one node table
    import preclones.compiler as compiler
    import preclones.logic as logic

    phi, rec = corpus_recognizer(name)
    built = []

    class Counting(logic._Nodes):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(logic, "_Nodes", Counting)
    monkeypatch.setattr(compiler, "_Nodes", Counting)
    assert check_equivalence(phi, rec, 4).ok
    _, levels = forest(rec.sigma, rec.rank, 4)
    assert len(built) == per_tree * sum(map(len, levels))


def raised(fn, *args):
    """The type, message, node and letters of what fn(*args) raises."""
    with pytest.raises((DeterminismViolation, ValueError)) as info:
        fn(*args)
    exc = info.value
    return type(exc), str(exc), getattr(exc, "node", None), getattr(exc, "satisfied", None)


def kpath_formula(text, k=0):
    langs = {"kpath": k_path(DBOOL, k), "kex": k_exists(DBOOL, k)}
    return parse_formula(text, DBOOL, k, langs)


def k_without(K, letter):
    return dataclasses.replace(K, transitions={d: t for d, t in K.transitions.items()
                                               if d != letter})


FAM = boolean_family(PSym("1_0", "x"), DBOOL)
RAISING = {
    # two letters or none hold at some nodes, with a free z (the table path)
    "partial_z_less": (kpath_formula(
        "Q[kpath] x { 1_0: P[1_0](x) | z<x; 0_0: !P[1_0](x); 1_2: P[1_2](x);"
        " 0_2: !P[1_2](x) & !root(x) }"), ("z",), 0),
    "partial_z_succ": (kpath_formula(
        "Q[kpath] x { 1_0: P[1_0](x); 0_0: !P[1_0](x); 1_2: succ_1(x,z) | P[1_2](z);"
        " 0_2: !succ_1(x,z) & !P[0_2](x) }"), ("z",), 0),
    # the same in sentences decided once per entry
    "two_letters": (kpath_formula(
        "Q[kpath] x { 1_0: P[1_0](x); 0_0: !P[1_0](x); 1_2: true; 0_2: P[0_2](x) }"), (), 0),
    "no_letter_behind_a_conjunct": (kpath_formula(
        "(exists y. P[1_2](y)) & Q[kpath] x { 1_0: P[1_0](x); 0_0: P[0_0](x) & x<x;"
        " 1_2: P[1_2](x); 0_2: !P[1_2](x) }"), (), 0),
    "no_letter_without_a_var_child": (kpath_formula(
        "!(exists y. P[0_0](y)) | Q[kex] x { 1_0: P[1_0](x); 0_0: P[0_0](x);"
        " 1_2: max[1,1](x); 0_2: max[2,1](x) }", 1), (), 1),
    # a v_j outside K's rank, and a letter missing from K
    "var_outside_rank": (And(QK("ex2", k_exists(DBOOL, 2), "x", FAM),
                            QK("ex1", k_exists(DBOOL, 1), "x", FAM)), (), 2),
    "letter_missing": (And(QK("ex", k_exists(DBOOL, 0), "x", boolean_family(TRUE, DBOOL)),
                           QK("gap", k_without(k_exists(DBOOL, 0), "0_2"), "x", FAM)), (), 0),
}


@pytest.mark.parametrize("case", sorted(RAISING))
def test_check_equivalence_raises_what_the_table_pass_raises(case):
    import preclones.logic as logic

    phi, Y, k = RAISING[case]
    assert (logic.sentence_evaluator(phi) is None) == bool(Y)
    rec = compile_formula(TRUE, DBOOL, Y, k)
    max_nv = 3 if k == 2 else 4
    assert raised(check_equivalence, phi, rec, max_nv) == raised(
        reference_check_equivalence, phi, rec, max_nv)


# -- companion automata without carriers ------------------------------------------


def corpus_compiler(name):
    phi, sigma, k, _ = load_formula_file(os.path.join(CORPUS, name + ".lind"))
    comp = Compiler(sigma, k)
    comp.compile(phi, tuple(sorted(free_vars(phi))))
    return comp


def built_without_a_carrier(comp):
    return [key for key in comp._automata if key not in comp._cache]


def reference_companion(sigma, k, phi, W):
    """The companion automaton as each recognizer built its own: the atom's
    from compile_atomic, the complement, the minimized union or
    intersection of the parts', and a Q_K's off its carrier."""
    if isinstance(phi, Not):
        return complement(reference_companion(sigma, k, phi.sub, W))
    if isinstance(phi, (Or, And)):
        combine = union if isinstance(phi, Or) else intersect
        return minimize(combine(reference_companion(sigma, k, phi.left, W),
                                reference_companion(sigma, k, phi.right, W)))
    if isinstance(phi, QK):
        return Compiler(sigma, k).compile(phi, W).automaton
    return compile_atomic(phi, sigma, W, k).automaton


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_automaton_recursion_matches_the_compiled_companion(name):
    # every automaton a Q_K family reads without compiling its member is
    # the automaton that compiling the member gives, and the one each
    # recognizer built for itself
    comp = corpus_compiler(name)
    for phi, W in built_without_a_carrier(comp):
        got = comp._automata[phi, W]
        assert automaton_equal(got, Compiler(comp.sigma, comp.k).compile(phi, W).automaton)
        assert automaton_equal(got, reference_companion(comp.sigma, comp.k, phi, W))


def test_corpus_compiles_build_only_the_carriers_they_read(monkeypatch):
    # the top-level formula and each Q_K build a carrier, and a Q_K builds
    # its simultaneous recognizer; a carrier of a family member is never read
    import preclones.blockprod as blockprod
    import preclones.compiler as compiler
    import preclones.preclone as preclone
    import preclones.syntactic as syntactic

    calls = {"generated": 0, "transformation_pgpair": 0}

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    generated = counting("generated", preclone.generated)
    monkeypatch.setattr(preclone, "generated", generated)
    monkeypatch.setattr(blockprod, "generated", generated)
    monkeypatch.setattr(compiler, "generated", generated)
    tpg = counting("transformation_pgpair", preclone.transformation_pgpair)
    monkeypatch.setattr(compiler, "transformation_pgpair", tpg)
    monkeypatch.setattr(syntactic, "transformation_pgpair", tpg)
    automata_only = sum(len(built_without_a_carrier(corpus_compiler(name)))
                        for name in CORPUS_NAMES)
    assert calls == {"generated": 116, "transformation_pgpair": 76}
    assert automata_only == 106


# -- the division check: the carrier maps onto the syntactic pg-pair ----------------


def division_faults(rec, image):
    """What keeps the carrier, under the letter images ``image``, from
    mapping onto the syntactic pg-pair of its language.

    The syntactic side is judged on validity too: the product of
    ``rec.automaton`` and the automaton of the valid structures (the
    finals of ``Compiler.automaton(TRUE, ...)``) is minimized with both
    final sets, and its transformation pg-pair is quotiented by the
    congruence that saturates the language and the valid set.  One
    ``generated`` call in the product of the carrier and that quotient,
    from the pairs (image(a), syn(a)) and capped at the rank k, reaches the
    relation that both morphisms induce on rank-k trees.  It comes from a
    morphism iff it is functional in the carrier element; that morphism is
    onto sort k, and it recognizes the language iff validity agrees on
    every pair and the accepting sets agree on the valid ones.

    Caveat: for a quantifier formula, ``rec.automaton`` is read off the
    carrier itself, so the check is circular until an automaton built by an
    independent compile route stands in for it.
    """
    from preclones.automata import product
    from preclones.preclone import (accepting_elements, direct_product, generated, quotient,
                                    transformation_pgpair)
    from preclones.syntactic import syntactic_congruence

    carrier, k, lang = rec.pgpair.preclone, rec.rank, rec.automaton
    valid = Compiler(rec.sigma, k).automaton(TRUE, rec.variables)
    both, states = product([lang, valid])
    finals = frozenset(i for i, (p, _) in enumerate(states) if p in lang.finals)
    both, (valid_states,) = minimize(dataclasses.replace(both, finals=finals),
                                     [{i for i, (_, q) in enumerate(states) if q in valid.finals}])
    res = transformation_pgpair(both, carrier.trunc)
    T0 = res.pgpair.preclone
    P_acc, P_val = accepting_elements(res), accepting_elements(res, valid_states)
    syn, proj = quotient(T0, syntactic_congruence(T0, k, P_acc, extra_sets=[P_val]))
    letters = ((name, m, (image[name], proj[res.morphism.image[name]]))
               for name, m in rec.ext_alphabet.symbols)
    pg, _ = generated(direct_product([carrier, syn]), letters, k)
    pairs = [pg.preclone.key(el) for el in pg.preclone.sort(k)]
    syn_acc, syn_val = {proj[el] for el in P_acc}, {proj[el] for el in P_val}
    faults = []
    if len({x for x, _ in pairs}) != len(pairs):
        faults.append("not a function")
    if {y for _, y in pairs} != set(syn.sort(k)):
        faults.append("not onto sort k")
    if any((x in rec.valid) != (y in syn_val) for x, y in pairs):
        faults.append("valid sets differ")
    if any((x in rec.accepting) != (y in syn_acc) for x, y in pairs if y in syn_val):
        faults.append("accepting sets differ")
    return faults


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_compiled_carrier_maps_onto_the_syntactic_pgpair(name):
    _, rec = corpus_recognizer(name)
    assert division_faults(rec, rec.gamma.image) == []


def gamma_mutant(rec):
    """rec's letter images with the first letter whose sort holds another
    element sent to the first such element; None if every such sort is a
    singleton."""
    carrier, image = rec.pgpair.preclone, dict(rec.gamma.image)
    for letter, m in rec.ext_alphabet.symbols:
        others = [el for el in carrier.sort(m) if el != image[letter]]
        if others:
            image[letter] = others[0]
            return image
    return None


def memo_mutant(rec):
    """(memo key, wrong result) for the first carrier memo entry whose head
    is a letter image, whose result has rank <= k and whose result sort
    holds another element; None if there is none."""
    carrier, heads = rec.pgpair.preclone, set(rec.gamma.image.values())
    for key, el in carrier._memo.items():
        others = [x for x in carrier.sort(el[0]) if x != el]
        if key[0] in heads and el[0] <= rec.rank and others:
            return key, others[0]
    return None


# the corpus formulas with a mutant; every one is caught but ex23's memo mutant
GAMMA_MUTANT_NAMES = tuple(f"ex{i:02d}" for i in (*range(1, 16), 19, 20, 22, 25, 26, 27, 31, 32))
MEMO_MUTANT_NAMES = tuple(f"ex{i:02d}" for i in (*range(1, 16), *range(19, 29), 31, 32))


def test_the_mutant_lists_hold_every_formula_with_a_mutant():
    recs = {name: corpus_recognizer(name)[1] for name in CORPUS_NAMES}
    assert GAMMA_MUTANT_NAMES == tuple(n for n, rec in recs.items() if gamma_mutant(rec))
    assert MEMO_MUTANT_NAMES == tuple(n for n, rec in recs.items() if memo_mutant(rec))


@pytest.mark.parametrize("name", GAMMA_MUTANT_NAMES)
def test_a_corrupted_gamma_image_fails_the_division_check(name):
    _, rec = corpus_recognizer(name)
    assert division_faults(rec, gamma_mutant(rec))


def with_memo_mutant(rec, check):
    """check(rec) while rec's carrier memo holds ``memo_mutant(rec)``."""
    key, wrong = memo_mutant(rec)
    memo = rec.pgpair.preclone._memo
    right, memo[key] = memo[key], wrong
    try:
        return check(rec)
    finally:
        memo[key] = right


@pytest.mark.parametrize("name", [n for n in MEMO_MUTANT_NAMES if n != "ex23"])
def test_a_corrupted_carrier_memo_entry_fails_the_division_check(name):
    _, rec = corpus_recognizer(name)
    assert with_memo_mutant(rec, lambda r: division_faults(r, r.gamma.image))


def test_the_memo_mutant_of_ex23_recognizes_the_same_language():
    # it sends f(a, v1) to the unit instead of another rank-1 element, and
    # at rank 1 no node of f(a, .) has one variable on its left, so
    # left[1](x) cannot tell f(a, v1) from v1: both elements lie in one
    # syntactic class, and the check rightly finds nothing
    phi, rec = corpus_recognizer("ex23")
    assert memo_mutant(rec)[1] == rec.pgpair.preclone.unit
    assert with_memo_mutant(rec, lambda r: division_faults(r, r.gamma.image)) == []
    assert with_memo_mutant(rec, lambda r: check_equivalence(phi, r, 5)).ok
