import os

import pytest

from preclones.automata import boolean_alphabet, k_exists, k_path
from preclones.cli import load_formula_file
from preclones.compiler import (
    CompiledRecognizer,
    Compiler,
    check_equivalence,
    compile_atomic,
    compile_formula,
    membership,
    membership_interp,
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
    free_vars,
    parse_formula,
    satisfies,
    structures,
    tilde_substitute,
)
from preclones.trees import UNIT, alphabet, enumerate_trees

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
    ra = compile_formula(a, DBOOL, (), 0)
    rb = compile_formula(b, DBOOL, (), 0)
    rboth = compile_formula(Or(a, b), DBOOL, (), 0)
    rneg = compile_formula(Not(a), DBOOL, (), 0)
    for t in enumerate_trees(DBOOL, 0, 3):
        assert membership(rboth, t) == (membership(ra, t) or membership(rb, t))
        assert membership(rneg, t) == (not membership(ra, t))


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
    # on generators and (homomorphically) on all trees
    phi = parse_formula("exists x. P[1_0](x)", DBOOL, 0)
    rec = compile_formula(phi, DBOOL, (), 0)
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
    # copies are one formula, compiled once
    phi, sigma, k, _ = load_formula_file(os.path.join(CORPUS, "ex04.lind"))
    comp = Compiler(sigma, k)
    comp.compile(phi, ())
    assert len(comp._cache) <= 7


def test_compiler_cache_shares_equal_sugared_quantifiers():
    # the two sides parse to one formula and compile to one cache entry
    phi = parse_formula("(exists x. P[1_0](x)) | (exists x. P[1_0](x))", DBOOL, 0)
    comp = Compiler(DBOOL, 0)
    comp.compile(phi, ())
    assert sum(isinstance(f, QK) for f, _ in comp._cache) == 1


def test_rank_mismatch_rejected():
    phi = parse_formula("exists x. P[1_0](x)", DBOOL, 0)
    rec = compile_formula(phi, DBOOL, (), 0)
    with pytest.raises(ValueError):
        membership(rec, UNIT)


@pytest.mark.parametrize("k", [0, 1])
def test_joint_context_partition_is_a_congruence(k):
    # the compiler quotients its simultaneous recognizer without the full
    # verification pass; replay the pipeline here with verification on
    from preclones.automata import minimize, product
    from preclones.preclone import (
        apply_transformation,
        quotient,
        transformation_pgpair,
    )
    from preclones.syntactic import syntactic_congruence

    phi = parse_formula("exists x. P[1_0](x)", DBOOL, k)
    comp = Compiler(DBOOL, k)
    recs = {d: comp.compile(sub, (phi.var,)) for d, sub in phi.family}
    order = sorted(recs)
    distinct = [recs[order[0]].automaton]
    joint, tuples = product(distinct)
    finals_in = [
        frozenset(i for i, s in enumerate(tuples) if s[0] in recs[d].automaton.finals)
        for d in order
    ]
    joint, finals_out = minimize(joint, finals_in)
    res = transformation_pgpair(joint, max(k + 1, DBOOL.max_arity))
    T0 = res.pgpair.preclone
    sets = [
        frozenset(
            el for el in T0.sort(k)
            if apply_transformation(T0, el, joint.var_state) in F
        )
        for F in finals_out
    ]
    blocks = syntactic_congruence(T0, k, sets[0], extra_sets=sets[1:])
    quotient(T0, blocks, verify=True)  # raises NotACongruence on failure
