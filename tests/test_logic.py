import inspect
import itertools
import os
import random
import sys
import types
from dataclasses import replace

import pytest

from preclones import logic
from preclones.automata import (
    TreeAutomaton,
    boolean_alphabet,
    complement,
    k_exists,
    load_automaton,
)
from preclones.cli import load_formula_file
from preclones.compiler import check_equivalence, compile_formula
from preclones.errors import DeterminismViolation, ParseError
from preclones.logic import (
    And,
    FalseF,
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
    TrueF,
    apply_literal_morphism,
    boolean_family,
    characteristic_tree,
    check_deterministic,
    evaluator,
    exists_formula,
    ext_symbol,
    extend_alphabet,
    free_vars,
    inverse_literal_image,
    mk_structure,
    parse_formula,
    satisfies,
    split_symbol,
    structures,
    substitute_var,
    tilde_substitute,
)
from preclones.trees import (
    UNIT,
    RankedTree,
    alphabet,
    enumerate_trees,
    forest,
    load_alphabet,
    parse_tree,
    rank,
    subtree_at,
    tree_to_text,
)
from tree_oracles import nv_nodes, vars_left_of

SIG = alphabet("f/2", "a/0", "b/0")
DBOOL = boolean_alphabet([0, 2])


def destructure(t: RankedTree, zs=None):
    """Decode a structure into (base tree, interpretation).

    With ``zs`` given, checks that each of those variables occurs exactly
    once.
    """
    lam = {}

    def walk(s, path):
        if s.is_var():
            return s
        base, here = split_symbol(s.label)
        for z in here:
            if z in lam:
                raise ValueError(f"variable {z} occurs twice")
            lam[z] = path
        kids = tuple(walk(c, path + (i,)) for i, c in enumerate(s.children))
        return RankedTree(base, kids)

    base_tree = walk(t, ())
    if zs is not None and set(lam) != set(zs):
        raise ValueError(f"structure carries {sorted(lam)}, expected {sorted(zs)}")
    return base_tree, lam


def count_ones(t):
    if t.is_var():
        return 0
    own = 1 if str(t.label).startswith("1_") else 0
    return own + sum(count_ones(c) for c in t.children)


# -- parsing -----------------------------------------------------------------


def test_parse_atoms():
    phi = parse_formula("P[f](x) & !root(x)", SIG, 0)
    assert isinstance(phi, And)
    assert phi.left == PSym("f", "x")
    assert phi.right == Not(Root("x"))


def test_parse_precedence():
    phi = parse_formula("P[a](x) | P[b](x) & root(x)", SIG, 0)
    assert isinstance(phi, Or)
    assert isinstance(phi.right, And)


def test_parse_implication():
    phi = parse_formula("root(x) -> P[f](x)", SIG, 0)
    assert phi == Or(Not(Root("x")), PSym("f", "x"))


def test_parse_less_and_succ():
    phi = parse_formula("x<y & succ_2(x,y)", SIG, 0)
    assert phi.left == Less("x", "y")
    assert phi.right == Succ(2, "x", "y")


def test_parse_left_sugar():
    phi = parse_formula("left[0](x)", SIG, 2)
    assert phi == And(Not(LeftJ(1, "x")), Not(LeftJ(2, "x")))
    phi2 = parse_formula("right[3](x)", SIG, 2)
    assert phi2 == And(Not(RightJ(1, "x")), Not(RightJ(2, "x")))


NO_LEFT_OR_RIGHT = {
    1: lambda J: Not(J(1, "x")),
    2: lambda J: And(Not(J(1, "x")), Not(J(2, "x"))),
    3: lambda J: And(And(Not(J(1, "x")), Not(J(2, "x"))), Not(J(3, "x"))),
}


@pytest.mark.parametrize("k", sorted(NO_LEFT_OR_RIGHT))
def test_parse_left_0_and_right_k_plus_1(k):
    assert parse_formula("left[0](x)", SIG, k) == NO_LEFT_OR_RIGHT[k](LeftJ)
    assert parse_formula(f"right[{k + 1}](x)", SIG, k) == NO_LEFT_OR_RIGHT[k](RightJ)
    for j in range(1, k + 1):
        assert parse_formula(f"left[{j}](x)", SIG, k) == LeftJ(j, "x")
        assert parse_formula(f"right[{j}](x)", SIG, k) == RightJ(j, "x")
    for bad in ("left[-1]", f"left[{k + 1}]", "right[0]", f"right[{k + 2}]"):
        with pytest.raises(ParseError):
            parse_formula(bad + "(x)", SIG, k)
    with pytest.raises(ParseError):
        parse_formula("left[0](x)", SIG, 0)
    with pytest.raises(ParseError):
        parse_formula("right[1](x)", SIG, 0)


def test_parse_rejects_bad_indices():
    with pytest.raises(ParseError):
        parse_formula("left[1](x)", SIG, 0)
    with pytest.raises(ParseError):
        parse_formula("max[1,1](x)", SIG, 0)
    with pytest.raises(ParseError):
        parse_formula("max[3,1](x)", SIG, 1)
    with pytest.raises(ParseError):
        parse_formula("succ_3(x,y)", SIG, 0)
    with pytest.raises(ParseError):
        parse_formula("P[zed](x)", SIG, 0)


def test_parse_exists_desugars_to_boolean_family():
    phi = parse_formula("exists x. P[a](x)", SIG, 0)
    assert isinstance(phi, QK)
    fam = dict(phi.family)
    assert set(fam) == {"1_0", "1_2", "0_0", "0_2"}
    assert isinstance(fam["0_2"], Not)
    # the binder is named by its depth
    assert phi.var.startswith("x$")
    assert free_vars(phi) == frozenset()


def test_parse_qk_family_checks():
    langs = {"K": k_exists(DBOOL, 0)}
    with pytest.raises(ParseError):  # missing letters
        parse_formula("Q[K] x { 1_0: true; 0_0: false }", SIG, 0, langs)
    with pytest.raises(ParseError):  # duplicate
        parse_formula(
            "Q[K] x { 1_0: true; 1_0: true; 0_0: false; 1_2: true; 0_2: false }",
            SIG, 0, langs,
        )
    with pytest.raises(ParseError):  # unknown language
        parse_formula("Q[nope] x { 1_0: true }", SIG, 0, langs)
    phi = parse_formula(
        "Q[K] x { 1_0: P[a](x); 0_0: !P[a](x); 1_2: P[a](x); 0_2: !P[a](x) }",
        SIG, 0, langs,
    )
    assert isinstance(phi, QK)


@pytest.mark.parametrize("text", [
    "exists x. x$1 < x",  # would be captured by the binder named x$1
    "P[a](u@v)",  # would encode as the structure label a@u@v
])
def test_parse_rejects_reserved_characters_in_variables(text):
    with pytest.raises(ParseError):
        parse_formula(text, SIG, 0)


def test_parse_names_binders_by_depth():
    phi = parse_formula("exists x. P[a](x) & (exists x. root(x)) & x<z", SIG, 0)
    assert phi.var == "x$1"
    body = dict(phi.family)["1_0"]
    inner = body.left.right
    assert inner.var == "x$2"
    assert dict(inner.family)["1_0"] == Root("x$2")
    assert body.left.left == PSym("a", "x$1")
    assert body.right == Less("x$1", "z")
    assert free_vars(phi) == {"z"}


def test_parse_twice_gives_equal_asts():
    # Q[K] takes its automaton from langs, and QK.lang compares by identity
    langs = {"K": k_exists(DBOOL, 0)}
    text = (
        "Q[K] x { 1_0: P[a](x); 0_0: !P[a](x); 0_2: !P[a](x); "
        "1_2: Q[K] y { 1_0: x<y; 0_0: !(x<y); 1_2: x<y; 0_2: !(x<y) } }"
    )
    first = parse_formula(text, SIG, 0, langs)
    second = parse_formula(text, SIG, 0, langs)
    assert first == second
    assert hash(first) == hash(second)


def test_parse_twice_gives_equal_sugared_asts():
    # exists and mod share one automaton per (alphabet, rank, parameters)
    text = "exists x. P[1_0](x) | mod[2,1] y. P[1_2](y)"
    first = parse_formula(text, DBOOL, 0)
    second = parse_formula(text, DBOOL, 0)
    assert first == second
    assert hash(first) == hash(second)


def test_nested_exists_family_copies_are_equal():
    phi = parse_formula("exists x. exists y. x<y & P[1_0](y)", DBOOL, 0)
    inners = {f.sub if isinstance(f, Not) else f for _, f in phi.family}
    assert len(inners) == 1
    (inner,) = inners
    assert isinstance(inner, QK) and inner.var == "y$2"


# -- satisfaction -------------------------------------------------------------


def test_satisfies_exists_examples():
    phi = parse_formula("exists x. P[1_0](x)", DBOOL, 0)
    assert satisfies(parse_tree("0_2(1_0,0_0)", DBOOL), {}, phi)
    assert not satisfies(parse_tree("0_2(0_0,0_0)", DBOOL), {}, phi)


def test_satisfies_root():
    t = parse_tree("f(a,b)", SIG)
    phi = Root("x")
    assert satisfies(t, {"x": ()}, phi)
    assert not satisfies(t, {"x": (0,)}, phi)


def test_satisfies_psym_and_less():
    t = parse_tree("f(a,b)", SIG)
    assert satisfies(t, {"x": (0,)}, PSym("a", "x"))
    assert not satisfies(t, {"x": (1,)}, PSym("a", "x"))
    assert satisfies(t, {"x": (), "y": (1,)}, Less("x", "y"))
    assert not satisfies(t, {"x": (0,), "y": (1,)}, Less("x", "y"))


def test_satisfies_succ():
    t = parse_tree("f(a,b)", SIG)
    assert satisfies(t, {"x": (), "y": (0,)}, Succ(1, "x", "y"))
    assert satisfies(t, {"x": (), "y": (1,)}, Succ(2, "x", "y"))
    assert not satisfies(t, {"x": (), "y": (1,)}, Succ(1, "x", "y"))


def test_satisfies_max_left_right():
    t = parse_tree("f(f(a,v1),f(v2,b))", SIG, 2)
    # node (0,): second successor is v1
    assert satisfies(t, {"x": (0,)}, Max(2, 1, "x"))
    assert not satisfies(t, {"x": (0,)}, Max(1, 1, "x"))
    # vars left of subtree at (1,) is 1; least var right of (0,) is ... v2 -> index 2
    assert satisfies(t, {"x": (1,)}, LeftJ(1, "x"))
    assert satisfies(t, {"x": (0,)}, RightJ(2, "x"))
    assert not satisfies(t, {"x": ()}, LeftJ(1, "x"))
    # right of the whole tree there is nothing: right_j false for j in [k]
    assert not satisfies(t, {"x": ()}, RightJ(1, "x"))
    assert not satisfies(t, {"x": ()}, RightJ(2, "x"))


def test_satisfies_mod_counts():
    phi = parse_formula("mod[2,1] x. P[1_0](x) | P[1_2](x)", DBOOL, 0)
    t = parse_tree("1_2(1_0,0_0)", DBOOL)
    # two 1-labelled nodes satisfy the body: 2 mod 2 != 1
    assert not satisfies(t, {}, phi)
    assert satisfies(parse_tree("1_2(0_0,0_0)", DBOOL), {}, phi)


def test_satisfies_mod_agreement_with_counting():
    phi_body = "P[1_0](x) | P[1_2](x)"
    for p, r in [(2, 0), (2, 1), (3, 1)]:
        phi = parse_formula(f"mod[{p},{r}] x. {phi_body}", DBOOL, 0)
        for t in enumerate_trees(DBOOL, 0, 4):
            assert satisfies(t, {}, phi) == (count_ones(t) % p == r)


def test_satisfies_requires_interpretation():
    t = parse_tree("f(a,b)", SIG)
    with pytest.raises(ValueError):
        satisfies(t, {}, Root("x"))


def test_satisfies_sentence_on_unit():
    phi = parse_formula("exists x. P[1_0](x)", DBOOL, 1)
    assert not satisfies(UNIT, {}, phi)  # characteristic tree is the unit


# -- characteristic trees -----------------------------------------------------


def test_characteristic_tree_root_family():
    fam = dict(boolean_family(Root("x"), SIG))
    t = parse_tree("f(a,b)", SIG)
    bar = characteristic_tree(t, {}, "x", DBOOL, fam)
    assert bar == parse_tree("1_2(0_0,0_0)", DBOOL)


def test_characteristic_tree_label_family():
    fam = dict(boolean_family(PSym("a", "x"), SIG))
    t = parse_tree("f(a,b)", SIG)
    bar = characteristic_tree(t, {}, "x", DBOOL, fam)
    assert bar == parse_tree("0_2(1_0,0_0)", DBOOL)


def test_characteristic_tree_identity_family():
    # family phi_delta = P_delta(x) over Delta = Sigma reproduces the tree
    fam = {name: PSym(name, "x") for name, _ in SIG.symbols}
    for t in enumerate_trees(SIG, 0, 3):
        bar = characteristic_tree(t, {}, "x", SIG, fam)
        assert bar == t


def test_characteristic_tree_violation():
    fam = {"1_0": PSym("a", "x"), "0_0": PSym("a", "x"),
           "1_2": PSym("a", "x"), "0_2": PSym("a", "x")}
    t = parse_tree("f(a,b)", SIG)
    with pytest.raises(DeterminismViolation) as exc:
        characteristic_tree(t, {}, "x", DBOOL, fam)
    # the root is visited first; the f-node satisfies neither rank-2 formula
    assert exc.value.node == ()
    assert exc.value.satisfied == []


def test_remark_label_vs_atom():
    # for letters of the node's rank: (t, lam_v) |= phi_delta iff the
    # characteristic tree labels v by delta
    fam = dict(boolean_family(PSym("a", "x"), SIG))
    arity = DBOOL.arity
    for t in enumerate_trees(SIG, 0, 3):
        bar = characteristic_tree(t, {}, "x", DBOOL, fam)
        for v in nv_nodes(t):
            m = len(subtree_at(t, v).children)
            for d, phi in fam.items():
                if arity[d] != m:
                    continue
                lhs = satisfies(t, {"x": v}, phi)
                rhs = satisfies(bar, {"x": v}, PSym(d, "x"))
                assert lhs == rhs


def test_check_deterministic_boolean_pair():
    fam = boolean_family(PSym("a", "x"), SIG)
    ok, _ = check_deterministic(DBOOL, "x", fam, SIG, 0, 3)
    assert ok


def test_check_deterministic_violation():
    fam = (("1_0", PSym("a", "x")), ("0_0", PSym("a", "x")),
           ("1_2", PSym("a", "x")), ("0_2", PSym("a", "x")))
    ok, witness = check_deterministic(DBOOL, "x", fam, SIG, 0, 2)
    assert not ok
    t, lam, v, holding = witness
    # first witness: the single-node tree a, where both rank-0 formulas hold
    assert len(holding) != 1


# -- structures ----------------------------------------------------------------


def test_ext_symbol_roundtrip():
    assert ext_symbol("f", []) == "f"
    assert split_symbol("f@x@y") == ("f", frozenset({"x", "y"}))
    assert split_symbol("f") == ("f", frozenset())


def test_extend_alphabet_sizes():
    ext = extend_alphabet(SIG, ["x", "y"])
    assert len(ext.symbols) == 3 * 4


def test_mk_structure_empty():
    t = parse_tree("f(a,b)", SIG)
    s = mk_structure(t, {})
    assert s == t


def test_structure_roundtrip():
    import random

    rng = random.Random(1)
    pool = list(enumerate_trees(SIG, 0, 4))
    for _ in range(100):
        t = pool[rng.randrange(len(pool))]
        nvs = nv_nodes(t)
        lam = {"x": nvs[rng.randrange(len(nvs))], "y": nvs[rng.randrange(len(nvs))]}
        s = mk_structure(t, lam)
        t2, lam2 = destructure(s, ["x", "y"])
        assert (t2, lam2) == (t, lam)


def test_structure_shared_node():
    t = parse_tree("f(a,b)", SIG)
    s = mk_structure(t, {"x": (0,), "y": (0,)})
    assert subtree_at(s, (0,)).label == "a@x@y"


def test_destructure_rejects_duplicates():
    ext = extend_alphabet(SIG, ["x"])
    s = parse_tree("f(a@x,b@x)", ext)
    with pytest.raises(ValueError):
        destructure(s, ["x"])


def test_structures_enumeration_counts():
    n = 0
    for t, lam, s in structures(SIG, ["x"], 0, 3):
        assert destructure(s, ["x"]) == (t, lam)
        n += 1
    # trees with 1 NV node: 2 * 1; with 3 NV nodes: 4 * 3
    assert n == 2 * 1 + 4 * 3


# -- substitution and rewritings ------------------------------------------------


def test_substitute_var_basic():
    assert substitute_var(PSym("a", "p"), "q", "p") == PSym("a", "q")
    phi = Less("p", "z")
    assert substitute_var(phi, "q", "p") == Less("q", "z")
    psi = Root("w")
    assert substitute_var(psi, "q", "p") == psi


def test_substitute_var_avoids_capture():
    # binder on q gets renamed before substituting q for p
    inner = exists_formula("q", Less("q", "p"), SIG, 0)
    out = substitute_var(inner, "q", "p")
    assert isinstance(out, QK)
    fam = dict(out.family)
    atom = fam["1_0"]
    assert isinstance(atom, Less)
    assert atom.y == "q" and atom.x != "q"
    # semantics preserved: out says "exists z. z < q"
    t = parse_tree("f(a,b)", SIG)
    assert satisfies(t, {"q": (0,)}, out) == satisfies(t, {"p": (0,)}, inner)


def test_substitute_var_capture_is_deterministic():
    inner = exists_formula("q", Less("q", "p"), SIG, 0)
    first = substitute_var(inner, "q", "p")
    assert first == substitute_var(inner, "q", "p")
    assert first.var == "q$1"


def test_substitute_var_renamed_binder_avoids_substituted_name():
    # the binder x$2 must not become x$1: those occurrences would then be
    # replaced by x$2 and escape their binder
    inner = exists_formula("x$2", Less("x$2", "w"), SIG, 0)
    out = substitute_var(inner, "x$2", "x$1")
    assert free_vars(out) == {"w"}
    t = parse_tree("f(a,b)", SIG)
    assert satisfies(t, {"w": (0,)}, out) == satisfies(t, {"w": (0,)}, inner)


def test_tilde_substitute_trivial():
    fam = dict(boolean_family(PSym("a", "x"), SIG))
    assert tilde_substitute(TRUE, "x", fam, DBOOL, SIG) == TRUE


def test_tilde_substitute_letter_atom():
    # the letter atom becomes the family formula guarded by a rank test
    fam = dict(boolean_family(PSym("a", "x"), SIG))
    out = tilde_substitute(PSym("1_0", "z"), "x", fam, DBOOL, SIG)
    assert isinstance(out, And)
    assert out.right == PSym("a", "z")
    # guard: z is at a rank-0 node, i.e. labeled a or b
    from preclones.logic import Or as LOr
    assert isinstance(out.left, LOr)


def test_tilde_substitute_capture_detected():
    fam = dict(boolean_family(PSym("a", "x"), SIG))
    with pytest.raises(ValueError):
        tilde_substitute(PSym("1_0", "x"), "x", fam, DBOOL, SIG)


def test_fact_closure_equivalence_exhaustive():
    # (t, lam) |= tilde(chi) iff (bar t_lam, lam) |= chi, for chi with a
    # free variable z and the family phi_delta = [a-label at x]
    fam = dict(boolean_family(PSym("a", "x"), SIG))
    chis = [
        PSym("1_0", "z"),
        Or(PSym("1_2", "z"), Root("z")),
        Not(PSym("0_0", "z")),
        parse_formula("exists w. P[1_0](w) & w<z", DBOOL, 0),
    ]
    for chi in chis:
        tchi = tilde_substitute(chi, "x", fam, DBOOL, SIG)
        for t in enumerate_trees(SIG, 0, 3):
            bar = characteristic_tree(t, {}, "x", DBOOL, fam)
            for v in nv_nodes(t):
                lam = {"z": v}
                assert satisfies(t, lam, tchi) == satisfies(bar, lam, chi)


def test_tilde_substitute_renames_capturing_binder():
    # the family's free y must not be captured by the host's binder y
    fam = dict(boolean_family(Less("y", "x"), SIG))
    chi = exists_formula("y", PSym("1_0", "y"), SIG, 0)
    tchi = tilde_substitute(chi, "x", fam, DBOOL, SIG)
    assert free_vars(tchi) == {"y"}
    for t in enumerate_trees(SIG, 0, 3):
        for v in nv_nodes(t):
            lam = {"y": v}
            bar = characteristic_tree(t, lam, "x", DBOOL, fam)
            assert satisfies(t, lam, tchi) == satisfies(bar, lam, chi)


def test_fact_closure_sentence_case():
    fam = dict(boolean_family(PSym("a", "x"), SIG))
    chi = parse_formula("exists w. P[1_0](w)", DBOOL, 0)
    tchi = tilde_substitute(chi, "x", fam, DBOOL, SIG)
    for t in enumerate_trees(SIG, 0, 3):
        bar = characteristic_tree(t, {}, "x", DBOOL, fam)
        assert satisfies(t, {}, tchi) == satisfies(bar, {}, chi)


def test_inverse_literal_image_identity():
    h = {name: name for name, _ in SIG.symbols}
    phi = parse_formula("exists x. P[a](x)", SIG, 0)
    phi2 = inverse_literal_image(phi, h, SIG, SIG)
    for t in enumerate_trees(SIG, 0, 3):
        assert satisfies(t, {}, phi) == satisfies(t, {}, phi2)


def test_inverse_literal_image_two_preimages():
    # h maps both a and b to a: P[a](x) pulls back to P[a](x) | P[b](x)
    h = {"f": "f", "a": "a", "b": "a"}
    phi = PSym("a", "x")
    phi2 = inverse_literal_image(phi, h, SIG, SIG)
    assert isinstance(phi2, Or)
    for t in enumerate_trees(SIG, 0, 3):
        ht = apply_literal_morphism(t, h)
        for v in nv_nodes(t):
            assert satisfies(t, {"x": v}, phi2) == satisfies(ht, {"x": v}, phi)


def test_inverse_literal_image_exhaustive_corpus():
    # Sigma' with letters collapsing onto Dbool
    SIGP = alphabet("g/2", "h/2", "c/0", "d/0")
    h = {"g": "1_2", "h": "0_2", "c": "1_0", "d": "0_0"}
    corpus = [
        "exists x. P[1_0](x)",
        "exists x. P[1_2](x) & !root(x)",
        "mod[2,1] x. P[1_0](x) | P[1_2](x)",
        "exists x. exists y. x<y & P[1_0](y)",
        "exists x. succ_1(x,x) | P[0_0](x)",
    ]
    for text in corpus:
        phi = parse_formula(text, DBOOL, 0)
        phi2 = inverse_literal_image(phi, h, SIGP, DBOOL)
        for t in enumerate_trees(SIGP, 0, 3):
            assert satisfies(t, {}, phi2) == satisfies(apply_literal_morphism(t, h), {}, phi)


def test_inverse_literal_image_rejects_rank_change():
    h = {"f": "a", "a": "a", "b": "b"}
    with pytest.raises(ValueError):
        inverse_literal_image(PSym("a", "x"), h, SIG, SIG)


def test_exists_qk_membership_equals_defined_language():
    # family phi_delta = P_delta(x): Q_K holds iff the tree itself is in K
    K = k_exists(DBOOL, 0)
    fam = tuple((name, PSym(name, "x")) for name, _ in DBOOL.symbols)
    phi = QK("K", K, "x", fam)
    for t in enumerate_trees(DBOOL, 0, 3):
        assert satisfies(t, {}, phi) == K.accepts(t)


def test_mk_structure_of_a_sentence_is_the_tree_itself():
    t = parse_tree("f(a,f(b,a))", SIG)
    assert mk_structure(t, {}) is t
    s = mk_structure(t, {"x": (1, 0), "y": (1,)})
    assert s.children[0] is t.children[0]
    assert s.children[1].children[1] is t.children[1].children[1]
    assert tree_to_text(s) == "f(a,f@y(b@x,a))"


def test_mk_structure_rejects_a_variable_leaf():
    t = parse_tree("f(v1,a)", SIG, 1)
    with pytest.raises(ValueError, match="y must sit at an NV node"):
        mk_structure(t, {"x": (1,), "y": (0,)})


def test_negative_max_nv_is_rejected():
    phi = parse_formula("exists x. P[a](x)", SIG, 0)
    rec = compile_formula(phi, SIG, (), 0)
    fam = boolean_family(PSym("a", "x"), SIG)
    for run in (lambda: list(structures(SIG, ["x"], 0, -1)),
                lambda: check_deterministic(DBOOL, "x", fam, SIG, 0, -1),
                lambda: check_equivalence(phi, rec, -1)):
        with pytest.raises(ValueError, match="max_nv"):
            run()


# -- the node-table evaluator against the tree walk it replaced -----------------
#
# The reference functions below are the tree-walking semantics: every atom
# reads the tree through paths, and Q_K builds the characteristic tree and
# runs K over it.


def ref_sat(t, lam, phi):
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, FalseF):
        return False
    if isinstance(phi, PSym):
        return subtree_at(t, lam[phi.x]).label == phi.sym
    if isinstance(phi, Less):
        px, py = lam[phi.x], lam[phi.y]
        return len(py) > len(px) and py[: len(px)] == px
    if isinstance(phi, Succ):
        px, py = lam[phi.x], lam[phi.y]
        return py == px + (phi.i - 1,)
    if isinstance(phi, Root):
        return lam[phi.x] == ()
    if isinstance(phi, Max):
        node = subtree_at(t, lam[phi.x])
        if phi.i > len(node.children):
            return False
        child = node.children[phi.i - 1]
        return child.is_var() and child.label == phi.j
    if isinstance(phi, LeftJ):
        return vars_left_of(t, lam[phi.x]) == phi.j
    if isinstance(phi, RightJ):
        px = lam[phi.x]
        return vars_left_of(t, px) + rank(subtree_at(t, px)) + 1 == phi.j
    if isinstance(phi, Not):
        return not ref_sat(t, lam, phi.sub)
    if isinstance(phi, Or):
        return ref_sat(t, lam, phi.left) or ref_sat(t, lam, phi.right)
    if isinstance(phi, And):
        return ref_sat(t, lam, phi.left) and ref_sat(t, lam, phi.right)
    if isinstance(phi, QK):
        bar = ref_characteristic_tree(t, lam, phi.var, phi.lang.alphabet, phi.formulas())
        return phi.lang.accepts(bar)
    raise TypeError(f"not a formula: {phi!r}")


def ref_characteristic_tree(t, lam, x, delta, formulas):
    by_rank = {}
    for name, m in delta.symbols:
        by_rank.setdefault(m, []).append(name)
    labels = {}
    for path in nv_nodes(t):
        m = len(subtree_at(t, path).children)
        lam_v = dict(lam)
        lam_v[x] = path
        holding = [d for d in by_rank.get(m, []) if ref_sat(t, lam_v, formulas[d])]
        if len(holding) != 1:
            raise DeterminismViolation(
                f"family is not deterministic at node {path}: {holding}",
                node=path, satisfied=holding,
            )
        labels[path] = holding[0]

    def rebuild(s, path):
        if s.is_var():
            return s
        kids = tuple(rebuild(c, path + (i,)) for i, c in enumerate(s.children))
        return RankedTree(labels[path], kids)

    return rebuild(t, ())


def ref_check_deterministic(delta, x, family, sigma, k, max_nv):
    formulas = dict(family)
    arity = delta.arity
    others = sorted(set().union(*(free_vars(f) for f in formulas.values())) - {x})
    for t in enumerate_trees(sigma, k, max_nv):
        nvs = nv_nodes(t)
        for assign in itertools.product(nvs, repeat=len(others)):
            lam = dict(zip(others, assign))
            for v in nvs:
                m = len(subtree_at(t, v).children)
                lam_v = dict(lam, **{x: v})
                holding = [d for d in sorted(formulas)
                           if arity[d] == m and ref_sat(t, lam_v, formulas[d])]
                if len(holding) != 1:
                    return False, (t, lam, v, holding)
    return True, None


def ref_mk_structure(t, lam):
    at_node = {}
    for z, path in lam.items():
        at_node.setdefault(path, []).append(z)

    def walk(s, path):
        if s.is_var():
            return s
        kids = tuple(walk(c, path + (i,)) for i, c in enumerate(s.children))
        return RankedTree(ext_symbol(s.label, at_node.get(path, [])), kids)

    return walk(t, ())


def ref_interpretations(sigma, zs, k, max_nv):
    for t in enumerate_trees(sigma, k, max_nv):
        for assign in itertools.product(nv_nodes(t), repeat=len(zs)):
            yield t, dict(zip(zs, assign))


CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_NAMES = tuple(f"ex{i:02d}" for i in range(1, 33))


# every corpus language is symmetric in the children; this one is not
LEFTMOST = "Q[leftmost] x { 1_0: P[1_0](x); 0_0: !P[1_0](x); 1_2: P[1_2](x); 0_2: !P[1_2](x) }"


def leftmost_leaf_is_1():
    """K over DBOOL, rank 0: the leftmost leaf is labelled 1_0."""
    pairs = {(a, b): a for a in (0, 1) for b in (0, 1)}
    table = {"1_0": {(): 1}, "0_0": {(): 0}, "1_2": pairs, "0_2": dict(pairs)}
    return TreeAutomaton(DBOOL, 0, 2, (), table, frozenset({1}))


def corpus_formula(name):
    """(phi, sigma, k) of a corpus formula, or of LEFTMOST for "leftmost"."""
    if name == "leftmost":
        return parse_formula(LEFTMOST, DBOOL, 0, {"leftmost": leftmost_leaf_is_1()}), DBOOL, 0
    phi, sigma, k, _ = load_formula_file(os.path.join(CORPUS, name + ".lind"))
    return phi, sigma, k


def verdict(fn, *args):
    """fn(*args), or the node, letters and message of its DeterminismViolation."""
    try:
        return fn(*args)
    except DeterminismViolation as exc:
        return ("violation", exc.node, exc.satisfied, str(exc))


@pytest.mark.parametrize("name", CORPUS_NAMES + ("leftmost",))
def test_evaluator_agrees_with_the_tree_walk_on_the_corpus(name):
    phi, sigma, k = corpus_formula(name)
    zs = sorted(free_vars(phi))
    triples = list(structures(sigma, zs, k, 5))
    assert [(t, lam) for t, lam, _ in triples] == list(ref_interpretations(sigma, zs, k, 5))
    holds = evaluator(phi)
    for t, lam, s in triples:
        want = ref_sat(t, lam, phi)
        assert satisfies(t, lam, phi) == want and holds(t, lam) == want, (t, lam)
        assert s == ref_mk_structure(t, lam)
        if isinstance(phi, QK):
            args = (t, lam, phi.var, phi.lang.alphabet, phi.formulas())
            assert characteristic_tree(*args) == ref_characteristic_tree(*args)


# families that are deterministic at some nodes of some interpretations and
# not at others: two letters or none hold
PARTIAL_FAMILIES = (
    "Q[kpath] x { 1_0: P[1_0](x) | z<x; 0_0: !P[1_0](x); 1_2: P[1_2](x);"
    " 0_2: !P[1_2](x) & !root(x) }",
    "Q[kpath] x { 1_0: P[1_0](x); 0_0: !P[1_0](x); 1_2: succ_1(x,z) | P[1_2](z);"
    " 0_2: !succ_1(x,z) & !P[0_2](x) }",
)


@pytest.mark.parametrize("text", PARTIAL_FAMILIES)
def test_violations_match_the_tree_walk(text):
    langs = {"kpath": load_automaton(os.path.join(CORPUS, "k_path0.aut"))}
    phi = parse_formula(text, DBOOL, 0, langs)
    holds = evaluator(phi)
    seen = set()
    for t, lam in ref_interpretations(DBOOL, ["z"], 0, 4):
        want = verdict(ref_sat, t, lam, phi)
        seen.add(want if isinstance(want, bool) else "violation")
        assert verdict(satisfies, t, lam, phi) == want, (t, lam)
        assert verdict(holds, t, lam) == want, (t, lam)
        args = (t, lam, phi.var, phi.lang.alphabet, phi.formulas())
        assert verdict(characteristic_tree, *args) == verdict(ref_characteristic_tree, *args)
    assert seen == {True, False, "violation"}
    for max_nv in range(5):
        args = (DBOOL, phi.var, phi.family, DBOOL, 0, max_nv)
        assert check_deterministic(*args) == ref_check_deterministic(*args)


@pytest.mark.parametrize("text", PARTIAL_FAMILIES)
def test_quantifier_pass_raises_where_characteristic_tree_does(text):
    # the pass meets the nodes in reverse preorder, but must report the
    # first violating node in preorder, with its letters and message
    langs = {"kpath": load_automaton(os.path.join(CORPUS, "k_path0.aut"))}
    phi = parse_formula(text, DBOOL, 0, langs)
    holds = logic.node_evaluator(phi)
    raised = 0
    for nodes, env in logic.interpretations(DBOOL, ["z"], 0, 4):
        t, lam = nodes.tree(), {z: nodes.paths[i] for z, i in env.items()}
        want = verdict(characteristic_tree, t, lam, phi.var, phi.lang.alphabet,
                       phi.formulas())
        got = verdict(holds, nodes, env)
        if isinstance(want, tuple):
            assert got == want, (t, lam)
            raised += 1
        else:
            assert isinstance(got, bool), (t, lam)
    assert raised


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("alph", ["sigma_ex", "dbool"])
def test_node_table_paths_are_the_nv_nodes(alph, k):
    sigma = load_alphabet(os.path.join(CORPUS, alph + ".alph"))
    for t in enumerate_trees(sigma, k, 5):
        nodes = logic._Nodes(t)
        assert nodes.paths == nv_nodes(t), t
        assert [subtree_at(t, p).label for p in nodes.paths] == nodes.labels


def test_unit_tree_reads_the_first_variable_state():
    phi = parse_formula("exists x. P[a](x)", SIG, 1)
    verdicts = set()
    for lang in (phi.lang, complement(phi.lang)):
        psi = replace(phi, lang=lang)
        want = lang.var_state[0] in lang.finals
        assert satisfies(UNIT, {}, psi) == ref_sat(UNIT, {}, psi) == want
        verdicts.add(want)
    assert verdicts == {True, False}
    with pytest.raises(ValueError, match="variable v1 outside rank 0"):
        satisfies(UNIT, {}, parse_formula("exists x. P[a](x)", SIG, 0))


# -- local sentences, decided once per forest entry ------------------------------
#
# A sentence whose quantifier families read only x's own label and children
# is decided on every dag entry at once; the node-table pass on each level
# tree is its oracle.

PERFBENCH_CORPUS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench",
                                "corpus")
LOCAL_NAMES = ("ex01", "ex02", "ex06", "ex07", "ex08", "ex09", "ex10", "ex12", "ex14",
               "ex15", "ex16", "ex17", "ex18", "ex20", "ex21", "ex22", "ex29", "ex30")
RANDOM_SIGMAS = {"sigma_ex": SIG, "dbool": DBOOL, "g1h3": alphabet("g/1", "h/3", "a/0", "b/0")}


def table_pass(phi, dag, levels):
    """node_evaluator on the node table of every level tree, by serial; None
    where it raises."""
    holds, out = logic.node_evaluator(phi), {}
    for s in itertools.chain.from_iterable(levels):
        try:
            out[s] = holds(logic._Nodes(dag, s), {})
        except (DeterminismViolation, ValueError):
            out[s] = None
    return out


def assert_decided_as_the_table_pass(phi, sigma, k, max_nv):
    dag, levels = forest(sigma, k, max_nv)
    sat = logic.sentence_evaluator(phi)(dag)
    assert len(sat) == len(dag)
    want = table_pass(phi, dag, levels)
    assert {s: sat[s] for s in want} == want, phi
    return want


@pytest.mark.parametrize("corpus", [CORPUS, PERFBENCH_CORPUS])
def test_the_local_sentences_of_the_corpus(corpus):
    local = []
    for name in CORPUS_NAMES:
        phi, _, _, _ = load_formula_file(os.path.join(corpus, name + ".lind"))
        if logic.sentence_evaluator(phi) is not None:
            local.append(name)
    assert tuple(local) == LOCAL_NAMES


@pytest.mark.parametrize("name", LOCAL_NAMES)
@pytest.mark.parametrize("corpus", [CORPUS, PERFBENCH_CORPUS])
def test_local_corpus_sentences_are_decided_as_the_table_pass(corpus, name):
    phi, sigma, k, _ = load_formula_file(os.path.join(corpus, name + ".lind"))
    assert_decided_as_the_table_pass(phi, sigma, k, 5)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("sigma_name", sorted(RANDOM_SIGMAS))
def test_random_local_sentences_are_decided_as_the_table_pass(sigma_name, k):
    from test_compiler_fuzz import random_formula

    sigma, rng, found = RANDOM_SIGMAS[sigma_name], random.Random(3000 + 10 * k), []
    for _ in range(400):
        phi = random_formula(rng, sigma, k, [], depth=3, quant_budget=1)
        if logic.sentence_evaluator(phi) is not None and phi not in found:
            verdicts = assert_decided_as_the_table_pass(phi, sigma, k, 5)
            found.append((phi, set(verdicts.values())))
    assert len(found) >= 20
    assert {True, False} <= set().union(*(v for _, v in found))
    if k:  # some family reads a child pattern
        assert any("Max(" in repr(phi) for phi, _ in found)


# a local sentence whose family holds two letters at a 0_2 node, and one
# whose family holds none at a 0_0 leaf under a 1_2 node with a 1_0 sibling
LOCAL_PARTIAL = (
    "Q[kpath] x { 1_0: P[1_0](x); 0_0: !P[1_0](x); 1_2: true; 0_2: P[0_2](x) }",
    "(exists y. P[1_2](y)) & Q[kpath] x { 1_0: P[1_0](x); 0_0: P[0_0](x) & x<x;"
    " 1_2: P[1_2](x); 0_2: !P[1_2](x) }",
)


@pytest.mark.parametrize("text", LOCAL_PARTIAL)
def test_local_partial_families_are_undecided_where_the_table_pass_raises(text):
    langs = {"kpath": load_automaton(os.path.join(CORPUS, "k_path0.aut"))}
    phi = parse_formula(text, DBOOL, 0, langs)
    verdicts = assert_decided_as_the_table_pass(phi, DBOOL, 0, 5)
    assert set(verdicts.values()) == {True, False, None}


def test_a_variable_outside_the_rank_or_a_letter_missing_from_k_is_undecided():
    # K of rank 1 in a rank-2 sentence, where every tree holds v2: undecided
    # wherever the left side does not decide alone; K without 0_2: every
    # tree holding a 0_2 node is undecided
    fam = boolean_family(PSym("1_0", "x"), DBOOL)
    low, good = QK("low", k_exists(DBOOL, 1), "x", fam), QK("good", k_exists(DBOOL, 2), "x", fam)
    verdicts = set()
    for op in (And, Or):
        verdicts |= set(assert_decided_as_the_table_pass(op(good, low), DBOOL, 2, 3).values())
    assert verdicts == {True, False, None}
    K = k_exists(DBOOL, 0)
    gap = QK("gap", replace(K, transitions={d: t for d, t in K.transitions.items()
                                            if d != "0_2"}), "x", fam)
    verdicts = assert_decided_as_the_table_pass(gap, DBOOL, 0, 5)
    assert set(verdicts.values()) == {True, False, None}


@pytest.mark.parametrize("text", [
    "exists x. root(x)",  # reads where x sits in the tree
    "exists x. left[1](x)",
    "exists x. exists y. x<y",  # a second variable
    "P[a](z) | exists x. P[a](x)",  # free z
    "exists x. P[a](x) & exists y. P[b](y)",  # a quantifier inside a family
])
def test_sentences_that_read_beyond_x_are_left_to_the_table_pass(text):
    assert logic.sentence_evaluator(parse_formula(text, SIG, 1)) is None


# Each mutation is one defect the node table, or the per-entry pass, could
# have; the oracle run over the corpus must catch every one.
MUTATIONS = {
    "less_or_equal": ("e[x] < e[y] < n.end[e[x]]", "e[x] <= e[y] < n.end[e[x]]"),
    "succ_off_by_one": ("i, x, y = phi.i - 1, phi.x, phi.y",
                        "i, x, y = phi.i, phi.x, phi.y"),
    "right_without_plus_one": ("len(self.leaves) + 1", "len(self.leaves)"),
    "qk_children_reversed": ("map(states.__getitem__, kids)",
                             "map(states.__getitem__, kids[::-1])"),
    "qk_x_at_the_root": ("env[x], kids = i, kids_of[i]", "env[x], kids = 0, kids_of[i]"),
    "qk_pair_letters_swapped": ("a if f(n, e) else b", "b if f(n, e) else a"),
    # the per-entry pass of a local sentence
    "entry_children_reversed": ("states[c] for c in kids]", "states[c] for c in kids[::-1]]"),
    "entry_letter_by_label_alone": ("key = label, pattern", "key = label"),
    "entry_var_state_off_by_one": ("enumerate(aut.var_state, 1)", "enumerate(aut.var_state)"),
}
FORMULA_CLASSES = ("PSym", "Less", "Succ", "Root", "Max", "LeftJ", "RightJ",
                   "TrueF", "FalseF", "Not", "Or", "And", "QK")


def mutant_logic(monkeypatch, old, new):
    """A copy of preclones.logic with ``old`` replaced by ``new``, evaluating
    the real module's formula classes."""
    source = inspect.getsource(logic)
    assert source.count(old) == 1, old
    mutant = types.ModuleType("preclones.logic_mutant")
    mutant.__package__ = "preclones"
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    exec(compile(source.replace(old, new), logic.__file__, "exec"), vars(mutant))
    for cls in FORMULA_CLASSES:
        setattr(mutant, cls, getattr(logic, cls))
    return mutant


def first_disagreement(module, max_nv=4):
    """The first corpus formula, tree and interpretation where the module's
    node-table pass, or its per-entry pass of a local sentence, and the tree
    walk disagree."""
    for name in CORPUS_NAMES + ("leftmost",):
        phi, sigma, k = corpus_formula(name)
        holds, local = module.evaluator(phi), module.sentence_evaluator(phi)
        dag, levels = forest(sigma, k, max_nv)
        sat = local(dag) if local else None
        serials = itertools.chain.from_iterable(levels)  # the trees, in enumeration order
        for t, lam in ref_interpretations(sigma, sorted(free_vars(phi)), k, max_nv):
            want = ref_sat(t, lam, phi)
            if holds(t, lam) != want or (sat is not None and sat[next(serials)] != want):
                return name, t, lam
    return None


def test_unmutated_copy_agrees(monkeypatch):
    # the mutation harness itself: an unchanged copy finds nothing
    old = MUTATIONS["less_or_equal"][0]
    assert first_disagreement(mutant_logic(monkeypatch, old, old), 3) is None


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutated_evaluator_is_caught(mutation, monkeypatch):
    mutant = mutant_logic(monkeypatch, *MUTATIONS[mutation])
    assert first_disagreement(mutant) is not None
