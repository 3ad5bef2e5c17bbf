import pytest

from preclones.automata import boolean_alphabet, k_exists
from preclones.errors import DeterminismViolation, ParseError
from preclones.logic import (
    And,
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
    apply_literal_morphism,
    boolean_family,
    characteristic_tree,
    check_deterministic,
    destructure,
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
    alphabet,
    enumerate_trees,
    nv_nodes,
    parse_tree,
    subtree_at,
)

SIG = alphabet("f/2", "a/0", "b/0")
DBOOL = boolean_alphabet([0, 2])


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
