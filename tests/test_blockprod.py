import random

import pytest

from preclones.blockprod import (
    BlockProduct,
    alpha_context_morphism,
    block_product_pg,
    eval_two_ways,
    generator_count,
    relabel,
    restricted_block_product,
    second_projection,
)
from preclones.errors import RankOverflow
from preclones.preclone import Morphism, t_exists
from preclones.syntactic import Context
from preclones.automata import boolean_alphabet
from preclones.trees import UNIT, enumerate_trees, parse_tree

DBOOL = boolean_alphabet([0, 2])


def texists_bp(k, trunc=3):
    pg = t_exists(3)
    return pg, BlockProduct(pg.preclone, pg.preclone, k, trunc=trunc)


def random_element(bp, n, rng):
    S, T = bp.S, bp.T
    f = T.sort(n)[rng.randrange(T.sort_size(n))]
    F = tuple(
        S.sort(n)[rng.randrange(S.sort_size(n))] for _ in range(bp.n_contexts(n))
    )
    return (F, f)


def random_tuple_shape(bp, width, rng):
    while True:
        ranks = [rng.randrange(0, bp.trunc + 1) for _ in range(width)]
        if sum(ranks) <= bp.trunc:
            return ranks


def test_unit_left_law():
    _, bp = texists_bp(0)
    rng = random.Random(0)
    for n in range(bp.trunc + 1):
        g = random_element(bp, n, rng)
        assert bp.compose(bp.unit_key(), [g]) == g


def test_unit_right_law():
    _, bp = texists_bp(1)
    rng = random.Random(1)
    for n in range(bp.trunc + 1):
        f = random_element(bp, n, rng)
        units = [bp.unit_key()] * n
        assert bp.compose(f, units) == f


@pytest.mark.parametrize("k", [0, 1])
def test_associativity_random_triples(k):
    _, bp = texists_bp(k)
    rng = random.Random(100 + k)
    checked = 0
    for _ in range(300):
        n = rng.randrange(0, 3)
        f = random_element(bp, n, rng)
        g_ranks = random_tuple_shape(bp, n, rng)
        m = sum(g_ranks)
        gs = [random_element(bp, r, rng) for r in g_ranks]
        h_ranks = random_tuple_shape(bp, m, rng)
        hs = [random_element(bp, r, rng) for r in h_ranks]
        lhs = bp.compose(bp.compose(f, gs), hs)
        parts = []
        pos = 0
        for i in range(n):
            sub = hs[pos : pos + g_ranks[i]]
            pos += g_ranks[i]
            parts.append(bp.compose(gs[i], sub))
        rhs = bp.compose(f, parts)
        assert lhs == rhs
        checked += 1
    assert checked == 300


def test_rank_overflow_guard():
    _, bp = texists_bp(0, trunc=2)
    rng = random.Random(2)
    f = random_element(bp, 2, rng)
    g = random_element(bp, 2, rng)
    u = bp.unit_key()
    with pytest.raises(RankOverflow):
        bp.compose(f, [g, u])


def test_make_rejects_an_element_above_the_truncation():
    pg, bp = texists_bp(0, trunc=2)
    with pytest.raises(ValueError, match="generator of rank 3 above the truncation 2"):
        bp.make(lambda c: (3, 0), pg.preclone.sort(3)[0])


def test_generator_count_formula():
    # pg-pair with full sorts as generators so rank-1 generators exist
    pg = t_exists(3)
    full = [el for n in range(4) for el in pg.preclone.sort(n)]
    from preclones.preclone import PgPair

    pg_full = PgPair(pg.preclone, full)
    bp = BlockProduct(pg.preclone, pg.preclone, 0, trunc=2)
    assert bp.n_contexts(1) == 4
    assert generator_count(pg_full, pg_full, bp, 1) == 2**4 * 2
    # with the standard generators A_1 is empty
    assert generator_count(pg, pg, bp, 1) == 0


def test_block_product_pg_closure_and_unit():
    pg = t_exists(3)
    bp, carrier = block_product_pg(pg, pg, 0, trunc=2)
    pre = carrier.preclone
    assert pre.unit is not None
    assert pre.key(pre.unit) == bp.unit_key()
    # generators have second components in B
    for g in carrier.generators:
        assert pre.key(g)[1] in [b for b in pg.generators]
    # closed under composition
    for f, gs in pre.iter_compositions():
        pre.compose(f, gs)


def test_second_projection_homomorphic():
    pg = t_exists(3)
    bp, carrier = block_product_pg(pg, pg, 0, trunc=2)
    pre = carrier.preclone
    proj = second_projection(pre)
    assert proj(pre.unit) == pg.preclone.unit
    rng = random.Random(5)
    T = pg.preclone
    els = list(pre.elements())
    for _ in range(200):
        f = els[rng.randrange(len(els))]
        n = f[0]
        shape = random_tuple_shape(bp, n, rng)
        pools = [[e for e in els if e[0] == r] for r in shape]
        if any(not p for p in pools):
            continue
        gs = [p[rng.randrange(len(p))] for p in pools]
        if sum(r for r in shape) > pre.trunc:
            continue
        got = pre.compose(f, gs)
        assert proj(got) == T.compose(proj(f), [proj(g) for g in gs])


def test_second_projection_homomorphic_exhaustive_small():
    # exhaustive over the materialized carrier of the k=0 product
    pg = t_exists(2)
    bp, carrier = block_product_pg(pg, pg, 0, trunc=2)
    pre = carrier.preclone
    proj = second_projection(pre)
    T = pg.preclone
    for f, gs in pre.iter_compositions():
        got = pre.compose(f, gs)
        assert proj(got) == T.compose(proj(f), [proj(g) for g in gs])


def test_restricted_equals_full_when_T_is_Tprime():
    pg = t_exists(3)
    S = pg.preclone
    t_els = [S.sort(n) for n in range(S.trunc + 1)]
    r = restricted_block_product(S, S, t_els, 1, trunc=2)
    rng = random.Random(7)
    f = random_element(r.bp, 1, rng)
    g = random_element(r.bp, 1, rng)
    assert r.compose(f, [g]) == r.bp.compose(f, [g])
    # carrier sizes match the counting formula of the full product
    for n in range(3):
        assert r.carrier_size(n) == S.sort_size(n) ** r.bp.n_contexts(n) * S.sort_size(n)


def test_restricted_carrier_size_proper_sub():
    pg = t_exists(3)
    S = pg.preclone
    # T = sub-preclone with only or_n (false at rank 0): closed under composition
    t_els = [[(n, 0)] for n in range(S.trunc + 1)]
    r = restricted_block_product(S, S, t_els, 0, trunc=2)
    for n in range(3):
        assert r.carrier_size(n) == S.sort_size(n) ** r.bp.n_contexts(n) * 1
    # iterate a small slice and check membership/composition closure
    elems0 = list(r.iter_carrier(0))
    assert len(elems0) == r.carrier_size(0)
    f = elems0[0]
    assert r.contains(f)
    assert r.compose(f, []) == f


def test_restricted_compose_rejects_a_non_closed_sub_preclone():
    # true_1 . false_0 = true_0 lies outside t_elements, which is not closed
    S = t_exists(2).preclone
    false_0, or_1, true_1 = (0, 0), (1, 0), (1, 1)
    r = restricted_block_product(S, S, [[false_0], [or_1, true_1], []], 0)
    f = next(el for el in r.iter_carrier(1) if el[1] == true_1)
    g = next(r.iter_carrier(0))
    with pytest.raises(ValueError, match="restricted product"):
        r.compose(f, [g])


def test_alpha_identity_context_is_identity():
    pg = t_exists(3)
    S = pg.preclone
    t_els = [S.sort(n) for n in range(S.trunc + 1)]
    k = 1
    r = restricted_block_product(S, S, t_els, k, trunc=2)
    dst = r.bp  # same level: C = (1, 0, (unit,)*k, 0) has width k
    C = Context(S.unit, 0, (S.unit,) * k, 0)
    alpha = alpha_context_morphism(r, dst, C)
    rng = random.Random(9)
    for n in range(3):
        ff = random_element(r.bp, n, rng)
        assert alpha(ff) == ff


def test_alpha_evaluation_identity():
    # F^C(1, 0, n-units, 0) = F(C) for every rank-n element and n-ary context
    pg = t_exists(3)
    S = pg.preclone
    t_els = [S.sort(n) for n in range(S.trunc + 1)]
    k = 1
    r = restricted_block_product(S, S, t_els, k, trunc=2)
    rng = random.Random(11)
    for n in range(0, 3):
        dst = BlockProduct(S, S, n, trunc=2)
        D0 = Context(S.unit, 0, (S.unit,) * n, 0)
        for C in r.bp.contexts[n]:
            alpha = alpha_context_morphism(r, dst, C)
            for _ in range(3):
                ff = random_element(r.bp, n, rng)
                FC, f2 = alpha(ff)
                assert f2 == ff[1]
                assert FC[dst.ctx_index[n][D0]] == r.bp.F_at(ff, C)


def test_alpha_homomorphism_random():
    pg = t_exists(3)
    S = pg.preclone
    t_els = [S.sort(n) for n in range(S.trunc + 1)]
    k = 1
    r = restricted_block_product(S, S, t_els, k, trunc=2)
    rng = random.Random(13)
    n = 1
    C = r.bp.contexts[n][rng.randrange(len(r.bp.contexts[n]))]
    dst = BlockProduct(S, S, n, trunc=2)
    alpha = alpha_context_morphism(r, dst, C)
    for _ in range(100):
        w = rng.randrange(0, 3)
        f = random_element(r.bp, w, rng)
        shape = random_tuple_shape(dst, w, rng)
        if sum(shape) > 2:
            continue
        gs = [random_element(r.bp, x, rng) for x in shape]
        lhs = alpha(r.bp.compose(f, gs))
        rhs = dst.compose(alpha(f), [alpha(g) for g in gs])
        assert lhs == rhs


def hand_gamma(bp, rng):
    """A generator map for the Boolean alphabet into the block product."""
    gamma = {}
    tau_img = {}
    for name, m in DBOOL.symbols:
        el = random_element(bp, m, rng)
        gamma[name] = el
        tau_img[name] = el[1]
    tau = Morphism(DBOOL, bp.T, tau_img)
    return gamma, tau


def test_relabel_single_node():
    pg, bp = texists_bp(0, trunc=2)
    rng = random.Random(17)
    gamma, tau = hand_gamma(bp, rng)
    t = parse_tree("1_0", DBOOL)
    for D in bp.contexts[0]:
        rl = relabel(t, D, gamma, tau, bp)
        assert rl.label == bp.F_at(gamma["1_0"], D)
        assert rl.children == ()


def test_relabel_preserves_shape():
    pg, bp = texists_bp(1, trunc=2)
    rng = random.Random(19)
    gamma, tau = hand_gamma(bp, rng)
    t = parse_tree("1_2(0_0,0_2(v1,1_0))", DBOOL, 1)
    D = bp.contexts[1][0]
    rl = relabel(t, D, gamma, tau, bp)

    def shape(x):
        if x.is_var():
            return x.label
        return tuple(shape(c) for c in x.children)

    assert shape(rl) == shape(t)


def test_relabel_two_node_hand_computation():
    # one fixed gamma; unfold c and C by hand for the two NV nodes of
    # t = 1_2(0_0, v1) at D = (or_1, 0, (true_0,), 0) with k = 1
    pg, bp = texists_bp(1, trunc=2)
    S = T = pg.preclone
    or_n = lambda n: (n, 0)
    true_n = lambda n: (n, 1)
    gamma = {}
    tau_img = {}
    for name, m in DBOOL.symbols:
        # F table: constant or_m for 0-letters, constant true_m for 1-letters
        val = true_n(m) if name.startswith("1_") else or_n(m)
        gamma[name] = bp.make(lambda c, v=val: v, (m, 0 if name.startswith("0_") else 1))
        tau_img[name] = gamma[name][1]
    tau = Morphism(DBOOL, T, tau_img)
    t = parse_tree("1_2(0_0,v1)", DBOOL, 1)
    D = Context(or_n(1), 0, (true_n(1),), 0)
    rl = relabel(t, D, gamma, tau, bp)
    # root: factor f = unit, C = (or_1, 0, (tau(0_0) plus true_0 slices...), 0)
    assert rl.label == true_n(2)  # gamma[1_2] table is constant true_2
    assert rl.children[0].label == or_n(0)  # gamma[0_0] table constant or_0
    assert rl.children[1] == t.children[1]  # variable leaf untouched


@pytest.mark.parametrize("k", [0, 1])
def test_eval_two_ways_unit(k):
    pg, bp = texists_bp(k, trunc=2)
    rng = random.Random(23)
    gamma, tau = hand_gamma(bp, rng)
    if k == 1:
        for D in bp.contexts[1]:
            a, b = eval_two_ways(bp, gamma, tau, UNIT, D)
            assert a == b == bp.S.unit


@pytest.mark.parametrize("k", [0, 1])
def test_eval_two_ways_random_trees(k):
    pg, bp = texists_bp(k, trunc=2)
    rng = random.Random(29 + k)
    gamma, tau = hand_gamma(bp, rng)
    pool = {n: list(enumerate_trees(DBOOL, n, 4)) for n in (0, 1, 2)}
    for _ in range(200):
        n = rng.choice((0, 1, 2))
        t = pool[n][rng.randrange(len(pool[n]))]
        D = bp.contexts[n][rng.randrange(len(bp.contexts[n]))]
        a, b = eval_two_ways(bp, gamma, tau, t, D)
        assert a == b
