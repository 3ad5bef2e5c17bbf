"""The four benchmark workloads.

A workload's ``make_*`` function is its set-up: it loads or draws every
input and returns the jobs.  A job is one unit of work that ends in a
verdict: ``build`` makes the recognizer, carrier or pg-pair, ``verify``
turns it into a verdict, and the runner compares that with ``expected``,
which comes from the known-answer file, never from the compiler.

The library is always called through its module attributes (``compiler.
compile_formula``, not an imported name), so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

from preclones import automata, blockprod, cli, compiler, logic, preclone, syntactic, trees

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus")


@dataclass
class Job:
    name: str
    build: Callable[[], Any]
    verify: Callable[[Any], Any]
    expected: Any


# ---------------------------------------------------------------------------
# corpus and semantics: compile a formula, check it against the semantics


def _formula_jobs(table, max_nv, seed):
    jobs = []
    for name in sorted(table):
        phi, sigma, k, _ = cli.load_formula_file(os.path.join(CORPUS, name + ".lind"))
        variables = tuple(sorted(logic.free_vars(phi)))

        def build(phi=phi, sigma=sigma, k=k, variables=variables):
            return compiler.compile_formula(phi, sigma, variables, k)

        def verify(rec, phi=phi):
            rep = compiler.check_equivalence(phi, rec, max_nv)
            return {"checked": rep.checked, "accepted": rep.accepted,
                    "mismatches": len(rep.mismatches)}

        want = table[name]
        expected = {"checked": want["checked"], "accepted": want["accepted"],
                    "mismatches": 0}
        jobs.append(Job(name, build, verify, expected))
    random.Random(seed).shuffle(jobs)
    return jobs


def make_corpus(answers, seed):
    ans = answers["corpus"]
    return _formula_jobs(ans["formulas"], ans["max_nv"], seed)


def make_semantics(answers, seed):
    ans = answers["semantics"]
    return _formula_jobs(ans["formulas"], ans["max_nv"], seed)


# ---------------------------------------------------------------------------
# algebra: exhaustive axiom checks and syntactic pg-pairs

SIG = trees.alphabet("f/2", "a/0", "b/0")
TRUNC = 3


def _reference(label):
    """The paper's preclones: T_exists (or/true) and T_p (sum mod p)."""
    if label == "texists":
        return preclone.t_exists(TRUNC).preclone
    return preclone.t_mod(int(label[len("tmod"):]), TRUNC).preclone


def _axiom_verdict(S):
    return "OK" if preclone.check_axioms(S).ok else "VIOLATION"


def corrupt_dump(text, unit, sort_sizes, pick):
    """Change the result of one composition line of a dump.

    Only lines that are not unit-law instances are candidates (neither the
    head nor every argument is the unit), so a violation can only be
    found by the associativity walk.  ``pick`` selects the line.
    """
    lines = text.splitlines()
    candidates = []
    for i, line in enumerate(lines):
        if not line.startswith("comp "):
            continue
        body = line.partition(": ")[2]  # "f (g1 .. gn) -> h"
        head = body.split()[0]
        args = body[body.index("(") + 1 : body.index(")")].split()
        if head != unit and any(a != unit for a in args):
            candidates.append(i)
    i = candidates[pick % len(candidates)]
    before, _, result = lines[i].rpartition(" -> ")
    rank, index = map(int, result.split("."))
    lines[i] = f"{before} -> {rank}.{(index + 1) % sort_sizes[rank]}"
    return "\n".join(lines) + "\n"


def make_algebra(answers, seed):
    ans = answers["algebra"]
    jobs = []
    for label in ("texists", "tmod2", "tmod3"):
        jobs.append(Job(f"axioms-{label}", lambda label=label: _reference(label),
                        _axiom_verdict, ans["axioms"][label]))
    for states, aut_seed in ans["random_automata"]:
        aut = automata.random_automaton(SIG, 0, states, random.Random(aut_seed))
        label = f"random-{states}-{aut_seed}"
        jobs.append(Job(
            f"axioms-{label}",
            lambda aut=aut: preclone.transformation_pgpair(aut, TRUNC).pgpair.preclone,
            _axiom_verdict, ans["axioms"][label],
        ))
    for name, want in sorted(ans["syntactic"].items()):
        aut = automata.load_automaton(os.path.join(CORPUS, name + ".aut"))

        def build(aut=aut):
            return syntactic.syntactic_pgpair(aut, TRUNC, budget=preclone.DEFAULT_BUDGET)

        def verify(syn, ref=want["isomorphic_to"]):
            Q = syn.pgpair.preclone
            return {"classes": [Q.sort_size(n) for n in range(Q.trunc + 1)],
                    "isomorphic": syntactic.isomorphic(Q, _reference(ref))}

        jobs.append(Job(f"syntactic-{name}", build, verify,
                        {"classes": want["classes"], "isomorphic": True}))

    pick = random.Random(seed).randrange(1 << 30)

    def build_corrupted():
        pg = preclone.t_exists(TRUNC)
        S = pg.preclone
        text = preclone.dump_preclone(S, pg.generators)
        sizes = [S.sort_size(n) for n in range(S.trunc + 1)]
        bad = corrupt_dump(text, preclone.el_token(S.unit), sizes, pick)
        return preclone.load_preclone(bad)[0]

    jobs.append(Job("axioms-corrupted-dump", build_corrupted, _axiom_verdict,
                    ans["corrupted"]))
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# blockprod: the block-product identities of S []_k S for S = T_exists

DBOOL = automata.boolean_alphabet([0, 2])


def _random_element(bp, n, rng):
    S, T = bp.S, bp.T
    f = T.sort(n)[rng.randrange(T.sort_size(n))]
    F = tuple(S.sort(n)[rng.randrange(S.sort_size(n))] for _ in range(bp.n_contexts(n)))
    return (F, f)


def _random_shape(rng, width, cap):
    while True:
        ranks = [rng.randrange(0, cap + 1) for _ in range(width)]
        if sum(ranks) <= cap:
            return ranks


def _generator_keys(bp, pg):
    keys = []
    for n in range(bp.trunc + 1):
        gens = pg.generators_of_rank(n)
        for b in gens:
            for F in itertools.product(gens, repeat=bp.n_contexts(n)):
                keys.append((F, b))
    return keys


def _assoc_job(shape, seed, triples):
    """Unit laws on every generator and seeded associativity triples.

    The triples are drawn at set-up from ``shape``, a block product like
    the one the job builds: element handles of T_exists are the same in
    every instance.
    """
    k = shape.k
    rng = random.Random(f"assoc-{k}-{seed}")
    drawn = []
    for _ in range(triples):
        n = rng.randrange(0, shape.trunc + 1)
        f = _random_element(shape, n, rng)
        g_ranks = _random_shape(rng, n, shape.trunc)
        gs = [_random_element(shape, r, rng) for r in g_ranks]
        h_ranks = _random_shape(rng, sum(g_ranks), shape.trunc)
        hs = [_random_element(shape, r, rng) for r in h_ranks]
        drawn.append((f, gs, g_ranks, hs))

    def build():
        pg = preclone.t_exists(3)
        bp = blockprod.BlockProduct(pg.preclone, pg.preclone, k, trunc=3)
        return bp, _generator_keys(bp, pg)

    def verify(state):
        bp, keys = state
        bad = 0
        unit = bp.unit_key()
        for key in keys:
            bad += bp.compose(unit, [key]) != key
            bad += bp.compose(key, [unit] * key[1][0]) != key
        for f, gs, g_ranks, hs in drawn:
            lhs = bp.compose(bp.compose(f, gs), hs)
            parts = []
            pos = 0
            for g, r in zip(gs, g_ranks):
                parts.append(bp.compose(g, hs[pos : pos + r]))
                pos += r
            bad += lhs != bp.compose(f, parts)
        return bad

    return build, verify


def _gamma_constant(bp):
    """Letters map to constant tables matching their Boolean bit."""
    gamma = {}
    for name, m in DBOOL.symbols:
        val = (m, 1) if name.startswith("1_") else (m, 0)
        gamma[name] = bp.make(lambda c, v=val: v, val)
    return gamma


def _gamma_context_sensitive(bp):
    """Tables read the context's inner tuple; second components swap bits."""
    gamma = {}
    for name, m in DBOOL.symbols:
        one = name.startswith("1_")

        def fv(c, m=m, one=one):
            hot = any(x == (0, 1) for x in c.v) or c.u == (1, 1)
            return (m, 1) if (one != hot) else (m, 0)

        gamma[name] = bp.make(fv, (m, 0 if one else 1))
    return gamma


def _gamma_all_or(bp):
    return {name: bp.make(lambda c, m=m: (m, 0), (m, 0)) for name, m in DBOOL.symbols}


def _two_ways_job(maker, seed, samples, shapes, pool):
    """eval_two_ways on seeded (tree, context) pairs, for k = 0 and 1."""
    drawn = []
    for k, shape in enumerate(shapes):
        rng = random.Random(f"{maker.__name__}-{k}-{seed}")
        for _ in range(samples):
            n = rng.choice((0, 1, 2))
            t = pool[n][rng.randrange(len(pool[n]))]
            drawn.append((k, t, n, rng.randrange(len(shape.contexts[n]))))

    def build():
        S = preclone.t_exists(3).preclone
        per_k = []
        for k in (0, 1):
            bp = blockprod.BlockProduct(S, S, k, trunc=2)
            gamma = maker(bp)
            tau = preclone.Morphism(DBOOL, bp.T, {n: g[1] for n, g in gamma.items()})
            per_k.append((bp, gamma, tau))
        return per_k

    def verify(per_k):
        bad = 0
        for k, t, n, d in drawn:
            bp, gamma, tau = per_k[k]
            a, b = blockprod.eval_two_ways(bp, gamma, tau, t, bp.contexts[n][d])
            bad += a != b
        return bad

    return build, verify


def _restricted():
    S = preclone.t_exists(3).preclone
    t_els = [S.sort(n) for n in range(S.trunc + 1)]
    return S, blockprod.restricted_block_product(S, S, t_els, 1, trunc=2)


def _alpha_sweep_job(seed, width2_samples, shape):
    """alpha_C for every context C, over every carrier element at widths 0
    and 1 and a seeded sample at width 2 (the full carrier is too large)."""
    rng = random.Random(f"alpha-sweep-{seed}")
    sample = [_random_element(shape.bp, 2, rng) for _ in range(width2_samples)]

    def build():
        S, rsub = _restricted()
        plan = []
        for n in (0, 1, 2):
            dst = blockprod.BlockProduct(S, S, n, trunc=2)
            D0 = syntactic.Context(S.unit, 0, (S.unit,) * n, 0)
            elems = list(rsub.iter_carrier(n)) if n <= 1 else sample
            plan.append((n, dst, dst.ctx_index[n][D0], elems))
        return rsub, plan

    def verify(state):
        rsub, plan = state
        bad = 0
        for n, dst, d0, elems in plan:
            for C in rsub.bp.contexts[n]:
                alpha = blockprod.alpha_context_morphism(rsub, dst, C)
                for ff in elems:
                    FC, f2 = alpha(ff)
                    bad += f2 != ff[1] or FC[d0] != rsub.bp.F_at(ff, C)
        return bad

    return build, verify


def _alpha_hom_job(seed, composites, shape):
    """alpha_C(f . gs) = alpha_C(f) . alpha_C(gs) on seeded composites."""
    rng = random.Random(f"alpha-hom-{seed}")
    drawn = []
    while len(drawn) < composites:
        w = rng.randrange(0, 3)
        f = _random_element(shape.bp, w, rng)
        widths = [rng.randrange(0, 3) for _ in range(w)]
        if sum(widths) > 2:
            continue
        drawn.append((f, [_random_element(shape.bp, x, rng) for x in widths]))

    def build():
        S, rsub = _restricted()
        return rsub, blockprod.BlockProduct(S, S, 1, trunc=2), rsub.bp.contexts[1][3]

    def verify(state):
        rsub, dst, C = state
        alpha = blockprod.alpha_context_morphism(rsub, dst, C)
        bad = 0
        for f, gs in drawn:
            bad += alpha(rsub.bp.compose(f, gs)) != dst.compose(alpha(f), [alpha(g) for g in gs])
        return bad

    return build, verify


def make_blockprod(answers, seed):
    # every random input is drawn here, at set-up, from block products of
    # the same shape as those the jobs build; the sample sizes are those of
    # acceptance criteria 5-7
    S = preclone.t_exists(3).preclone
    pool = {n: list(trees.enumerate_trees(DBOOL, n, 4)) for n in (0, 1, 2)}
    two_ways_shapes = [blockprod.BlockProduct(S, S, k, trunc=2) for k in (0, 1)]
    restricted = _restricted()[1]
    specs = [(f"assoc-k{k}", _assoc_job(blockprod.BlockProduct(S, S, k, trunc=3), seed, 1000))
             for k in (0, 1)]
    for maker in (_gamma_constant, _gamma_context_sensitive, _gamma_all_or):
        name = "two-ways-" + maker.__name__[len("_gamma_"):]
        specs.append((name, _two_ways_job(maker, seed, 100, two_ways_shapes, pool)))
    specs.append(("alpha-sweep", _alpha_sweep_job(seed, 500, restricted)))
    specs.append(("alpha-hom", _alpha_hom_job(seed, 100, restricted)))
    expected = answers["blockprod"]["violations"]
    jobs = [Job(name, build, verify, expected) for name, (build, verify) in specs]
    random.Random(seed).shuffle(jobs)
    return jobs


WORKLOADS = {
    "corpus": make_corpus,
    "semantics": make_semantics,
    "algebra": make_algebra,
    "blockprod": make_blockprod,
}
