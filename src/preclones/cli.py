"""Command-line front end.

Subcommands: eval, compile, check-equiv, syntactic, blockprod, enumerate,
axioms.  Output formats are the module dump formats verbatim; identical
inputs, seed and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .automata import load_automaton
from .blockprod import BlockProduct, block_product_pg
from .compiler import check_equivalence, compile_formula
from .errors import PrecloneError, ParseError
from .logic import free_vars, parse_formula, satisfies
from .preclone import (
    check_axioms,
    dump_preclone,
    el_token,
    load_preclone,
    parse_el,
    PgPair,
    t_exists,
    t_mod,
    transformation_pgpair,
)
from .syntactic import syntactic_pgpair
from .trees import enumerate_trees, load_alphabet, parse_tree, tree_to_text


def _read(path):
    with open(path) as fh:
        return fh.read()


_HEADER_VALUES = {"alphabet": "<path>", "rank": "<k>", "lang": "<name> <path>"}


def load_formula_file(path):
    """Header lines bind the alphabet, rank and quantifier languages.

    Format: ``alphabet <path>``, ``rank <k>``, zero or more ``lang <name>
    <path>`` lines, then a ``formula`` line followed by the formula text
    (possibly spanning several lines).  Paths are relative to the file.
    The alphabet, the rank and each language are bound once.
    """
    base = os.path.dirname(os.path.abspath(path))
    sigma = None
    k = None
    langs = {}
    formula_lines = []
    in_formula = False
    bound = set()  # "alphabet", "rank" and "lang <name>"
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.strip()
        if in_formula:
            formula_lines.append(raw)
            continue
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        values = _HEADER_VALUES.get(parts[0])
        if values is not None:
            if len(parts) != 1 + len(values.split()):
                raise ParseError(f"line {lineno}: expected '{parts[0]} {values}'")
            name = " ".join(parts[:-1])
            if name in bound:
                raise ParseError(f"line {lineno}: a second {name} line")
            bound.add(name)
        if parts[0] == "alphabet":
            sigma = load_alphabet(os.path.join(base, parts[1]))
        elif parts[0] == "rank":
            if not parts[1].isdecimal():
                raise ParseError(f"line {lineno}: rank {parts[1]!r} is not a non-negative integer")
            k = int(parts[1])
        elif parts[0] == "lang":
            langs[parts[1]] = load_automaton(os.path.join(base, parts[2]))
        elif parts[0] == "formula":
            rest = line[len("formula"):].strip()
            if rest:
                formula_lines.append(rest)
            in_formula = True
        else:
            raise ParseError(f"line {lineno}: unknown header line: {line!r}")
    if sigma is None or k is None or not formula_lines:
        raise ParseError("formula file needs alphabet, rank and formula")
    phi = parse_formula(" ".join(formula_lines), sigma, k, langs)
    return phi, sigma, k, langs


def cmd_eval(args):
    phi, sigma, k, _ = load_formula_file(args.formula)
    if free_vars(phi):
        raise ParseError("eval needs a sentence; the formula has free variables")
    t = parse_tree(_read(args.tree).strip(), sigma, k)
    verdict = satisfies(t, {}, phi)
    print("SAT" if verdict else "UNSAT")
    return 0 if verdict else 1


def cmd_compile(args):
    phi, sigma, k, _ = load_formula_file(args.formula)
    variables = tuple(sorted(free_vars(phi)))
    rec = compile_formula(phi, sigma, variables, k, budget=args.budget)
    os.makedirs(args.out, exist_ok=True)
    pre = rec.pgpair.preclone
    with open(os.path.join(args.out, "carrier.pre"), "w") as fh:
        fh.write(dump_preclone(pre, rec.pgpair.generators, result_cap=k))
    with open(os.path.join(args.out, "gamma.map"), "w") as fh:
        for name, _ in rec.ext_alphabet.symbols:
            fh.write(f"{name} -> {el_token(rec.gamma.image[name])}\n")
    with open(os.path.join(args.out, "accepting.txt"), "w") as fh:
        for el in sorted(rec.accepting):
            fh.write(el_token(el) + "\n")
    with open(os.path.join(args.out, "meta.txt"), "w") as fh:
        fh.write(f"rank {k}\nvariables {' '.join(variables) or '-'}\n")
        fh.write(
            "sorts " + " ".join(str(pre.sort_size(n)) for n in range(pre.trunc + 1)) + "\n"
        )
    print(f"wrote recognizer to {args.out}")
    return 0


def cmd_check_equiv(args):
    phi, sigma, k, _ = load_formula_file(args.formula)
    variables = tuple(sorted(free_vars(phi)))
    t0 = time.time()
    rec = compile_formula(phi, sigma, variables, k, budget=args.budget)
    rep = check_equivalence(phi, rec, args.max_nv)
    print(rep.summary())
    print(f"elapsed {time.time() - t0:.2f}s", file=sys.stderr)
    for t, lam in rep.mismatches[:10]:
        where = " ".join(f"{v}->{'.'.join(map(str, p)) or 'root'}" for v, p in sorted(lam.items()))
        print(f"witness: {tree_to_text(t)} {where}".rstrip())
    return 0 if rep.ok else 1


def cmd_syntactic(args):
    a = load_automaton(args.automaton)
    if args.rank is not None and args.rank != a.rank:
        raise ParseError(f"automaton has rank {a.rank}, not {args.rank}")
    trunc = args.trunc if args.trunc is not None else a.rank + 1 + a.alphabet.max_arity
    syn = syntactic_pgpair(a, trunc, budget=args.budget)
    Q = syn.pgpair.preclone
    counts = " ".join(str(Q.sort_size(n)) for n in range(Q.trunc + 1))
    out = [f"classes {counts}"]
    out.append(dump_preclone(Q, syn.pgpair.generators).rstrip("\n"))
    text = "\n".join(out) + "\n"
    _emit(args, text)
    return 0


def cmd_blockprod(args):
    S, s_gens = load_preclone(_read(args.s_dump))
    T, t_gens = load_preclone(_read(args.t_dump))
    if args.generators:
        bp = BlockProduct(S, T, args.k, trunc=args.trunc)
        gen_keys = []
        for line in _read(args.generators).splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            f = parse_el(toks[0])
            F = tuple(parse_el(t) for t in toks[1:])
            gen_keys.append(bp.make(F, f))
        pg = bp.carrier_pgpair(gen_keys, budget=args.budget)
    else:
        _, pg = block_product_pg(
            PgPair(S, s_gens), PgPair(T, t_gens), args.k,
            trunc=args.trunc, budget=args.budget,
        )
    pre = pg.preclone
    sizes = " ".join(str(pre.sort_size(n)) for n in range(pre.trunc + 1))
    text = f"carrier {sizes}\n" + dump_preclone(pre, pg.generators)
    _emit(args, text)
    return 0


def cmd_enumerate(args):
    sigma = load_alphabet(args.alphabet)
    lines = [tree_to_text(t) for t in enumerate_trees(sigma, args.rank, args.max_nv)]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _axioms_target(args):
    if args.builtin:
        name = args.builtin
        if name == "texists":
            return t_exists(args.trunc).preclone, f"texists trunc={args.trunc}"
        if name == "tmod":
            return t_mod(args.p, args.trunc).preclone, f"tmod p={args.p} trunc={args.trunc}"
        raise ParseError(f"unknown builtin {name!r} (texists or tmod)")
    if args.automaton:
        a = load_automaton(args.automaton)
        res = transformation_pgpair(a, args.trunc, budget=args.budget)
        return res.pgpair.preclone, f"automaton {args.automaton} trunc={args.trunc}"
    if args.dump:
        S, _ = load_preclone(_read(args.dump))
        return S, f"dump {args.dump}"
    raise ParseError("axioms needs --builtin, --automaton or --dump")


def cmd_axioms(args):
    S, label = _axioms_target(args)
    if args.mode == "sampled":
        rep = check_axioms(S, mode="sampled", samples=args.samples, seed=args.seed)
        print(f"{label} [sampled n={args.samples} seed={args.seed}]: {rep.summary()}")
    else:
        rep = check_axioms(S)
        print(f"{label} [exhaustive]: {rep.summary()}")
    for v in rep.violations[:10]:
        print("violation:", v)
    return 0 if rep.ok else 1


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def build_parser():
    p = argparse.ArgumentParser(prog="preclones")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out=True):
        sp.add_argument("--budget", type=int, default=100_000)
        if out:
            sp.add_argument("--out")

    sp = sub.add_parser("eval", help="evaluate a sentence on a tree")
    sp.add_argument("tree")
    sp.add_argument("formula")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("compile", help="compile a formula to a recognizer")
    sp.add_argument("formula")
    sp.add_argument("--out", required=True)
    sp.add_argument("--budget", type=int, default=100_000)
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("check-equiv", help="compare recognizer against semantics")
    sp.add_argument("formula")
    sp.add_argument("--max-nv", type=int, default=3)
    common(sp, out=False)
    sp.set_defaults(func=cmd_check_equiv)

    sp = sub.add_parser("syntactic", help="syntactic pg-pair of an automaton")
    sp.add_argument("automaton")
    sp.add_argument("--rank", type=int, default=None)
    sp.add_argument("--trunc", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_syntactic)

    sp = sub.add_parser("blockprod", help="block product of two preclone dumps")
    sp.add_argument("s_dump")
    sp.add_argument("t_dump")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--trunc", type=int, default=None)
    sp.add_argument("--generators")
    common(sp)
    sp.set_defaults(func=cmd_blockprod)

    sp = sub.add_parser("enumerate", help="list trees of a rank up to an NV bound")
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--max-nv", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("axioms", help="check the preclone axioms")
    sp.add_argument("--builtin")
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--automaton")
    sp.add_argument("--dump")
    sp.add_argument("--trunc", type=int, default=3)
    sp.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, out=False)
    sp.set_defaults(func=cmd_axioms)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (PrecloneError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
