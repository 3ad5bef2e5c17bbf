"""Regenerate the golden CLI outputs checked by tests/test_golden.py.

Run from anywhere:

    python tests/golden/make_golden.py

Every output comes from a fresh ``python -m preclones.cli`` process, the
same way the test reads it back.  Only regenerate when a change of output
is intended; the point of the files is that a refactor leaves them alone.

A change that only renumbers a compiled carrier is checked first with

    python tests/golden/make_golden.py renumbering OLD_DIR NEW_DIR

over two ``compile --out`` directories (or two directories holding one
per formula); it prints one report line per formula and exits 1 if any
pair is not a renumbering of the other.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys

GOLDEN = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(GOLDEN))
CORPUS = os.path.join(ROOT, "tests", "corpus")

# the whole corpus: every formula builds atom automata and Boolean products,
# and ex04, ex05, ex15, ex19, ex27 and ex31 also go through a block product
# (ex15 reuses one written binder in two sibling scopes, ex27 nests deepest,
# ex31 has a free variable beside a bound one)
COMPILED = tuple(f"ex{i:02d}" for i in range(1, 33))
SYNTACTIC_ARGS = ("syntactic", os.path.join(CORPUS, "k_exists0.aut"), "--trunc", "2")
TEXISTS_DUMP = os.path.join(GOLDEN, "t_exists2.pre")
BLOCKPROD_ARGS = ("blockprod", TEXISTS_DUMP, TEXISTS_DUMP, "--k", "0", "--trunc", "2")
# axioms reports name their input, so their paths are relative to ROOT
AXIOMS = (
    ("axioms_texists_trunc3.txt", ("--builtin", "texists", "--trunc", "3")),
    ("axioms_k_exists0_trunc3.txt",
     ("--automaton", "tests/corpus/k_exists0.aut", "--trunc", "3")),
    ("axioms_k_path0_trunc2.txt",
     ("--automaton", "tests/corpus/k_path0.aut", "--trunc", "2")),
    ("axioms_t_exists2_sampled200_seed3.txt",
     ("--dump", "tests/golden/t_exists2.pre", "--mode", "sampled",
      "--samples", "200", "--seed", "3")),
    ("axioms_tmod3_trunc3.txt", ("--builtin", "tmod", "--p", "3", "--trunc", "3")),
)


def cli(args, hash_seed="0"):
    """stdout of ``python -m preclones.cli ARGS`` in a fresh process at ROOT."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "preclones.cli", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout


def blockprod_digest(text):
    """(sha256 hex, carrier line) of a blockprod dump."""
    return hashlib.sha256(text.encode()).hexdigest(), text.split("\n", 1)[0]


def read_compile_dir(path):
    """The parts of a ``compile --out`` directory that renumbering touches."""

    def lines(fname):
        with open(os.path.join(path, fname)) as fh:
            return fh.read().splitlines()

    def el(tok):
        r, i = tok.split(".")
        return int(r), int(i)

    out = {"sizes": {}, "gens": [], "descs": {}, "comps": {}}
    for line in lines("carrier.pre"):
        kw, _, rest = line.partition(" ")
        if kw == "sort":
            n, size = rest.split()
            out["sizes"][int(n)] = int(size)
        elif kw == "unit":
            out["unit"] = el(rest)
        elif kw == "gen":
            out["gens"].append(el(rest))
        elif kw == "desc":
            tok, _, text = rest.partition(" ")
            out["descs"][el(tok)] = text
        elif kw == "comp":
            head, _, result = rest.partition(" -> ")
            f, _, args = head.split(" ", 1)[1].partition(" ")
            gs = tuple(el(t) for t in args.strip("()").split())
            out["comps"][(el(f), gs)] = el(result)
    pairs = (line.split(" -> ") for line in lines("gamma.map"))
    out["gamma"] = {name: el(tok) for name, tok in pairs}
    out["accepting"] = {el(tok) for tok in lines("accepting.txt")}
    out["meta"] = lines("meta.txt")
    return out


def check_renumbering(old_dir, new_dir):
    """Is new_dir's recognizer old_dir's with its elements renumbered?

    The map sends the old unit and gamma images to the new ones and is
    closed under the old comp lines, looking each image up in the new comp
    lines.  Returns (problems, report): problems is empty when the map is
    a rank-preserving bijection that commutes with every listed
    composition, takes gen onto gen and accepting onto accepting, and
    meta.txt is equal; report lists the desc lines that differ.
    """
    old, new = read_compile_dir(old_dir), read_compile_dir(new_dir)
    problems = []
    phi = {}

    def bind(a, b, why):
        if phi.setdefault(a, b) != b:
            problems.append(f"{why}: {a} maps to both {phi[a]} and {b}")

    bind(old["unit"], new["unit"], "unit")
    if set(old["gamma"]) != set(new["gamma"]):
        problems.append("gamma.map names differ")
    for name, a in old["gamma"].items():
        if name in new["gamma"]:
            bind(a, new["gamma"][name], f"gamma {name}")
    grown = True
    while grown and not problems:
        grown = False
        for (f, gs), h in old["comps"].items():
            if f in phi and all(g in phi for g in gs) and h not in phi:
                image = new["comps"].get((phi[f], tuple(phi[g] for g in gs)))
                if image is None:
                    problems.append(f"no new comp line for the image of {f} {gs}")
                    break
                bind(h, image, "comp")
                grown = True

    if old["meta"] != new["meta"]:
        problems.append("meta.txt differs")
    domain = {(n, i) for n, size in old["sizes"].items() for i in range(size)}
    if set(phi) != domain:
        problems.append(f"map covers {len(phi)} of {len(domain)} elements")
    if any(a[0] != b[0] for a, b in phi.items()):
        problems.append("map changes a rank")
    if len(set(phi.values())) != len(phi) or old["sizes"] != new["sizes"]:
        problems.append("map is not a bijection")
    image = lambda els: {phi.get(e) for e in els}
    mapped = {(phi.get(f), tuple(phi.get(g) for g in gs)): phi.get(h)
              for (f, gs), h in old["comps"].items()}
    if mapped != new["comps"]:
        problems.append("map does not commute with the comp lines")
    if image(old["gens"]) != set(new["gens"]):
        problems.append("map does not take gen onto gen")
    if image(old["accepting"]) != new["accepting"]:
        problems.append("map does not take accepting onto accepting")
    moved = sum(1 for a, b in phi.items() if a != b)
    tok = "{0[0]}.{0[1]}".format
    desc = [f"desc {tok(a)} {text} -> {tok(phi[a])} {new['descs'].get(phi[a])}"
            for a, text in sorted(old["descs"].items())
            if a in phi and new["descs"].get(phi[a]) != text]
    report = [f"{moved} of {len(domain)} elements renumbered, "
              f"{len(desc)} desc lines differ"] + desc
    return problems, report


def renumbering_main(old_root, new_root):
    """Check one pair of compile directories, or each formula's pair."""
    if os.path.exists(os.path.join(old_root, "carrier.pre")):
        pairs = [(os.path.basename(os.path.normpath(old_root)), old_root, new_root)]
    else:
        pairs = [(name, os.path.join(old_root, name), os.path.join(new_root, name))
                 for name in sorted(os.listdir(old_root))]
    failed = False
    for name, old_dir, new_dir in pairs:
        problems, report = check_renumbering(old_dir, new_dir)
        failed = failed or bool(problems)
        print(f"{name}: {'; '.join(problems) or 'OK'}, {report[0]}")
        for line in report[1:]:
            print(f"  {line}")
    return 1 if failed else 0


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from preclones.preclone import dump_preclone, t_exists

    pg = t_exists(2)
    with open(TEXISTS_DUMP, "w") as fh:
        fh.write(dump_preclone(pg.preclone, pg.generators))

    for name in COMPILED:
        out = os.path.join(GOLDEN, "compile", name)
        shutil.rmtree(out, ignore_errors=True)
        cli(["compile", os.path.join(CORPUS, name + ".lind"), "--out", out])

    with open(os.path.join(GOLDEN, "syntactic_k_exists0_trunc2.txt"), "w") as fh:
        fh.write(cli(SYNTACTIC_ARGS))

    for fname, args in AXIOMS:
        with open(os.path.join(GOLDEN, fname), "w") as fh:
            fh.write(cli(["axioms", *args]))

    digest, carrier = blockprod_digest(cli(BLOCKPROD_ARGS))
    with open(os.path.join(GOLDEN, "blockprod_t_exists2_k0_trunc2.txt"), "w") as fh:
        fh.write(f"sha256 {digest}\n{carrier}\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["renumbering"]:
        sys.exit(renumbering_main(*sys.argv[2:]))
    main()
