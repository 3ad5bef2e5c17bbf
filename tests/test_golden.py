"""Golden CLI outputs: byte-identical across processes and hash seeds.

The files under tests/golden/ were written by tests/golden/make_golden.py;
each check reruns the same command in a fresh process under two
PYTHONHASHSEED values and compares byte for byte.
"""

import importlib.util
import os
import re

import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
_spec = importlib.util.spec_from_file_location(
    "make_golden", os.path.join(GOLDEN, "make_golden.py")
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

HASH_SEEDS = ("0", "1")


def read(path):
    with open(path) as fh:
        return fh.read()


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@pytest.mark.parametrize("name", make_golden.COMPILED)
def test_compile_output_matches_golden(name, hash_seed, tmp_path):
    out = tmp_path / name
    make_golden.cli(
        ["compile", os.path.join(make_golden.CORPUS, name + ".lind"), "--out", str(out)],
        hash_seed,
    )
    want_dir = os.path.join(GOLDEN, "compile", name)
    assert sorted(os.listdir(out)) == sorted(os.listdir(want_dir))
    for fname in os.listdir(want_dir):
        assert read(out / fname) == read(os.path.join(want_dir, fname)), fname


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_syntactic_output_matches_golden(hash_seed):
    got = make_golden.cli(make_golden.SYNTACTIC_ARGS, hash_seed)
    assert got == read(os.path.join(GOLDEN, "syntactic_k_exists0_trunc2.txt"))


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_blockprod_output_matches_golden(hash_seed):
    digest, carrier = make_golden.blockprod_digest(
        make_golden.cli(make_golden.BLOCKPROD_ARGS, hash_seed)
    )
    want = read(os.path.join(GOLDEN, "blockprod_t_exists2_k0_trunc2.txt"))
    assert f"sha256 {digest}\n{carrier}\n" == want


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@pytest.mark.parametrize("fname,args", make_golden.AXIOMS)
def test_axioms_report_matches_golden(fname, args, hash_seed):
    got = make_golden.cli(["axioms", *args], hash_seed)
    assert got == read(os.path.join(GOLDEN, fname))


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@pytest.mark.parametrize("fname,args", make_golden.ENUMERATE)
def test_enumerate_output_matches_golden(fname, args, hash_seed):
    got = make_golden.cli(["enumerate", *args], hash_seed)
    assert got == read(os.path.join(GOLDEN, fname))


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@pytest.mark.parametrize("fname,args", make_golden.CHECK_EQUIV)
def test_check_equiv_output_matches_golden(fname, args, hash_seed):
    got = make_golden.cli(["check-equiv", *args], hash_seed)
    assert got == read(os.path.join(GOLDEN, fname))


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@pytest.mark.parametrize("fname,kind,args", make_golden.CORRUPTED_CHECK_EQUIV)
def test_corrupted_check_equiv_witnesses_match_golden(fname, kind, args, hash_seed):
    got = make_golden.corrupted_check_equiv(kind, args, hash_seed)
    assert got == read(os.path.join(GOLDEN, fname))


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@pytest.mark.parametrize("tree", make_golden.EVAL_TREES)
def test_eval_output_matches_golden(tree, hash_seed):
    got = make_golden.eval_report(tree, hash_seed)
    assert got == read(os.path.join(GOLDEN, f"eval_{tree}.txt"))


# -- the renumbering checker used before regenerating a compile golden --------

TOKEN = re.compile(r"\b(\d+)\.(\d+)\b")
RENUMBERED = ("ex21", "ex27", "ex32")


def reversed_copy(src, dst, bad_comp=False):
    """src's compile directory with each sort's elements in reverse order;
    with bad_comp, the first comp line into a sort of two or more elements
    gets another result."""
    sizes = {}
    for line in read(os.path.join(src, "carrier.pre")).splitlines():
        if line.startswith("sort "):
            _, n, size = line.split()
            sizes[n] = int(size)

    def flip(m):
        return f"{m[1]}.{sizes[m[1]] - 1 - int(m[2])}"

    os.makedirs(dst)
    for fname in os.listdir(src):
        out = []
        for line in read(os.path.join(src, fname)).splitlines():
            if line.startswith("desc "):
                _, tok, text = line.split(" ", 2)
                line = f"desc {TOKEN.sub(flip, tok)} {text}"
            else:
                line = TOKEN.sub(flip, line)
            if bad_comp and line.startswith("comp "):
                before, _, result = line.rpartition(" -> ")
                n, i = result.split(".")
                if sizes[n] > 1:
                    line = f"{before} -> {n}.{(int(i) + 1) % sizes[n]}"
                    bad_comp = False
            out.append(line)
        with open(os.path.join(dst, fname), "w") as fh:
            fh.write("\n".join(out) + "\n")
    assert not bad_comp


@pytest.mark.parametrize("name", RENUMBERED)
def test_renumbering_checker_accepts_a_renumbered_golden(name, tmp_path):
    golden = os.path.join(GOLDEN, "compile", name)
    problems, report = make_golden.check_renumbering(golden, golden)
    assert problems == [] and report == [report[0]]
    assert report[0].startswith("0 of ")
    reversed_copy(golden, tmp_path / name)
    problems, report = make_golden.check_renumbering(golden, tmp_path / name)
    assert problems == [] and report == [report[0]]
    assert not report[0].startswith("0 of ")


@pytest.mark.parametrize("name", RENUMBERED)
def test_renumbering_checker_rejects_a_changed_composition(name, tmp_path):
    golden = os.path.join(GOLDEN, "compile", name)
    reversed_copy(golden, tmp_path / name, bad_comp=True)
    problems, _ = make_golden.check_renumbering(golden, tmp_path / name)
    assert problems


# -- parser outcomes on seeded edits of formula and tree texts ----------------

_spec = importlib.util.spec_from_file_location(
    "parse_edits", os.path.join(GOLDEN, "parse_edits.py")
)
parse_edits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parse_edits)


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_parse_outcomes_match_golden(hash_seed):
    got = make_golden.cli(["--print"], hash_seed, launcher=(parse_edits.__file__,))
    assert got == read(parse_edits.OUTCOMES)


@pytest.mark.parametrize("seed,chars", [
    (parse_edits.SEED, parse_edits.CHARS),
    (7, parse_edits.CHARS + "²١\xa0\x0c"),  # digits int() refuses, non-ASCII spaces
])
def test_edited_texts_raise_nothing_but_parse_errors(seed, chars):
    for case in parse_edits.cases(seed, chars):
        parse_edits.outcome(*case)  # any other exception propagates
