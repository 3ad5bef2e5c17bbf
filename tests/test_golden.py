"""Golden CLI outputs: byte-identical across processes and hash seeds.

The files under tests/golden/ were written by tests/golden/make_golden.py;
each check reruns the same command in a fresh process under two
PYTHONHASHSEED values and compares byte for byte.
"""

import importlib.util
import os

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
