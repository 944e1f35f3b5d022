"""Train and embed write the same bytes whatever BLAS thread count the
environment asks for.

Threaded BLAS kernels split a product by thread, and at most N past about
165 atoms OpenBLAS's threaded syrk (the decoder's Z Z^T) gives other bits
than its one-thread kernel. `tiergae` pins BLAS to one thread when it is
imported, so a run at OPENBLAS_NUM_THREADS=2 must match one at 1. The
pin acts only where numpy was not loaded first; the suite's own process
runs BLAS at one thread too.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from tiergae.cli import cmd_ingest
from tiergae.sdf import Atom, Bond, Molecule, write_sdf

ROOT = Path(__file__).resolve().parents[1]


def chain_molecule(carbons: int) -> Molecule:
    """A carbon chain with a C=C on every seventh bond, a hydroxyl on every
    fifth carbon and hydrogens on every free valence."""
    symbols, bonds, free = [], [], []

    def atom(symbol: str, valence: int) -> int:
        symbols.append(symbol)
        free.append(valence)
        return len(symbols) - 1

    def bond(i: int, j: int, order: int) -> None:
        bonds.append((i, j, order))
        free[i] -= order
        free[j] -= order

    prev = None
    for k in range(carbons):
        c = atom("C", 4)
        if prev is not None:
            bond(prev, c, 2 if k % 7 == 3 else 1)
        if k % 5 == 2:
            bond(c, atom("O", 2), 1)
        prev = c
    for i in range(len(symbols)):
        for _ in range(free[i]):
            bonds.append((i, atom("H", 1), 1))
    atoms = [Atom(symbol=s, charge=0, coords=(float(i), 0.0, 0.0))
             for i, s in enumerate(symbols)]
    return Molecule(atoms=atoms, bonds=[Bond(a1=i + 1, a2=j + 1, order=o)
                                        for i, j, o in bonds], name=f"chain{carbons}")


def cli(threads: int, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS"), str(threads)))
    done = subprocess.run([sys.executable, "-m", "tiergae.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two BLAS threads")
def test_train_and_embed_bytes_do_not_depend_on_blas_threads(tmp_path):
    mol = chain_molecule(59)
    assert mol.atom_count == 175
    (tmp_path / "chain.sdf").write_text(write_sdf([mol]), encoding="utf-8")
    corpus = cmd_ingest([tmp_path / "chain.sdf"], tmp_path / "corpus.json")
    outputs = []
    for threads in (1, 2):
        run = tmp_path / f"threads{threads}"
        cli(threads, "train", str(corpus), "--epochs", "10", "--out", str(run / "model.json"))
        cli(threads, "embed", str(corpus), "--checkpoint", str(run / "model.json"),
            "--out", str(run / "export"))
        files = [run / "model.json", run / "model_history.csv",
                 *sorted((run / "export").glob("*.json"))]
        outputs.append({f.relative_to(run).as_posix(): f.read_bytes() for f in files})
    assert list(outputs[0]) == ["model.json", "model_history.csv", "export/chain59.json"]
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} depends on the BLAS thread count"


def openblas_threads() -> Optional[int]:
    """The thread count of the OpenBLAS bundled with numpy, or None where
    numpy bundles none."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        if hasattr(lib, name):
            return getattr(lib, name)()
    return None


def test_the_suite_runs_blas_at_one_thread():
    # conftest.py imports tiergae before numpy, so the pin holds in-process
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy bundles no scipy-openblas library")
    assert threads == 1
