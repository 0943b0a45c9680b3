import subprocess
import sys
from pathlib import Path

from xcartier.linalg import nullspace_mod_p


def test_nullspace_of_a_rank_deficient_system():
    # over F_5: row 3 = row 1 + 2 * row 2, so the rank is 2 and columns 2 and 3 are free;
    # the reduced echelon form is [[1, 0, 2, 3], [0, 1, 1, 1]]
    rows = [{0: 1, 1: 2, 2: 4}, {1: 1, 2: 1, 3: 1}, {0: 1, 1: 4, 2: 6, 3: 2}]
    basis = nullspace_mod_p(rows, 4, 5)
    assert basis == [{2: 1, 0: 3, 1: 4}, {3: 1, 0: 2, 1: 4}]
    for vec in basis:
        for row in rows:
            assert sum(c * vec.get(k, 0) for k, c in row.items()) % 5 == 0


def test_nullspace_without_rows_is_the_identity_basis():
    assert nullspace_mod_p([], 3, 7) == [{0: 1}, {1: 1}, {2: 1}]


def test_nullspace_ignores_zero_rows():
    rows = [{}, {0: 3, 1: 0}, {1: 7}]  # the second reduces to 3*x0, the third to 0 mod 7
    assert nullspace_mod_p(rows, 2, 7) == [{1: 1}]


def test_import_leaves_numpy_out():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, xcartier, xcartier.acceptance; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60, cwd=src)
    assert out.stdout.strip() == "False"
