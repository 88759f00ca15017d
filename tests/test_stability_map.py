"""The paper's BCGS/BCGS2 contrast as a property over a seeded grid of
saddle-point families, not only at the gate's fixed rows."""

import itertools

from saddleqr.bench import BenchConfig, run_bench
from saddleqr.errors import LinAlgError
from saddleqr.matrix import MACHINE_EPS

SHAPES = {"1": (12, 6), "2": (60, 30), "3": (90, 6)}
T_LIST = (1e-4, 1e-2, 1.0, 1e2, 1e4)
# orth and dec as in criteria 4 and 5, res and stab as in criterion 3.
BANDS = {"orth": 1e3, "dec": 1e3, "res": 1e2, "stab": 1e2}
TYPED = {f"ERR:{cls.code}" for cls in LinAlgError.__subclasses__()}


def grid_rows():
    # sB = 16 takes rows past u * kappa(M) = 1, beyond the mild assumption.
    for example, s_ac, s_b, seed in itertools.product(SHAPES, (6.0, 14.0), (6.0, 16.0), (0, 1)):
        m, n = SHAPES[example]
        cfg = BenchConfig(example=example, m=m, n=n, s_a=s_ac, s_b=s_b, s_c=s_ac,
                          t_list=T_LIST, seed=seed, methods=("bcgs", "bcgs2"))
        for row in run_bench(cfg):
            yield (example, s_ac, s_b, seed, row.t), row


def test_bcgs2_in_band_or_typed_error_and_bcgs_out_of_band_on_clean_rows():
    rows = dict(grid_rows())
    for key, row in rows.items():
        for name, v in row.cells["bcgs2"].items():
            assert v in TYPED if isinstance(v, str) else v <= BANDS[name], (key, name, v)
    clean = {key: row for key, row in rows.items() if not row.has_errors}
    for key, row in clean.items():
        cells = row.cells["bcgs"]
        assert cells["orth"] > BANDS["orth"] or cells["res"] > BANDS["res"], (key, cells)
    # Most rows are clean, and bcgs2 stays in band on clean rows past u * kappa(M) = 1.
    assert len(rows) == 120 and len(clean) >= 90
    assert any(row.kappa * MACHINE_EPS / 2 >= 1.0 for row in clean.values())
