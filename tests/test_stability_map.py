"""The paper's BCGS/BCGS2 contrast as a property over a seeded grid of
saddle-point families, not only at the gate's fixed rows."""

import itertools

import numpy as np

from saddleqr.bench import BenchConfig, base_blocks, run_bench
from saddleqr.errors import LinAlgError
from saddleqr.matrix import MACHINE_EPS, mat_vec, vector_norm
from saddleqr.norms import spectral_norm
from saddleqr.saddle import solve_detailed
from saddleqr.stability import backward_certificate
from saddleqr.testgen import scale_problem

SHAPES = {"1": (12, 6), "2": (60, 30), "3": (90, 6)}
T_LIST = (1e-4, 1e-2, 1.0, 1e2, 1e4)
# orth and dec as in criteria 4 and 5, res and stab as in criterion 3.
BANDS = {"orth": 1e3, "dec": 1e3, "res": 1e2, "stab": 1e2}
TYPED = {f"ERR:{cls.code}" for cls in LinAlgError.__subclasses__()}


def grid_configs():
    # sB = 16 takes rows past u * kappa(M) = 1, beyond the mild assumption.
    for example, s_ac, s_b, seed in itertools.product(SHAPES, (6.0, 14.0), (6.0, 16.0), (0, 1)):
        m, n = SHAPES[example]
        yield (example, s_ac, s_b, seed), BenchConfig(
            example=example, m=m, n=n, s_a=s_ac, s_b=s_b, s_c=s_ac, t_list=T_LIST, seed=seed,
            methods=("bcgs", "bcgs2"))


def grid_rows():
    for key, cfg in grid_configs():
        for row in run_bench(cfg):
            yield (*key, row.t), row


def grid_certificates():
    """(row key, method, certificate, ||M z - f||, ||M|| ||z||, ||f||) of every grid cell
    whose solve and certificate succeed, solved as the bench solves them."""
    for key, cfg in grid_configs():
        for t_index, t in enumerate(cfg.t_list):
            a1, b1, c1, provenance = base_blocks(cfg, t_index)
            try:
                problem = scale_problem(a1, b1, c1, t, provenance)
            except LinAlgError:
                continue
            m, f, first = problem.blocks.matrix, problem.f, None
            for method in cfg.methods:
                try:
                    detail = solve_detailed(problem.blocks, f, method, first_pass=first)
                    cert = backward_certificate(m, detail.q, detail.r, f, detail.solution.z)
                except LinAlgError:
                    continue
                z = detail.solution.z
                first = detail if method == "bcgs" else None
                yield ((*key, t), method, cert, vector_norm(mat_vec(m, z) - f),
                       spectral_norm(m) * vector_norm(z), vector_norm(f))


def grid_predictors():
    """(row key, ||M2|| ||R2^-1||) of every grid row whose bcgs solve succeeds, with
    M2 = M[:, m:] and R2 = R[m:, m:] of the bcgs factors, by numpy's SVD."""
    for key, cfg in grid_configs():
        for t_index, t in enumerate(cfg.t_list):
            a1, b1, c1, provenance = base_blocks(cfg, t_index)
            try:
                problem = scale_problem(a1, b1, c1, t, provenance)
                detail = solve_detailed(problem.blocks, problem.f, "bcgs")
            except LinAlgError:
                continue
            m = problem.blocks.m
            r2_min = np.linalg.svd(detail.r.array[m:, m:], compute_uv=False)[-1]
            yield (*key, t), np.linalg.norm(detail.matrix.array[:, m:], 2) / r2_min


def test_bcgs_loss_tracks_m2_r2inv_and_bcgs2_holds_below_its_boundary(record_property):
    # A Gram-Schmidt projection loses orthogonality in proportion to u ||M2|| ||Y^-1||,
    # Y = (I - Q1 Q1^T) M2 = Q2 R2 (Giraud, Langou, Rozloznik & van den Eshof, 2005), and
    # reorthogonalized BCGS holds under an O(u) kappa < 1 assumption (Barlow &
    # Smoktunowicz, 2013).  Bands fixed before this test ran, from the ratio measured on
    # this grid (0.081-1.52 on its 102 bcgs rows) and in two reduced-size sweeps over 501
    # rows (0.068-2.7), with a margin: orth_bcgs / (||M2|| ||R2^-1||) in [0.02, 10]; and
    # orth_bcgs2 <= 12 (measured <= 8.91 here, <= 10.5 in the sweeps) on every row with
    # u ||M2|| ||R2^-1|| < 1, u = eps.  Rows at or past 1 are counted, not bounded (4 here:
    # example 1, sB = 16, t = 1).
    rows = dict(grid_rows())
    below = above = 0
    for key, predictor in grid_predictors():
        cells = {method: rows[key].cells[method]["orth"] for method in ("bcgs", "bcgs2")}
        assert 0.02 <= cells["bcgs"] / predictor <= 10.0, (key, cells, predictor)
        if MACHINE_EPS * predictor < 1.0:
            below += 1
            assert cells["bcgs2"] <= 12.0, (key, cells, predictor)
        else:
            above += 1
    record_property("rows_below_boundary", below)
    record_property("rows_at_or_past_boundary", above)
    assert below >= 90 and above >= 1, (below, above)


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


def test_theorem1_certificate_holds_on_every_certifiable_cell():
    # ||M z - f|| <= mu ||M|| ||z|| + nu ||f|| with no slack term, for both methods.  A cell
    # whose factors break the hypotheses (beta < 1, alpha kappa < 1) has kappa(M) >= 1e14,
    # as in criterion 7.  nu = beta + delta (1 + beta) carries bcgs's orthogonality loss
    # beta, so the certificate holds for bcgs too and tells the methods apart by nu alone.
    nus = {"bcgs": {}, "bcgs2": {}}
    for key, method, cert, resid, norm_mz, norm_f in grid_certificates():
        if not cert.hypotheses_ok:
            assert cert.kappa >= 1e14, (key, method, cert.kappa)
            continue
        assert resid <= cert.mu * norm_mz + cert.nu * norm_f, (key, method, resid)
        nus[method][key] = cert.nu
    assert min(len(per_row) for per_row in nus.values()) >= 80
    assert all(nu >= 10.0 * nus["bcgs2"][key]  # at least 45 times larger when recorded
               for key, nu in nus["bcgs"].items() if key in nus["bcgs2"])
