"""The OpenBLAS boundary: every binding refuses a wrong operand before any
pointer reaches the library, and leaves the operand as it was."""

import numpy as np
import pytest

from saddleqr import LinAlgError, NonConvergedError, _openblas


class _NoLibrary:
    """Stands in for the library: any symbol looked up fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} was called")


@pytest.fixture
def no_calls(monkeypatch):
    monkeypatch.setattr(_openblas, "library", _NoLibrary)


def _f(shape):
    return np.asfortranarray(np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape))


def _read_only(a):
    a.setflags(write=False)
    return a


def _operands():
    """Each binding with a maker of its arguments, one of them wrong: a wrong
    dtype, a wrong shape, a non-contiguous operand, and a read-only one
    where the binding writes it."""
    n, sym = 4, np.eye(4) + 1.0
    d, e = np.arange(1.0, 5.0), np.ones(3)
    cases = {
        "dtrsv": [
            ("dtype", lambda: (np.triu(sym).astype(np.float32), np.ones(n))),
            ("shape", lambda: (np.triu(sym)[:3], np.ones(n))),
            ("strided", lambda: (np.triu(sym), np.ones(2 * n)[::2])),
            ("layout", lambda: (np.asfortranarray(np.triu(sym)), np.ones(n))),
            ("read_only", lambda: (np.triu(sym), _read_only(np.ones(n)))),
        ],
        "dgeqrf": [
            ("dtype", lambda: (_f((6, 3)).astype(np.float32), np.empty(3))),
            ("shape", lambda: (_f((6, 3)), np.empty(2))),
            ("strided", lambda: (_f((12, 3))[::2], np.empty(3))),
            ("layout", lambda: (np.ascontiguousarray(_f((6, 3))), np.empty(3))),
            ("read_only", lambda: (_read_only(_f((6, 3))), np.empty(3))),
        ],
        "dorgqr": [
            ("dtype", lambda: (_f((6, 3)), np.ones(3, dtype=np.float32))),
            ("shape", lambda: (_f((6, 3)), np.ones(4))),
            ("strided", lambda: (_f((6, 6))[:, ::2], np.ones(3))),
            ("read_only", lambda: (_read_only(_f((6, 3))), np.ones(3))),
            ("wide", lambda: (_f((3, 6)), np.ones(6))),
        ],
        "dsytrd": [
            ("dtype", lambda: (sym.astype(np.float32),)),
            ("shape", lambda: (sym[:, :3].copy(),)),
            ("strided", lambda: (np.eye(8)[::2, ::2],)),
            ("read_only", lambda: (_read_only(sym.copy()),)),
        ],
        "dstebz": [
            ("dtype", lambda: (d.astype(np.float32), e, 1)),
            ("shape", lambda: (d, np.ones(4), 1)),
            ("strided", lambda: (np.arange(8.0)[::2], e, 1)),
            ("index", lambda: (d, e, 5)),
        ],
        "dsterf": [
            ("dtype", lambda: (d.copy(), e.astype(np.float32))),
            ("shape", lambda: (d.copy(), np.ones(2))),
            ("strided", lambda: (np.arange(8.0)[::2], e.copy())),
            ("read_only", lambda: (d.copy(), _read_only(e.copy()))),
        ],
    }
    return [pytest.param(name, make, id=f"{name}-{how}")
            for name, made in cases.items() for how, make in made]


@pytest.mark.parametrize("name, make", _operands())
def test_binding_refuses_a_wrong_operand_before_any_pointer_passes(name, make, no_calls):
    args = make()
    before = [a.tobytes() if isinstance(a, np.ndarray) else a for a in args]
    with pytest.raises(ValueError):
        getattr(_openblas, name)(*args)
    assert [a.tobytes() if isinstance(a, np.ndarray) else a for a in args] == before


needs_openblas = pytest.mark.skipif(_openblas.library() is None,
                                    reason="needs numpy's bundled OpenBLAS")


@needs_openblas
@pytest.mark.parametrize("info, error", [(2, NonConvergedError), (-3, LinAlgError),
                                         (-1011, MemoryError)])
def test_info_becomes_a_typed_error(monkeypatch, info, error):
    monkeypatch.setattr(_openblas.library(), "scipy_LAPACKE_dsterf64_", lambda *args: info)
    with pytest.raises(error):
        _openblas.dsterf(np.arange(1.0, 5.0), np.ones(3))


@needs_openblas
def test_one_thread_restores_the_count_after_a_raise():
    lib = _openblas.library()
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        with pytest.raises(RuntimeError), _openblas.one_thread():
            assert lib.scipy_openblas_get_num_threads64_() == 1
            raise RuntimeError
        assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
