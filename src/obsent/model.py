"""Aubry-Andre single-particle model: Hamiltonian, spectra, and basis changes.

The lattice Hamiltonian is a nearest-neighbour hopping chain (hopping
amplitude -1) with the incommensurate on-site potential
``delta * cos(2*pi*alpha*j + phi)`` on sites j = 1..L, each phase phi one
realization of the chain.  All operations here are pure functions of their
arguments and safe to call concurrently.
"""

from __future__ import annotations

import ctypes
import math
import numbers
from dataclasses import dataclass

import numpy as np

#: Inverse golden ratio, the default incommensurate frequency.
GOLDEN_RATIO_INVERSE = (math.sqrt(5.0) - 1.0) / 2.0

_TWO_PI = 2.0 * math.pi
#: The boundary conditions of a chain.
BOUNDARY_CONDITIONS = ("open", "periodic")


def integer(value, name: str, low, high=None) -> int:
    """The package's one integer rule: ``value`` as its exact int if it is a finite integral real,
    not a bool, in ``low..high`` (unbounded above if ``high`` is None); else ``ValueError`` naming ``name``."""
    finite = isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and math.isfinite(value)
    exact = int(value) if finite and not isinstance(value, bool) else None  # != below catches a truncation
    if exact is None or exact != value or exact < low or (high is not None and exact > high):
        bound = f"be an integer >= {low}" if high is None else f"lie in {low}..{high}"
        raise ValueError(f"{name} must {bound}, got {value!r}")
    return exact


def real(value, name: str) -> float:
    """The package's one real rule: ``value`` as a float if it is a real number, not a bool (numpy's bools
    are not ``numbers.Real``); else ``ValueError`` naming ``name`` (``float`` overflows beyond its range)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ModelParams:
    """One quasiperiodic chain (L by :func:`integer`, delta and alpha by :func:`real`); a potential
    phase is one realization of it, an argument of :func:`build_hamiltonian` and :func:`chain_diagonals`.

    Parameters
    ----------
    L : int
        Number of lattice sites (at least 2).  A block coarse-graining of
        size m needs m to divide L.
    delta : float
        Amplitude of the cosine potential, finite and >= 0.  The localization
        transition of the infinite chain sits at delta = 2.
    alpha : float
        Incommensurate frequency in (0, 1); defaults to the inverse golden
        ratio.
    bc : str
        Boundary condition, "open" or "periodic".
    """

    L: int
    delta: float = 0.0
    alpha: float = GOLDEN_RATIO_INVERSE
    bc: str = "open"

    def __post_init__(self):
        object.__setattr__(self, "L", integer(self.L, "L", 2))
        for name in ("delta", "alpha"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"bc must be {' or '.join(map(repr, BOUNDARY_CONDITIONS))}, got {self.bc!r}")


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and orthonormal eigenvectors (columns).

    A stack of systems carries leading batch axes: energies (..., L) and
    vectors (..., L, L).
    """

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def L(self) -> int:
        return self.energies.shape[-1]


def chain_diagonals(params: ModelParams, phis) -> np.ndarray:
    """On-site energies (n, L) of ``params`` at each phase in ``phis``: the
    quasiperiodic potential at sites j = 1..L.  Phases must be finite and
    are reduced into [0, 2*pi)."""
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1 or not np.all(np.isfinite(phis)):
        raise ValueError("phis must be a 1-D array of finite phases")
    sites = np.arange(1, params.L + 1, dtype=float)
    return params.delta * np.cos(_TWO_PI * params.alpha * sites + (phis % _TWO_PI)[:, None])


def chain_matrices(diag: np.ndarray, periodic: bool = False) -> np.ndarray:
    """Dense (n, L, L) chains with diagonals ``diag`` (n, L) and hopping -1,
    closed into rings when ``periodic`` by adding the wrap bond -1 between
    sites L and 1 (an L = 2 ring's two bonds add up to -2); every dense
    chain matrix is made here."""
    B, L = diag.shape
    h = np.zeros((B, L, L))
    idx = np.arange(L)
    h[:, idx, idx] = diag
    h[:, idx[:-1], idx[1:]] = h[:, idx[1:], idx[:-1]] = -1.0
    if periodic:
        h[:, 0, L - 1] -= 1.0
        h[:, L - 1, 0] -= 1.0
    return h


def build_hamiltonian(params: ModelParams, phase=0.0) -> np.ndarray:
    """The dense L x L chain Hamiltonian at a scalar ``phase``, or the (n, L, L)
    stack at each phase of a 1-D sequence: the potential of :func:`chain_diagonals`
    on the diagonal, -1 on the first off-diagonals and, on rings, the wrap bond
    -1 added in the corners (see :func:`chain_matrices`)."""
    single = np.ndim(phase) == 0
    stack = chain_matrices(chain_diagonals(params, [phase] if single else phase), params.bc == "periodic")
    return stack[0] if single else stack


def _checked_entries(h: np.ndarray) -> np.ndarray:
    """One matrix or a (..., L, L) stack as floats, checked to be finite
    and symmetric within 1e-12 (``ValueError`` otherwise)."""
    entries = np.asarray(h, dtype=float)
    if entries.ndim < 2 or entries.shape[-1] != entries.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {entries.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the test
        diff = entries - entries.swapaxes(-1, -2)
        asymmetry = np.abs(diff, out=diff).max()
    if not asymmetry <= 1e-12:
        raise ValueError(f"matrix is not symmetric and finite (asymmetry {asymmetry:.3g})")
    return entries


def eigendecompose(h: np.ndarray) -> EigenSystem:
    """Dense diagonalization of a matrix that a caller passes in, or of a
    (..., L, L) stack, each matrix exactly as on its own; energies ascending.
    Raises ``ValueError`` unless every entry is finite and symmetric within
    1e-12, and ``numpy.linalg.LinAlgError`` if the eigensolver fails to converge."""
    return EigenSystem(*np.linalg.eigh(_checked_entries(h)))


try:  # numpy's linalg extension, opened once; dlsym on its handle also searches
    # the libraries it depends on, such as the OpenBLAS of numpy wheels
    _LINALG = ctypes.CDLL(np.linalg._umath_linalg.__file__)
except (AttributeError, OSError):
    _LINALG = None


def _exported(names):
    """The first of ``names`` that numpy's linalg extension reaches, or None."""
    return next((getattr(_LINALG, name) for name in names if hasattr(_LINALG, name)), None)


#: ``dstevd`` (ILP64 spellings only, 64-bit integers), or None
_DSTEVD = _exported(("scipy_dstevd_64_", "dstevd_64_"))
if _DSTEVD is not None:  # the last argument is the hidden length of JOBZ
    _i64, _ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    _DSTEVD.argtypes = [ctypes.c_char_p, _i64, _ptr, _ptr, _ptr, _i64, _ptr, _i64, _ptr, _i64, _i64, ctypes.c_size_t]
    _DSTEVD.restype = None
#: OpenBLAS's thread setter as numpy 2 wheels and numpy 1.x wheels export it, or None
BLAS_THREAD_SETTER = _exported(("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_"))


def chain_solver() -> str:
    """The routine behind :func:`chain_eigenvalues` and :func:`chain_eigensystem`:
    the bound LAPACK symbol, or "numpy-dense" where it is missing."""
    return getattr(_DSTEVD, "__name__", "numpy-dense")


def _chain_problem(diag):
    """``diag`` as a fresh C-ordered (B, L) float array, checked to be finite,
    and the (B, L - 1) hopping -1 that LAPACK overwrites."""
    d = np.array(diag, dtype=float, order="C")
    if d.ndim != 2 or not np.all(np.isfinite(d)):
        raise ValueError(f"expected a finite (B, L) stack of diagonals, got shape {d.shape}")
    return d, np.full((d.shape[0], max(d.shape[1] - 1, 1)), -1.0)


def _solve_chains(d, e, vectors: bool = False) -> tuple:
    """LAPACK ``dstevd`` on each chain of ``d`` (B, L) and ``e`` in place: the
    eigenvalues ``d`` and, given ``vectors`` (JOBZ='V'), the (B, L, L)
    eigenvectors in columns, else None (JOBZ='N', with one-element Z, WORK
    and IWORK).  Each chain's column-major Z is written into a C-ordered
    array, so the vectors are its transposed view."""
    B, L = d.shape
    jobz, ldz, lwork, liwork = (b"V", L, 1 + 4 * L + L * L, 3 + 5 * L) if vectors else (b"N", 1, 1, 1)
    z, work, iwork = np.empty((B, L, L) if vectors else 1), np.empty(lwork), np.empty(liwork, dtype=np.int64)
    n, ldz, lwork, liwork, info = (ctypes.c_int64(v) for v in (L, ldz, lwork, liwork, 0))
    # every ``.ctypes`` access builds a new object, so addresses are read once
    (d_ptr, d_step), (e_ptr, e_step) = ((a.ctypes.data, a.strides[0]) for a in (d, e))
    z_ptr, z_step = z.ctypes.data, z.strides[0] if vectors else 0
    work_ptr, iwork_ptr = work.ctypes.data, iwork.ctypes.data
    for b in range(B):
        _DSTEVD(jobz, n, d_ptr + b * d_step, e_ptr + b * e_step, z_ptr + b * z_step, ldz,
                work_ptr, lwork, iwork_ptr, liwork, info, 1)
        if info.value:
            raise np.linalg.LinAlgError(f"dstevd failed on chain {b} of the stack (info={info.value})")
    return d, z.swapaxes(-1, -2) if vectors else None


def chain_eigenvalues(diag) -> np.ndarray:
    """Ascending eigenvalues (B, L) of open chains (hopping -1) with on-site
    energies ``diag`` (B, L), by LAPACK ``dstevd`` (JOBZ='N') chain by chain,
    or by ``numpy.linalg.eigvalsh`` of the dense matrices, one at a time,
    where ``dstevd`` is not bound; both give the same bits.  Raises
    ``ValueError`` for non-finite input and ``numpy.linalg.LinAlgError`` if
    the solver fails."""
    d, e = _chain_problem(diag)
    if _DSTEVD is None:  # a block of window lanes may hold many chains
        return np.concatenate([np.linalg.eigvalsh(chain_matrices(d[b:b + 1])) for b in range(len(d))])
    return _solve_chains(d, e)[0]


def chain_eigensystem(diag, periodic: bool = False) -> EigenSystem:
    """Full eigensystems of open chains as in :func:`chain_eigenvalues`, by
    LAPACK ``dstevd`` (JOBZ='V'), or by ``numpy.linalg.eigh`` of the dense
    matrices where ``dstevd`` is not bound; both agree up to eigenvector
    signs.  Rings (``periodic``) are not tridiagonal and always take the
    dense route, which checks no matrix: they are built from checked diagonals."""
    d, e = _chain_problem(diag)
    if periodic or _DSTEVD is None:
        return EigenSystem(*np.linalg.eigh(chain_matrices(d, periodic)))
    return EigenSystem(*_solve_chains(d, e, vectors=True))


def chain_eigenvectors(diag, energies) -> np.ndarray:
    """Eigenvectors of open chains (hopping -1) by inverse iteration.

    ``diag`` (B, L) holds the on-site energies of B chains and ``energies``
    (B, n) eigenvalues of each chain, as :func:`chain_eigenvalues` returns them;
    the result is the C-ordered (B, n, L) stack of unit eigenvectors, one
    row each, with arbitrary signs.  Every (chain, eigenvalue) pair is one
    lane of an (L, lanes) layout, so the sequential sweeps over the sites
    run once for all lanes: ``T - E = LU`` without pivoting, each pivot
    pushed away from zero by ``eps * (2 + max|diag|)`` of its own chain,
    then ``U x = 1`` (Wilkinson's start) and one more full solve.  A lane's
    bits do not depend on which chains share the call.  The pivots and the
    vectors take two (L, lanes) arrays; the rows are written into the
    pivots' buffer, so no third one is made.  Accuracy is not checked here;
    see :func:`eigenpair_errors`.  Failures show up as NaN rows.
    """
    diag = np.asarray(diag, dtype=float)
    energies = np.asarray(energies, dtype=float)
    (B, L), n = diag.shape, energies.shape[-1]
    tiny = np.repeat(np.finfo(float).eps * (2.0 + np.abs(diag).max(axis=1, initial=0.0)), n)
    # inv[i] holds d_i - E and becomes 1/u_i, the reciprocal LU pivot
    inv = np.empty((L, B * n))
    x = np.ones_like(inv)
    R, X, tmp = list(inv), list(x), np.empty(B * n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.subtract(diag.T[:, :, None], energies, out=inv.reshape(L, B, n))
        for i in range(L):
            if i:
                np.subtract(R[i], R[i - 1], out=R[i])  # u_i = d_i - E - 1/u_{i-1}
            np.add(R[i], np.copysign(tiny, R[i], out=tmp), out=R[i])
            np.reciprocal(R[i], out=R[i])
        for sweep in range(2):
            if sweep:
                for i in range(1, L):  # L y = x
                    np.multiply(R[i - 1], X[i - 1], out=tmp)
                    np.add(X[i], tmp, out=X[i])
            np.multiply(X[-1], R[-1], out=X[-1])
            for i in range(L - 2, -1, -1):  # U x = y
                np.add(X[i], X[i + 1], out=X[i])
                np.multiply(X[i], R[i], out=X[i])
            x /= np.maximum(x.max(axis=0), -x.min(axis=0))  # max |x| without an |x| array
        # einsum sums several lanes site by site but a single lane pairwise; cumsum goes site by site
        x /= np.sqrt(np.einsum("ij,ij->j", x, x) if B * n > 1 else np.cumsum(x * x, axis=0)[-1])
    del R, X
    rows = inv.reshape(B * n, L)  # the pivots are spent; their buffer takes the rows
    rows[...] = x.T
    return rows.reshape(B, n, L)


def eigenpair_errors(diag, energies, rows):
    """Per chain: the largest ``|(T - E) x|`` entry over its rows, and the
    largest entry of ``X X^T - I``; arguments as in :func:`chain_eigenvectors`."""
    diag, energies, rows = (np.asarray(a, dtype=float) for a in (diag, energies, rows))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a NaN or inf error, not a warning
        residual = diag[:, None, :] - energies[..., None]
        residual *= rows
        residual[..., 1:] -= rows[..., :-1]
        residual[..., :-1] -= rows[..., 1:]
    overlap = rows @ rows.swapaxes(-1, -2)
    overlap -= np.eye(rows.shape[-2])
    return np.abs(residual, out=residual).max(axis=(-2, -1)), np.abs(overlap).max(axis=(-2, -1))


def to_momentum(state: np.ndarray, axis: int = 0) -> np.ndarray:
    """Momentum amplitudes <k_n|psi> = sum_j exp(-i k_n j) psi_j / sqrt(L),
    k_n = 2*pi*n/L, of real-space states along ``axis``.

    The default axis 0 takes a state or a column stack.  This is the
    unitary FFT (``norm="ortho"``), the one change of basis the momentum
    entropies use.
    """
    return np.fft.fft(np.asarray(state, dtype=complex), axis=axis, norm="ortho")  # not cast per buffer


def kinetic_index_order(L: int) -> np.ndarray:
    """Permutation of momentum indices by ascending kinetic energy
    -2 cos(2*pi*n/L), which rises with the exact integer key min(n, L - n);
    one stable sort of that key puts the lower index of each (n, L - n) pair first."""
    n = np.arange(L)
    return np.argsort(np.minimum(n, L - n), kind="stable")


def site_state(L: int, site: int) -> np.ndarray:
    """Unit-norm state fully localized on 1-based lattice site ``site`` of
    ``L`` sites, both taken by :func:`integer`."""
    L = integer(L, "L", 1)
    psi = np.zeros(L)
    psi[integer(site, "site", 1, L) - 1] = 1.0
    return psi
