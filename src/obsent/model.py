"""Aubry-Andre single-particle model: Hamiltonian, spectra, and basis changes.

The lattice Hamiltonian is a nearest-neighbour hopping chain (hopping
amplitude -1) with the incommensurate on-site potential
``delta * cos(2*pi*alpha*j + phi)`` on sites j = 1..L.  All operations here
are pure functions of their arguments and safe to call concurrently.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

#: Inverse golden ratio, the default incommensurate frequency.
GOLDEN_RATIO_INVERSE = (math.sqrt(5.0) - 1.0) / 2.0

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the quasiperiodic chain.

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
    phi : float
        Finite phase offset of the potential; stored reduced into [0, 2*pi).
    bc : str
        Boundary condition, "open" or "periodic".
    """

    L: int
    delta: float = 0.0
    alpha: float = GOLDEN_RATIO_INVERSE
    phi: float = 0.0
    bc: str = "open"

    def __post_init__(self):
        if int(self.L) != self.L or self.L < 2:
            raise ValueError(f"L must be an integer >= 2, got {self.L!r}")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi!r}")
        if self.bc not in ("open", "periodic"):
            raise ValueError(f"bc must be 'open' or 'periodic', got {self.bc!r}")
        object.__setattr__(self, "phi", float(self.phi) % _TWO_PI)


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
    quasiperiodic potential at sites j = 1..L.  Phases are reduced into
    [0, 2*pi) as in :class:`ModelParams`; ``params.phi`` is ignored."""
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1 or not np.all(np.isfinite(phis)):
        raise ValueError("phis must be a 1-D array of finite phases")
    sites = np.arange(1, params.L + 1, dtype=float)
    return params.delta * np.cos(_TWO_PI * params.alpha * sites + (phis % _TWO_PI)[:, None])


def chain_matrices(diag: np.ndarray, periodic: bool = False) -> np.ndarray:
    """Dense (n, L, L) chains with diagonals ``diag`` (n, L) and hopping -1,
    closed into rings when ``periodic``; every dense chain matrix is made here."""
    B, L = diag.shape
    h = np.zeros((B, L, L))
    idx = np.arange(L)
    h[:, idx, idx] = diag
    h[:, idx[:-1], idx[1:]] = h[:, idx[1:], idx[:-1]] = -1.0
    if periodic:
        h[:, 0, L - 1] = h[:, L - 1, 0] = -1.0
    return h


def build_hamiltonian(params: ModelParams, phis=None) -> np.ndarray:
    """The dense L x L chain Hamiltonian at ``params.phi``: the potential of
    :func:`chain_diagonals` on the diagonal, -1 on the first off-diagonals,
    and -1 in the corners only for periodic boundaries (see
    :func:`chain_matrices`).  Given ``phis``, the (n, L, L) stack of these
    matrices at each of those phases instead."""
    stack = chain_matrices(chain_diagonals(params, [params.phi] if phis is None else phis),
                           params.bc == "periodic")
    return stack[0] if phis is None else stack


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
    """Dense diagonalization; energies come back ascending.

    Accepts one matrix or a stack of shape (..., L, L); each matrix of a
    stack is diagonalized exactly as it would be on its own.  Raises
    ``ValueError`` unless every entry is finite and symmetric within 1e-12,
    and ``numpy.linalg.LinAlgError`` if the eigensolver fails to converge.
    """
    energies, vectors = np.linalg.eigh(_checked_entries(h))
    return EigenSystem(energies=energies, vectors=vectors)


def _bind_lapack():
    """``dsterf`` and ``dstevd`` from the LAPACK that numpy's linalg extension
    links, each None when it is not exported.  ``dlsym`` on the extension's
    handle also searches the libraries it depends on, such as the OpenBLAS
    of numpy wheels.  Only the ILP64 spellings (64-bit integers) are bound."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None, None
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    signatures = {  # dstevd's last argument is the hidden length of JOBZ
        "dsterf": [i64, ptr, ptr, i64],
        "dstevd": [ctypes.c_char_p, i64, ptr, ptr, ptr, i64, ptr, i64, ptr, i64, i64, ctypes.c_size_t],
    }
    routines = []
    for name, argtypes in signatures.items():
        routine = next((getattr(lib, s) for s in (f"scipy_{name}_64_", f"{name}_64_") if hasattr(lib, s)), None)
        if routine is not None:
            routine.argtypes, routine.restype = argtypes, None
        routines.append(routine)
    return routines


_DSTERF, _DSTEVD = _bind_lapack()


def chain_solvers() -> dict:
    """The routine behind :func:`chain_eigenvalues` and :func:`chain_eigensystem`:
    the bound LAPACK symbol, or "numpy-dense" where it is missing."""
    return {"chain_eigenvalues": getattr(_DSTERF, "__name__", "numpy-dense"),
            "chain_eigensystem": getattr(_DSTEVD, "__name__", "numpy-dense")}


def _chain_problem(diag):
    """``diag`` as a fresh C-ordered (B, L) float array, checked to be finite,
    and the (B, L - 1) hopping -1 that LAPACK overwrites."""
    d = np.array(diag, dtype=float, order="C")
    if d.ndim != 2 or not np.all(np.isfinite(d)):
        raise ValueError(f"expected a finite (B, L) stack of diagonals, got shape {d.shape}")
    return d, np.full((d.shape[0], max(d.shape[1] - 1, 1)), -1.0)


def chain_eigenvalues(diag) -> np.ndarray:
    """Ascending eigenvalues (B, L) of open chains (hopping -1) with on-site
    energies ``diag`` (B, L), by LAPACK ``dsterf`` chain by chain, or by
    ``numpy.linalg.eigvalsh`` of the dense matrices, one at a time, where
    ``dsterf`` is not bound; both give the same bits.  Raises
    ``ValueError`` for non-finite input and ``numpy.linalg.LinAlgError`` if
    the solver fails."""
    d, e = _chain_problem(diag)
    if _DSTERF is None:  # a block of window lanes may hold many chains
        return np.concatenate([np.linalg.eigvalsh(chain_matrices(d[b:b + 1])) for b in range(len(d))])
    B, L = d.shape
    n, info = ctypes.c_int64(L), ctypes.c_int64(0)
    # every ``.ctypes`` access builds a new object, so addresses are read once
    (d_ptr, d_step), (e_ptr, e_step) = ((a.ctypes.data, a.strides[0]) for a in (d, e))
    for b in range(B):
        _DSTERF(n, d_ptr + b * d_step, e_ptr + b * e_step, info)
        if info.value:
            raise np.linalg.LinAlgError(f"dsterf failed on chain {b} of the stack (info={info.value})")
    return d


def chain_eigensystem(diag) -> EigenSystem:
    """Full eigensystems of open chains as in :func:`chain_eigenvalues`, by
    LAPACK ``dstevd``, or by :func:`eigendecompose` of the dense matrices
    where ``dstevd`` is not bound; both agree up to eigenvector signs."""
    d, e = _chain_problem(diag)
    if _DSTEVD is None:
        return eigendecompose(chain_matrices(d))
    B, L = d.shape
    z = np.empty((B, L, L))  # chain b's column-major Z is z[b].T
    work, iwork = np.empty(1 + 4 * L + L * L), np.empty(3 + 5 * L, dtype=np.int64)
    n, lwork, liwork, info = (ctypes.c_int64(v) for v in (L, work.size, iwork.size, 0))
    (d_ptr, d_step), (e_ptr, e_step), (z_ptr, z_step) = ((a.ctypes.data, a.strides[0]) for a in (d, e, z))
    work_ptr, iwork_ptr = work.ctypes.data, iwork.ctypes.data
    for b in range(B):
        _DSTEVD(b"V", n, d_ptr + b * d_step, e_ptr + b * e_step, z_ptr + b * z_step, n,
                work_ptr, lwork, iwork_ptr, liwork, info, 1)
        if info.value:
            raise np.linalg.LinAlgError(f"dstevd failed on chain {b} of the stack (info={info.value})")
    return EigenSystem(energies=d, vectors=z.swapaxes(-1, -2))


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
    return np.fft.fft(state, axis=axis, norm="ortho")


def kinetic_index_order(L: int) -> np.ndarray:
    """Permutation of momentum indices sorted by ascending kinetic energy.

    Ties between the degenerate +k/-k pairs are broken by the original
    index (stable sort), which keeps the permutation deterministic.
    """
    return np.argsort(-2.0 * np.cos(_TWO_PI * np.arange(L) / L), kind="stable")


def site_state(L: int, site: int) -> np.ndarray:
    """Unit-norm state fully localized on 1-based lattice site ``site``."""
    if not 1 <= site <= L:
        raise ValueError(f"site must lie in 1..{L}, got {site}")
    psi = np.zeros(L)
    psi[site - 1] = 1.0
    return psi
