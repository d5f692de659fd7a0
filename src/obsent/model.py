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

#: Sentinel returned by :func:`estimate_localization_length` when no
#: exponential decay is resolvable (state is delocalized).
DELOCALIZED = math.inf

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


@dataclass(frozen=True)
class MomentumBasis:
    """Plane-wave basis of an L-site ring and the kinetic-energy diagonal.

    ``dft[j, n] = exp(i * k_n * j) / sqrt(L)`` with ``k_n = 2*pi*n/L``, so
    the columns are the plane waves and ``dft`` is unitary.  ``o_diagonal``
    holds the kinetic-energy eigenvalues ``-2*cos(k_n)``.  The dense
    ``dft`` matrix is built only on request; :func:`to_momentum` and
    :func:`to_real` use the FFT.
    """

    k_values: np.ndarray
    o_diagonal: np.ndarray

    @property
    def L(self) -> int:
        return self.k_values.shape[0]

    @property
    def dft(self) -> np.ndarray:
        j = np.arange(self.L)[:, None]
        return np.exp(1j * self.k_values[None, :] * j) / math.sqrt(self.L)


def chain_diagonals(params: ModelParams, phis) -> np.ndarray:
    """On-site energies (n, L) of ``params`` at each phase in ``phis``: the
    quasiperiodic potential at sites j = 1..L.  Phases are reduced into
    [0, 2*pi) as in :class:`ModelParams`; ``params.phi`` is ignored."""
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1 or not np.all(np.isfinite(phis)):
        raise ValueError("phis must be a 1-D array of finite phases")
    sites = np.arange(1, params.L + 1, dtype=float)
    return params.delta * np.cos(_TWO_PI * params.alpha * sites + (phis % _TWO_PI)[:, None])


def _tridiagonal(diag: np.ndarray, periodic: bool = False) -> np.ndarray:
    """Dense (n, L, L) chains with diagonals ``diag`` (n, L) and hopping -1,
    closed into rings when ``periodic``."""
    B, L = diag.shape
    h = np.zeros((B, L, L))
    idx = np.arange(L)
    h[:, idx, idx] = diag
    h[:, idx[:-1], idx[1:]] = h[:, idx[1:], idx[:-1]] = -1.0
    if periodic:
        h[:, 0, L - 1] = h[:, L - 1, 0] = -1.0
    return h


def hamiltonian_stack(params: ModelParams, phis) -> np.ndarray:
    """Dense (n, L, L) chain Hamiltonians of ``params`` at each phase in ``phis``:
    :func:`chain_diagonals` on the diagonal, -1 on the first off-diagonals,
    and -1 in the corners only for periodic boundaries."""
    return _tridiagonal(chain_diagonals(params, phis), params.bc == "periodic")


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """The dense L x L chain Hamiltonian at ``params.phi`` (see :func:`hamiltonian_stack`)."""
    return hamiltonian_stack(params, [params.phi])[0]


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


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues only (``np.linalg.eigvalsh``), shape (..., L),
    with the same input checks and errors as :func:`eigendecompose`."""
    return np.linalg.eigvalsh(_checked_entries(h))


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
    :func:`eigenvalues` of the dense matrices, one at a time, where
    ``dsterf`` is not bound; both give the same bits.  Raises
    ``ValueError`` for non-finite input and ``numpy.linalg.LinAlgError`` if
    the solver fails."""
    d, e = _chain_problem(diag)
    if _DSTERF is None:  # a block of window lanes may hold many chains
        return np.concatenate([eigenvalues(_tridiagonal(d[b:b + 1])) for b in range(len(d))])
    B, L = d.shape
    n, info = ctypes.c_int64(L), ctypes.c_int64(0)
    for b in range(B):
        _DSTERF(n, d.ctypes.data + b * d.strides[0], e.ctypes.data + b * e.strides[0], info)
        if info.value:
            raise np.linalg.LinAlgError(f"dsterf failed on chain {b} of the stack (info={info.value})")
    return d


def chain_eigensystem(diag) -> EigenSystem:
    """Full eigensystems of open chains as in :func:`chain_eigenvalues`, by
    LAPACK ``dstevd``, or by :func:`eigendecompose` of the dense matrices
    where ``dstevd`` is not bound; both agree up to eigenvector signs."""
    d, e = _chain_problem(diag)
    if _DSTEVD is None:
        return eigendecompose(_tridiagonal(d))
    B, L = d.shape
    z = np.empty((B, L, L))  # chain b's column-major Z is z[b].T
    work, iwork = np.empty(1 + 4 * L + L * L), np.empty(3 + 5 * L, dtype=np.int64)
    n, lwork, liwork, info = (ctypes.c_int64(v) for v in (L, work.size, iwork.size, 0))
    for b in range(B):
        _DSTEVD(b"V", n, d.ctypes.data + b * d.strides[0], e.ctypes.data + b * e.strides[0],
                z.ctypes.data + b * z.strides[0], n, work.ctypes.data, lwork,
                iwork.ctypes.data, liwork, info, 1)
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
    np.subtract(diag.T[:, :, None], energies, out=inv.reshape(L, B, n))
    x = np.ones_like(inv)
    R, X, tmp = list(inv), list(x), np.empty(B * n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    residual = diag[:, None, :] - energies[..., None]
    residual *= rows
    residual[..., 1:] -= rows[..., :-1]
    residual[..., :-1] -= rows[..., 1:]
    overlap = rows @ rows.swapaxes(-1, -2)
    overlap -= np.eye(rows.shape[-2])
    return np.abs(residual, out=residual).max(axis=(-2, -1)), np.abs(overlap).max(axis=(-2, -1))


def momentum_basis(L: int) -> MomentumBasis:
    """The plane-wave basis with k_n = 2*pi*n/L for n = 0..L-1."""
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    k = _momenta(L)
    return MomentumBasis(k_values=k, o_diagonal=-2.0 * np.cos(k))


def _momenta(L: int) -> np.ndarray:
    return _TWO_PI * np.arange(L) / L


def to_momentum(state: np.ndarray, basis: MomentumBasis, axis: int = 0) -> np.ndarray:
    """Momentum amplitudes <k_n|psi> of real-space states along ``axis``.

    The default axis 0 takes a state or a column stack.  This is the
    unitary FFT (``norm="ortho"``), equal to ``basis.dft.conj().T @ state``.
    """
    state = np.asarray(state)
    if state.shape[axis] != basis.L:
        raise ValueError(f"state has {state.shape[axis]} amplitudes, basis expects {basis.L}")
    return np.fft.fft(state, axis=axis, norm="ortho")


def to_real(state: np.ndarray, basis: MomentumBasis, axis: int = 0) -> np.ndarray:
    """Inverse of :func:`to_momentum` along ``axis`` (default 0)."""
    state = np.asarray(state)
    if state.shape[axis] != basis.L:
        raise ValueError(f"state has {state.shape[axis]} amplitudes, basis expects {basis.L}")
    return np.fft.ifft(state, axis=axis, norm="ortho")


def kinetic_index_order(L: int) -> np.ndarray:
    """Permutation of momentum indices sorted by ascending kinetic energy.

    Ties between the degenerate +k/-k pairs are broken by the original
    index (stable sort), which keeps the permutation deterministic.
    """
    return np.argsort(-2.0 * np.cos(_momenta(L)), kind="stable")


def site_state(L: int, site: int) -> np.ndarray:
    """Unit-norm state fully localized on 1-based lattice site ``site``."""
    if not 1 <= site <= L:
        raise ValueError(f"site must lie in 1..{L}, got {site}")
    psi = np.zeros(L)
    psi[site - 1] = 1.0
    return psi


def plane_wave_state(L: int, n: int) -> np.ndarray:
    """Unit-norm plane wave with momentum index n (k = 2*pi*n/L)."""
    j = np.arange(L)
    return np.exp(1j * _TWO_PI * n * j / L) / math.sqrt(L)


def estimate_localization_length(
    state: np.ndarray,
    *,
    amplitude_floor: float = 1e-12,
    min_points: int = 8,
) -> float:
    """Least-squares estimate of the exponential decay length of a state.

    Fits ``ln|psi(j)|`` against ``|j - j_peak|`` over sites whose
    probability exceeds ``amplitude_floor`` (avoiding log underflow); the
    decay length is -1/slope.  Returns :data:`DELOCALIZED` (inf) when the
    fitted slope is >= -1/L, i.e. no decay is resolvable on this lattice.
    States supported on a single site give 0.0.  When fewer than
    ``min_points`` sites survive the floor and the state is not strongly
    peaked, the envelope is unresolvable and a ``ValueError`` is raised.
    """
    state = np.asarray(state)
    L = state.shape[0]
    amp2 = np.abs(state) ** 2
    mask = amp2 > amplitude_floor
    n_pts = int(mask.sum())
    if n_pts < 2:
        return 0.0
    if n_pts < min_points and amp2.max() <= 0.5:
        raise ValueError(
            f"only {n_pts} sites above the amplitude floor; cannot resolve a decay envelope"
        )
    peak = int(np.argmax(amp2))
    r = np.abs(np.arange(L) - peak)[mask].astype(float)
    y = 0.5 * np.log(amp2[mask])
    slope = np.polyfit(r, y, 1)[0]
    if slope >= -1.0 / L:
        return DELOCALIZED
    return -1.0 / slope
