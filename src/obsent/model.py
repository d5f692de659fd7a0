"""Aubry-Andre single-particle model: Hamiltonian, spectra, and basis changes.

The lattice Hamiltonian is a nearest-neighbour hopping chain (hopping
amplitude -1) with the incommensurate on-site potential
``delta * cos(2*pi*alpha*j + phi)`` on sites j = 1..L.  All operations here
are pure functions of their arguments and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        Number of lattice sites (at least 2).  Block coarse-graining
        workflows additionally want L to be a power of two.
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

    def with_phase(self, phi: float) -> "ModelParams":
        return replace(self, phi=phi)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Dense real-symmetric Hamiltonian together with its parameters."""

    entries: np.ndarray
    params: ModelParams


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and orthonormal eigenvectors (columns)."""

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def L(self) -> int:
        return self.energies.shape[0]


@dataclass(frozen=True)
class MomentumBasis:
    """Plane-wave basis of an L-site ring and the kinetic-energy diagonal.

    ``dft[j, n] = exp(i * k_n * j) / sqrt(L)`` with ``k_n = 2*pi*n/L``, so
    the columns are the plane waves and ``dft`` is unitary.  ``o_diagonal``
    holds the kinetic-energy eigenvalues ``-2*cos(k_n)``.
    """

    k_values: np.ndarray
    dft: np.ndarray
    o_diagonal: np.ndarray

    @property
    def L(self) -> int:
        return self.k_values.shape[0]


def build_hamiltonian(params: ModelParams) -> HamiltonianMatrix:
    """Assemble the dense L x L chain Hamiltonian for the given parameters.

    The diagonal carries the quasiperiodic potential evaluated at sites
    j = 1..L; the first off-diagonals are -1, and the corner elements are
    -1 only for periodic boundaries.
    """
    L = params.L
    sites = np.arange(1, L + 1, dtype=float)
    h = np.diag(params.delta * np.cos(_TWO_PI * params.alpha * sites + params.phi))
    idx = np.arange(L - 1)
    h[idx, idx + 1] = -1.0
    h[idx + 1, idx] = -1.0
    if params.bc == "periodic":
        h[0, L - 1] = -1.0
        h[L - 1, 0] = -1.0
    return HamiltonianMatrix(entries=h, params=params)


def eigendecompose(h: HamiltonianMatrix | np.ndarray) -> EigenSystem:
    """Dense diagonalization; energies come back ascending.

    Raises ``numpy.linalg.LinAlgError`` if the eigensolver fails to
    converge.
    """
    entries = h.entries if isinstance(h, HamiltonianMatrix) else np.asarray(h, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    if not np.allclose(entries, entries.T, atol=1e-12, rtol=0.0):
        raise ValueError("matrix is not symmetric")
    energies, vectors = np.linalg.eigh(entries)
    return EigenSystem(energies=energies, vectors=vectors)


def momentum_basis(L: int) -> MomentumBasis:
    """Build the plane-wave basis with k_n = 2*pi*n/L for n = 0..L-1."""
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    n = np.arange(L)
    k = _TWO_PI * n / L
    j = np.arange(L)[:, None]
    dft = np.exp(1j * k[None, :] * j) / math.sqrt(L)
    return MomentumBasis(k_values=k, dft=dft, o_diagonal=-2.0 * np.cos(k))


def to_momentum(state: np.ndarray, basis: MomentumBasis) -> np.ndarray:
    """Momentum amplitudes <k_n|psi> of a real-space state (or column stack)."""
    state = np.asarray(state)
    if state.shape[0] != basis.L:
        raise ValueError(f"state has {state.shape[0]} amplitudes, basis expects {basis.L}")
    return basis.dft.conj().T @ state


def to_real(state: np.ndarray, basis: MomentumBasis) -> np.ndarray:
    """Inverse of :func:`to_momentum`."""
    state = np.asarray(state)
    if state.shape[0] != basis.L:
        raise ValueError(f"state has {state.shape[0]} amplitudes, basis expects {basis.L}")
    return basis.dft @ state


def kinetic_index_order(L: int) -> np.ndarray:
    """Permutation of momentum indices sorted by ascending kinetic energy.

    Ties between the degenerate +k/-k pairs are broken by the original
    index (stable sort), which keeps the permutation deterministic.
    """
    return np.argsort(momentum_basis(L).o_diagonal, kind="stable")


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
