"""Exact states for the oracle tests, in mpmath.

A chain is given by its double on-site energies, which are exact binary
numbers, and hopping -1.  Quench states come from the dense matrix (for a
ring with the wrap bond -1 added between sites L and 1), diagonalized by
``mpmath.eigsy`` at 30 digits.  Single levels of an open chain and their
vectors come at 40 digits from the tridiagonal recurrence alone:
Rayleigh-quotient iteration for the level, started from its double value
and certified by Sturm counts (Wilkinson 1965), inverse iteration for the
vector, and a radix-2 FFT for its momentum weights.  The double start is the
only input from ``obsent``, and the certificate makes the level independent
of it, so the package's LAPACK and dense routes are compared with states
whose error is far below double rounding.  The slower Sturm bisection and
direct DFT stay here to check the faster routes.
"""

import mpmath as mp

DIGITS = 30
#: Working digits of the open-chain level and vector routines.
LEVEL_DIGITS = 40
#: Width at which the level bisection stops; the level's error is half of it.
LEVEL_WIDTH = mp.mpf(10) ** -32


def chain_matrix(diag, periodic):
    """The dense chain with on-site energies ``diag`` as an mpmath matrix."""
    L = len(diag)
    h = mp.zeros(L, L)
    for j, energy in enumerate(diag):
        h[j, j] = mp.mpf(float(energy))
    for j in range(L - 1):
        h[j, j + 1] = h[j + 1, j] = -1
    if periodic:
        h[0, L - 1] -= 1
        h[L - 1, 0] -= 1
    return h


def quench_weights(diag, periodic, site, times):
    """Site weights |<j|psi(t)>|^2 of the particle started on the 1-based
    ``site``, one list of L mpf values per time: psi(t) = V exp(-iEt) V^T psi0."""
    with mp.workdps(DIGITS):
        energies, vectors = mp.eigsy(chain_matrix(diag, periodic))
        L = len(diag)
        coeff = [vectors[site - 1, k] for k in range(L)]  # V^T psi0 is row `site` of V
        weights = []
        for t in times:
            phased = [mp.expj(-energies[k] * mp.mpf(float(t))) * coeff[k] for k in range(L)]
            amplitudes = [mp.fsum(vectors[j, k] * phased[k] for k in range(L)) for j in range(L)]
            weights.append([abs(a) ** 2 for a in amplitudes])
    return weights


def block_entropy(weights, m):
    """Observational entropy sum_i p_i (ln m - ln p_i) of the consecutive
    blocks of m sites, with p_i a block's summed weight and 0 ln 0 = 0."""
    with mp.workdps(DIGITS):
        total = mp.mpf(0)
        for start in range(0, len(weights), m):
            p = mp.fsum(weights[start:start + m])
            if p > 0:
                total += p * (mp.log(m) - mp.log(p))
    return total


def _pivots(diag, energy):
    """Pivots u_i of T - energy = LU without row exchanges, for the open chain
    T with on-site energies ``diag`` (mpf) and hopping -1: u_1 = d_1 - E and
    u_i = d_i - E - 1/u_{i-1}.  A zero pivot is replaced by eps."""
    pivots = []
    for d in diag:
        pivots.append((d - energy - (1 / pivots[-1] if pivots else 0)) or mp.eps)
    return pivots


def _count(diag, x):
    """Sturm count: by Sylvester's law of inertia the number of negative
    pivots of T - x is the number of levels below x."""
    return sum(u < 0 for u in _pivots(diag, x))


def _solve(pivots, x):
    """The solution y of (T - E) y = x, given the pivots of T - E = LU."""
    y = list(x)
    for i in range(1, len(y)):  # L z = x
        y[i] += y[i - 1] / pivots[i - 1]
    y[-1] /= pivots[-1]
    for i in range(len(y) - 2, -1, -1):  # U y = z
        y[i] = (y[i] + y[i + 1]) / pivots[i]
    return y


def bisect_level(diag, k):
    """Level k (0-based, ascending) of the open chain with on-site energies
    ``diag`` (doubles) and hopping -1, by bisection on the Sturm count from
    the Gershgorin interval down to :data:`LEVEL_WIDTH`.  Slow (about 110
    counts); it checks :func:`chain_level`."""
    with mp.workdps(LEVEL_DIGITS):
        d = [mp.mpf(float(v)) for v in diag]
        lo = min(d) - 2
        hi = max(d) + 2
        while hi - lo > LEVEL_WIDTH:
            mid = (lo + hi) / 2
            if _count(d, mid) > k:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


def chain_level(diag, k, start):
    """Level k (0-based, ascending) of the open chain with on-site energies
    ``diag`` (doubles) and hopping -1, by Rayleigh-quotient iteration
    (Parlett 1998) from a double approximation ``start`` of it: two inverse
    iterations at ``start`` from x = 1, then Rayleigh-quotient steps until
    the shift moves by less than a thousandth of :data:`LEVEL_WIDTH`.  Two
    Sturm counts certify the result: k levels lie below it minus
    LEVEL_WIDTH and k + 1 below it plus LEVEL_WIDTH, so it lies within
    LEVEL_WIDTH of level k whatever ``start`` was; else ``ValueError``."""
    with mp.workdps(LEVEL_DIGITS):
        d = [mp.mpf(float(v)) for v in diag]
        shift, x = mp.mpf(float(start)), [mp.mpf(1)] * len(d)
        for step in range(20):
            y = _solve(_pivots(d, shift), x)
            norm2 = mp.fdot(y, y)
            if step >= 2:  # x is a unit vector, so the quotient of y is shift + x.y / y.y
                move = mp.fdot(x, y) / norm2
                shift += move
                if abs(move) < LEVEL_WIDTH / 1000:
                    break
            x = [v / mp.sqrt(norm2) for v in y]
        counts = [_count(d, shift + side * LEVEL_WIDTH) for side in (-1, 1)]
        if counts != [k, k + 1]:
            raise ValueError(f"Rayleigh-quotient iteration from {start} did not certify level {k}: {counts}")
        return shift


def chain_vector(diag, energy):
    """Unit eigenvector (a list of L mpf, sign arbitrary) of the open chain at
    the level ``energy`` that :func:`chain_level` returns, by three solves of
    (T - energy) y = x from x = 1, and its largest residual entry
    |(T - energy) x|_i.  A residual r and a distance g to the other levels
    bound the vector's error by r / g."""
    with mp.workdps(LEVEL_DIGITS):
        d = [mp.mpf(float(v)) for v in diag]
        L, u = len(d), _pivots(d, energy)
        x = [mp.mpf(1)] * L
        for _ in range(3):
            x = _solve(u, x)
            norm = mp.sqrt(mp.fsum(v * v for v in x))
            x = [v / norm for v in x]
        residual = max(abs((d[i] - energy) * x[i] - (x[i - 1] if i else 0) - (x[i + 1] if i < L - 1 else 0))
                       for i in range(L))
    return x, residual


def direct_momentum_weights(vector):
    """|<k_n|x>|^2 = |sum_j exp(-2 pi i n j / L) x_j|^2 / L of a real vector,
    n = 0..L-1, at :data:`LEVEL_DIGITS`, by the O(L^2) sum for each n.  It
    checks the FFT of :func:`momentum_weights`."""
    L = len(vector)
    with mp.workdps(LEVEL_DIGITS):
        cos = [mp.cospi(mp.mpf(2 * t) / L) for t in range(L)]
        sin = [mp.sinpi(mp.mpf(2 * t) / L) for t in range(L)]
        weights = []
        for n in range(L):
            turns = [n * j % L for j in range(L)]
            re, im = (mp.fdot(vector, [table[t] for t in turns]) for table in (cos, sin))
            weights.append((re * re + im * im) / L)
    return weights


def _fft(x, twiddles):
    """sum_j exp(-2 pi i n j / len(x)) x_j for every n, by radix-2 recursion
    (len(x) a power of two); ``twiddles[t]`` is exp(-2 pi i t / N) for an N
    that len(x) divides."""
    n = len(x)
    if n == 1:
        return x
    stride = 2 * len(twiddles) // n
    even, odd = _fft(x[0::2], twiddles), _fft(x[1::2], twiddles)
    odd = [twiddles[t * stride] * v for t, v in enumerate(odd)]
    return [a + b for a, b in zip(even, odd)] + [a - b for a, b in zip(even, odd)]


def momentum_weights(vector):
    """The weights of :func:`direct_momentum_weights`, by a radix-2 FFT in
    O(L log L) where L is a power of two (every L the oracle tests use),
    else by the direct sum."""
    L = len(vector)
    if L & (L - 1):
        return direct_momentum_weights(vector)
    with mp.workdps(LEVEL_DIGITS):
        twiddles = [mp.mpc(mp.cospi(mp.mpf(2 * t) / L), -mp.sinpi(mp.mpf(2 * t) / L)) for t in range(L // 2)]
        return [(v.real ** 2 + v.imag ** 2) / L for v in _fft([mp.mpc(v) for v in vector], twiddles)]
