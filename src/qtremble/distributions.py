"""Von Mises trembles: densities, moments and samples on the strategy torus.

A tremble moves each active angle of its centre by an independent von Mises
offset on the window (-pi, pi] centred there.  The gate is 4*pi-periodic in
alpha and beta, so the window is part of the distribution: the closed-form
moments, the quadrature and the Monte Carlo draws all use this one.

The modified Bessel function backend is implemented here (power series below
x = 15, scaled asymptotic expansion above) so results do not depend on any
platform special-function library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import TWO_PI, StrategyParams

# Switch point between the power series and the asymptotic expansion; both
# reach <= 1e-10 relative error there.
_SERIES_CUTOFF = 15.0
# exp(x) overflows an IEEE double shortly above this.
_OVERFLOW_X = 700.0
# Above this concentration ``vm_moments`` takes its large-kappa series, whose
# dropped terms (1/(8 kappa^2) and smaller) are below a rounding error here.
_MOMENT_SERIES_KAPPA = 1e8


def bessel_i(nu, x: float) -> float:
    """Modified Bessel function of the first kind I_nu(x) for nu >= 0, x >= 0.

    Uses the ascending power series for x <= 15 and the large-argument
    asymptotic expansion beyond; relative error is below 1e-10 throughout the
    supported range.  Raises OverflowError once exp(x) leaves double range
    (concentrations of practical interest stay far below that).
    """
    nu = float(nu)
    x = float(x)
    if nu < 0:
        raise ValueError("order nu must be nonnegative")
    if x < 0:
        raise ValueError("argument x must be nonnegative")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x > _OVERFLOW_X:
        raise OverflowError(f"I_nu({x}) exceeds double-precision range")
    if x <= _SERIES_CUTOFF:
        return _bessel_i_series(nu, x)
    return math.exp(x) * _bessel_i_asymptotic_scaled(nu, x)


def bessel_i_scaled(nu, x: float) -> float:
    """Exponentially scaled exp(-x) * I_nu(x); stays finite for any x >= 0.

    The densities below are ratios against exp(kappa), so evaluating them
    through this form keeps large concentrations representable.
    """
    nu = float(nu)
    x = float(x)
    if nu < 0 or x < 0:
        raise ValueError("nu and x must be nonnegative")
    if x <= _SERIES_CUTOFF:
        return _bessel_i_series(nu, x) * math.exp(-x)
    return _bessel_i_asymptotic_scaled(nu, x)


def _bessel_i_series(nu: float, x: float) -> float:
    half = 0.5 * x
    term = half**nu / math.gamma(nu + 1.0)
    total = term
    for k in range(1, 600):
        term *= half * half / (k * (k + nu))
        total += term
        if term < total * 1e-18:
            return total
    raise RuntimeError("Bessel series failed to converge")  # pragma: no cover


def _bessel_i_asymptotic_scaled(nu: float, x: float) -> float:
    mu = 4.0 * nu * nu
    total = 1.0
    term = 1.0
    prev = math.inf
    for k in range(1, 60):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(term) >= prev:
            break  # divergent tail reached; stop at the optimal truncation
        total += term
        prev = abs(term)
        if abs(term) < abs(total) * 1e-17:
            break
    return total / math.sqrt(TWO_PI * x)


def vm_density(theta, theta0: float, kappa: float):
    """von Mises density on the circle; vectorized over ``theta``.

    Evaluated as exp(kappa*(cos(theta-theta0) - 1)) over the scaled
    normalization, so arbitrarily sharp concentrations stay finite.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    theta = np.asarray(theta, dtype=float)
    if kappa == 0.0:
        out = np.full(theta.shape, 1.0 / TWO_PI)
        return out if out.ndim else float(out)
    scaled_norm = TWO_PI * bessel_i_scaled(0, kappa)
    out = np.exp(kappa * (np.cos(theta - theta0) - 1.0)) / scaled_norm
    return out if out.ndim else float(out)


def vm_moments(kappa: float) -> tuple[float, float]:
    """(m1, m_h) = (E[cos phi], E[cos(phi/2)]) for phi ~ vM(0, kappa) on (-pi, pi].

    m1 = I_1/I_0 and m_h = erf(sqrt(2 kappa)) / (sqrt(2 pi kappa) exp(-kappa) I_0)
    (Mardia & Jupp, Directional Statistics, 3.5); m_h tends to 2/pi as kappa
    goes to 0.  Above ``_MOMENT_SERIES_KAPPA`` both come from their series
    1 - 1/(2 kappa) and 1 - 1/(8 kappa), so every finite kappa gives finite
    moments.
    """
    if kappa == 0.0:
        return 0.0, 2.0 / math.pi
    if kappa > _MOMENT_SERIES_KAPPA:
        return 1.0 - 0.5 / kappa, 1.0 - 0.125 / kappa
    i0 = bessel_i_scaled(0, kappa)
    return (bessel_i_scaled(1, kappa) / i0,
            math.erf(math.sqrt(2.0 * kappa)) / (math.sqrt(TWO_PI * kappa) * i0))


@dataclass(frozen=True)
class TrembleSpec:
    """A tremble: von Mises product distribution centered on a pure strategy.

    ``center`` is the intended strategy, ``kappa`` the common concentration of
    the per-coordinate von Mises factors, and ``dims`` (matching
    ``center.dims``) how many torus coordinates actually tremble; inactive
    coordinates stay pinned at zero.  An active angle is its raw centre plus
    an offset on the centred window (-pi, pi] (``angles``).
    """

    center: StrategyParams
    kappa: float
    dims: int = 0

    def __post_init__(self):
        if not math.isfinite(self.kappa) or self.kappa < 0:
            raise ValueError("kappa must be finite and nonnegative")
        dims = self.dims if self.dims else self.center.dims
        if dims != self.center.dims:
            raise ValueError(
                f"dims ({dims}) must match the center's active dims ({self.center.dims})"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "kappa", float(self.kappa))

    def angles(self, offsets: np.ndarray) -> np.ndarray:
        """(n, 3) angle rows: the centre plus (n, dims) window offsets, inactive angles 0."""
        out = np.zeros((len(offsets), 3))
        out[:, : self.dims] = np.asarray(self.center.active) + offsets
        return out


def torus_density_angles(angles: np.ndarray, spec: TrembleSpec) -> np.ndarray:
    """Density of ``spec`` at angle rows (..., dims) over its active torus."""
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1] != spec.dims:
        raise ValueError(f"expected {spec.dims} angle column(s), got {angles.shape[-1]}")
    return np.prod(vm_density(angles, np.array(spec.center.active), spec.kappa), axis=-1)


def sample_vm(rng: np.random.Generator, theta0: float, kappa: float, size=None):
    """Draw exact von Mises samples via Best-Fisher rejection.

    Returns a scalar angle in [-pi, pi) when ``size`` is None, otherwise an
    array of that shape.  kappa = 0 degenerates to the uniform distribution.
    The caller owns the generator: one stream per thread.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    n = 1 if size is None else int(np.prod(size))
    if kappa < 1e-10:
        draws = rng.uniform(-math.pi, math.pi, size=n)
    else:
        draws = _best_fisher(rng, theta0, kappa, n)
    draws = np.mod(draws + math.pi, TWO_PI) - math.pi
    if size is None:
        return float(draws[0])
    return draws.reshape(size)


def _best_fisher(rng: np.random.Generator, theta0: float, kappa: float, n: int) -> np.ndarray:
    tau = 1.0 + math.sqrt(1.0 + 4.0 * kappa * kappa)
    rho = (tau - math.sqrt(2.0 * tau)) / (2.0 * kappa)
    r = (1.0 + rho * rho) / (2.0 * rho)

    out = np.empty(n)
    filled = 0
    while filled < n:
        m = max(n - filled, 64)
        u1, u2, u3 = rng.uniform(size=(3, m))
        z = np.cos(math.pi * u1)
        f = (1.0 + r * z) / (r + z)
        c = kappa * (r - f)
        accept = (c * (2.0 - c) - u2 > 0.0)
        with np.errstate(divide="ignore"):
            log_ok = ~accept & (np.log(c / u2) + 1.0 - c >= 0.0)
        accept |= log_ok
        good = f[accept]
        take = min(good.size, n - filled)
        if take:
            signs = np.where(u3[accept][:take] > 0.5, 1.0, -1.0)
            out[filled:filled + take] = theta0 + signs * np.arccos(np.clip(good[:take], -1.0, 1.0))
            filled += take
    return out


def sample_torus_angles(rng: np.random.Generator, spec: TrembleSpec, n: int) -> np.ndarray:
    """Draw ``n`` torus points from a tremble as an (n, 3) angle array.

    Active coordinates are the centre plus independent von Mises offsets
    (drawn theta first, then alpha, then beta, so streams replay exactly for a
    fixed seed), not wrapped; inactive coordinates are zero.
    """
    offsets = [sample_vm(rng, 0.0, spec.kappa, size=n) for _ in range(spec.dims)]
    return spec.angles(np.stack(offsets, axis=1))
