"""Coefficient weights for the five space families, plus modulation norms.

A ``SpaceWeight`` selects a rule k -> lambda_k on the basis expansion:

    poly(s)      hs    (1+k)^s
    exp(p, q)    epq   exp(q k^p)
    mod-poly(s)  ms    exact radial moment mu_k(s) of the (1+|z|^2)^s window integral
    mod-exp(s)   mse   exp((s/sqrt(pi)) sqrt(k))      (coefficient-side equivalent)
    mod-exp2(s)  mse2  (pi/(pi-s))^(k+1)              (exact, 0 <= s < pi)

The middle column is the report and CLI ``name`` (``SpaceWeight.named``).
Only this module tells the kinds apart; other modules ask a weight for its
``name``, fit ``axis``, ``theory_slope`` and growth law ``decay()``.

For the squared-exponential weight (alpha=2) the time-frequency-transform
norms diagonalize over the basis: the transform maps h_k to a normalized
monomial, and a rotation-invariant weight keeps the monomials orthogonal,
so a weighted norm reduces to sum_k fhat_k^2 * mu_k with mu_k a 1-D radial
moment.  ``modulation_norm_sq`` uses that diagonal form; the 2-D grid
evaluator ``stft_grid_norm_sq`` exists as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, GridInsufficientError

__all__ = [
    "SpaceWeight",
    "HermiteExpansion",
    "lambda_of",
    "coeff_norm_sq",
    "radial_moment",
    "modulation_norm_sq",
    "stft_grid_norm_sq",
]

# kind -> (report and CLI name, slope-fit axis)
_KINDS = {
    "poly": ("hs", "log-n"), "exp": ("epq", "sqrt-n"), "mod-poly": ("ms", "log-n"),
    "mod-exp": ("mse", "sqrt-n"), "mod-exp2": ("mse2", "n"),
}
_GRID_POINTS = 801  # per side of the stft_grid_norm_sq grid


class Decay(NamedTuple):
    """A growth law of the weights: lambda_k^(-1) <= c (1+k)^(-s) when ``s``
    is set (the polynomial kinds), else lambda_k^(-1) = c e^(-q k^p)."""

    c: float
    s: float | None = None
    p: float | None = None
    q: float | None = None


@dataclass(frozen=True)
class SpaceWeight:
    """One of the five coefficient-weight families.

    A mod-exp2 weight keeps its ratio t in ``_t``: the t it was built from
    by ``geometric(t)`` (s = pi(1 - 1/t) does not always round-trip to t),
    else pi/(pi - s).
    """

    kind: str
    s: float | None = None
    p: float | None = None
    q: float | None = None
    _t: float | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == "exp":
            if not all(v is not None and 0 < v < math.inf for v in (self.p, self.q)):
                raise ValueError("exp weights need finite p > 0 and q > 0")
        elif self.s is None or not 0 <= self.s < math.inf:
            raise ValueError(f"{self.kind} weights need s >= 0 and finite")
        elif self.kind == "mod-exp2" and not self.s < math.pi:
            raise ValueError("mod-exp2 needs 0 <= s < pi")
        if self.kind != "mod-exp2" and self._t is not None:
            raise ValueError(f"a ratio t applies only to mod-exp2, not {self.kind!r}")
        if self.kind == "mod-exp2" and self._t is None:
            object.__setattr__(self, "_t", math.pi / (math.pi - self.s))

    # constructors
    @classmethod
    def polynomial(cls, s: float) -> "SpaceWeight":
        return cls("poly", s=float(s))

    @classmethod
    def exponential(cls, p: float, q: float) -> "SpaceWeight":
        return cls("exp", p=float(p), q=float(q))

    @classmethod
    def mod_poly(cls, s: float) -> "SpaceWeight":
        return cls("mod-poly", s=float(s))

    @classmethod
    def mod_exp(cls, s: float) -> "SpaceWeight":
        return cls("mod-exp", s=float(s))

    @classmethod
    def mod_exp2(cls, s: float) -> "SpaceWeight":
        return cls("mod-exp2", s=float(s))

    @classmethod
    def geometric(cls, t: float) -> "SpaceWeight":
        """The mod-exp2 weight t^(k+1), keeping t as given."""
        if not 1 < t < math.inf:
            raise ValueError(f"geometric decay needs t > 1 and finite, got t={t}")
        return cls("mod-exp2", s=math.pi * (1.0 - 1.0 / t), _t=float(t))

    @classmethod
    def named(cls, name: str, s=None, p=None, q=None, t=None) -> "SpaceWeight":
        """The weight a report name stands for: epq takes p and q, the others
        s (default 1), mse2 t in place of s.  Any other parameter is an error."""
        kind = next((k for k, (n, _) in _KINDS.items() if n == name), None)
        if kind is None:
            raise ValueError(f"unknown space name {name!r}")
        if t is not None and kind != "mod-exp2":
            raise ValueError(f"t applies only to mse2, not {name}")
        if kind == "exp":
            if s is not None:
                raise ValueError("s does not apply to epq")
            if p is None or q is None:
                raise ValueError("epq needs p and q")
            return cls.exponential(p, q)
        if p is not None or q is not None:
            raise ValueError(f"p and q apply only to epq, not {name}")
        if t is None:
            return cls(kind, s=1.0 if s is None else float(s))
        if s is not None:
            raise ValueError("s and t both set the mse2 weight; give one")
        return cls.geometric(t)

    @staticmethod
    def names() -> tuple:
        """The report names, one per kind: hs, epq, ms, mse, mse2."""
        return tuple(n for n, _ in _KINDS.values())

    @property
    def name(self) -> str:
        """The report and CLI name: hs, epq, ms, mse or mse2."""
        return _KINDS[self.kind][0]

    @property
    def axis(self) -> str:
        """The slope-fit abscissa: n, sqrt-n or log-n."""
        return _KINDS[self.kind][1]

    @property
    def theory_slope(self) -> float | None:
        """Slope against ``axis`` of the decay rate t^(-2n), e^(-s sqrt(2n/pi))
        or n^(-s); None for exp, which has no s."""
        if self.kind == "mod-exp2":
            return -2.0 * math.log10(self._t)
        if self.kind == "mod-exp":
            return -math.sqrt(2.0) * (self.s / math.sqrt(math.pi)) * math.log10(math.e)
        return None if self.kind == "exp" else -self.s

    def decay(self) -> Decay:
        """The growth law of lambda_k, which tail bounds read.  For mod-poly
        it is the sound lower bound mu_k >= (1+k)^s (2 pi)^-s, from the
        digamma inequality psi(k+1) >= log(k + 1/2)."""
        if self.kind == "exp":
            return Decay(1.0, p=self.p, q=self.q)
        if self.kind == "mod-exp":
            return Decay(1.0, p=0.5, q=self.s / math.sqrt(math.pi))
        if self.kind == "mod-exp2":  # lambda_k = t^(k+1) = t * e^(k log t)
            return Decay(1.0 / self._t, p=1.0, q=math.log(self._t))
        c = (2.0 * math.pi) ** self.s if self.kind == "mod-poly" else 1.0
        return Decay(c, s=self.s)

    def describe(self) -> dict:
        given = {"s": self.s, "p": self.p, "q": self.q, "t": self._t}
        return {"kind": self.kind, **{k: v for k, v in given.items() if v is not None}}


@dataclass(frozen=True)
class HermiteExpansion:
    """A finite expansion sum_k coeffs[k] h_k over the weighted basis."""

    coeffs: np.ndarray
    alpha: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("expansion coefficients must be finite")
        self.coeffs.setflags(write=False)

    @classmethod
    def unit(cls, k: int, alpha: float = 2.0) -> "HermiteExpansion":
        """The basis element h_k as an expansion."""
        c = np.zeros(k + 1)
        c[k] = 1.0
        return cls(c, alpha)


def lambda_of(space: SpaceWeight, k):
    """lambda_k for scalar or array k >= 0."""
    karr = np.asarray(k)
    if np.any(karr < 0):
        raise ValueError("coefficient index must be >= 0")
    kf = karr.astype(float)
    # weights may overflow to inf deep in a tail scan; reciprocals are then 0
    if space.kind == "poly":
        out = (1.0 + kf) ** space.s
    elif space.kind in ("exp", "mod-exp"):  # the growth law is exact here
        law = space.decay()
        with np.errstate(over="ignore"):
            out = np.exp(law.q * kf**law.p) / law.c
    elif space.kind == "mod-exp2":
        with np.errstate(over="ignore"):
            out = np.exp((kf + 1.0) * math.log(space._t))
    elif float(space.s).is_integer():  # mod-poly: exact radial moments
        out = _mod_poly_moments(space, kf)
    else:
        out = np.array([_moment_quad(space, int(kk)) for kk in karr.flat])
        out = out.reshape(karr.shape)
    if np.isscalar(k) or karr.ndim == 0:
        return float(out)
    return out


def coeff_norm_sq(space: SpaceWeight, f: HermiteExpansion) -> float:
    """sum_k lambda_k * fhat_k^2."""
    k = np.arange(f.coeffs.size)
    return float(math.fsum(lambda_of(space, k) * f.coeffs**2))


def _mod_poly_moments(space: SpaceWeight, k: np.ndarray) -> np.ndarray:
    """Exact moments mu_k(s) of a mod-poly weight of integer s, over float k.

    (1 + t/pi)^s expands exactly, so mu_k = sum_j C(s,j) pi^-j (k+1)...(k+j).
    The rising factorials are exp(gammaln(k+j+1) - gammaln(k+1)) with
    ``math.exp`` per element: ``np.exp`` rounds some of them differently.
    The j = 0 term is exactly 1.  Each later term streams ``math.exp`` into
    one array and is scaled and added in place, so no Python float is held
    per mode and at most five arrays of k's size are live at once (k, the
    shared gammaln(k+1), the total, one term's logarithms and its values).
    """
    # imported here, not at module level: scipy.special costs 0.04 s and
    # 2.5 MB at import, and only the integer-s mod-poly tables need it here
    from scipy.special import gammaln

    s = int(space.s)
    log_k_fact = gammaln(k + 1)
    total = np.ones(k.shape)
    for j in range(1, s + 1):
        log_rising = gammaln(k + j + 1)
        log_rising -= log_k_fact
        rising = np.fromiter(map(math.exp, log_rising.flat), float, log_rising.size)
        del log_rising
        rising *= math.comb(s, j) * math.pi ** (-j)
        total += rising.reshape(k.shape)
        del rising
    return total


def _moment_quad(space: SpaceWeight, k: int) -> float:
    """mu_k of a mod-poly or mod-exp window by adaptive quadrature."""
    # imported here, not at module level: loading scipy.integrate costs ~20 MB
    # and ~0.1 s, and only non-integer mod-poly and mod-exp moments need it;
    # scipy.special likewise (0.04 s and 2.5 MB), which the closed-form route
    # never loads
    from scipy.integrate import quad
    from scipy.special import gammaln

    s = float(space.s)
    lgk = gammaln(k + 1)

    def log_density(t):  # t^k e^{-t} / k! in log form
        return k * math.log(t) - t - lgk if t > 0 else -math.inf

    if space.kind == "mod-poly":
        def f(t):
            return math.exp(log_density(t)) * (1.0 + t / math.pi) ** s
    else:
        def f(t):
            return math.exp(log_density(t) + s * math.sqrt(t / math.pi))
    upper = k + 40.0 * math.sqrt(k + 1.0) + 60.0
    val, err = quad(f, 0.0, upper, epsabs=0.0, epsrel=1e-12, limit=200)
    if not np.isfinite(val) or (val > 0 and err / val > 1e-9):
        raise ConvergenceError(
            f"radial moment quadrature achieved only {err:.2e} on value {val:.2e}"
        )
    return float(val)


def _require_modulation(space: SpaceWeight) -> None:
    if space.kind in ("poly", "exp"):
        raise ValueError(f"modulation norms need a mod-* weight, not {space.kind!r}")


def radial_moment(space: SpaceWeight, k: int) -> float:
    """mu_k: the k-th normalized radial moment of the window weight.

    mu_k = (1/k!) * integral_0^inf t^k w(sqrt(t/pi)) e^{-t} dt with
    w(r) = (1+r^2)^s, e^{s r} or e^{s r^2} for mod-poly / mod-exp /
    mod-exp2.  For mod-poly and mod-exp2 that is lambda_k; the mod-exp
    lambda_k is only a coefficient-side equivalent, so its mu_k is integrated.
    """
    _require_modulation(space)
    if k < 0:
        raise ValueError("moment index must be >= 0")
    if space.kind == "mod-exp":
        return _moment_quad(space, int(k))
    return lambda_of(space, k)


def modulation_norm_sq(space: SpaceWeight, f: HermiteExpansion) -> float:
    """Diagonal form of the squared weighted transform norm.

    Valid only for alpha = 2, where the basis diagonalizes the transform.
    """
    if f.alpha != 2.0:
        raise ValueError(f"modulation norms require alpha=2, got {f.alpha}")
    _require_modulation(space)
    terms = [
        f.coeffs[k] ** 2 * radial_moment(space, k)
        for k in range(f.coeffs.size)
        if f.coeffs[k] != 0.0
    ]
    return float(math.fsum(terms))


def _auto_radius(m: int, space: SpaceWeight) -> float:
    decay = math.pi - (space.s if space.kind == "mod-exp2" else 0.0)
    r_sq = (m + 40.0 * math.sqrt(m + 1.0) + 60.0) / decay
    return math.sqrt(r_sq)


def stft_grid_norm_sq(
    space: SpaceWeight, f: HermiteExpansion, *, radius: float | None = None
) -> float:
    """2-D tensor-trapezoid evaluation of the weighted transform norm.

    Independent of the diagonal path: evaluates
    |sum_k fhat_k sqrt(pi^k/k!) zbar^k|^2 e^{-pi|z|^2} w(|z|) on a square
    grid of ``_GRID_POINTS`` per side over [-radius, radius]^2 (by default
    sized so the boundary integrand is below 1e-18 of its peak), trapezoid
    in x and y.
    """
    # imported here, not at module level: the package import leaves
    # scipy.special (0.04 s, 2.5 MB) to the functions that call it
    from scipy.special import gammaln

    if f.alpha != 2.0:
        raise ValueError(f"modulation norms require alpha=2, got {f.alpha}")
    _require_modulation(space)
    m = f.coeffs.size - 1
    R = radius if radius is not None else _auto_radius(m, space)
    u = np.linspace(-R, R, _GRID_POINTS)
    X, Y = np.meshgrid(u, u, indexing="ij")
    Z = X - 1j * Y  # conjugate argument of the analytic factor
    mono = f.coeffs * np.exp(
        0.5 * (np.arange(m + 1) * math.log(math.pi) - gammaln(np.arange(m + 1) + 1))
    )
    P = np.zeros_like(Z)
    for c in mono[::-1]:
        P = P * Z + c
    r_sq = X * X + Y * Y
    if space.kind == "mod-poly":
        w = (1.0 + r_sq) ** space.s
    elif space.kind == "mod-exp":
        w = np.exp(space.s * np.sqrt(r_sq))
    else:  # mod-exp2
        w = np.exp(space.s * r_sq)
    F = (P.real**2 + P.imag**2) * np.exp(-math.pi * r_sq) * w
    interior = F.max()
    boundary = max(F[0].max(), F[-1].max(), F[:, 0].max(), F[:, -1].max())
    if interior > 0 and boundary > 1e-12 * interior:
        raise GridInsufficientError(
            f"boundary integrand mass {boundary:.2e} vs peak {interior:.2e}; "
            "enlarge the grid radius"
        )
    return float(np.trapezoid(np.trapezoid(F, u, axis=1), u))
