"""Small-coupling expansions on resonance and order-of-convergence fits.

All quantities here are dimensionless: g_tilde = g/omega, tau = omega*t.  The
laws are derived for one family of parameters, ``perturbative_family``.  The
expansion window is g_tilde*tau of order one with g_tilde^2*tau small; outside
it the expansions are still evaluated but the regime is flagged, because the
second-order truncation is then meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import OscillatorParams, _modes, normal_mode_frequencies
from .metrics import gaussian_grid
from .states import _check_squeezing, squeezed_pair, vacuum

__all__ = [
    "perturbative_family",
    "PerturbativeRegime",
    "q_coefficients",
    "vacuum_perturbative_fidelity",
    "vacuum_perturbative_bures_sq",
    "c2_coefficient",
    "convergence_order",
    "ladder_regimes",
    "fit_loglog_slope",
    "WINDOW_G2TAU",
]

WINDOW_G2TAU = 0.1
LADDER_SAMPLES = 9  # taus per rung of ``ladder_regimes``, across one beat


def perturbative_family(p: OscillatorParams) -> bool:
    """Whether the resonant laws apply: resonant frequencies (``p.resonant``), equal couplings, 0 < g/omega_a < 0.5."""
    return p.resonant and p.equal_couplings and 0.0 < p.g_bs / p.omega_a < 0.5


@dataclass(frozen=True)
class PerturbativeRegime:
    """Evaluation points of the small-coupling analysis: the resonant point (1, 1, g_tilde, g_tilde) at tau.

    ``tau`` may also be an array: the resonant laws then broadcast over it,
    and the window flag judges its largest entry.
    """

    g_tilde: float
    tau: float
    s: float = 0.0

    def __post_init__(self):
        # not perturbative_family(self.params()): that refuses a g_tilde near 0.5 the family accepts off exact resonance
        if not 0.0 < self.g_tilde < 0.5:
            raise ValueError("g_tilde must lie in (0, 0.5)")
        tau = np.asarray(self.tau, dtype=float)
        if not np.all(np.isfinite(tau)) or np.any(tau < 0):
            raise ValueError("tau must be finite and nonnegative")
        object.__setattr__(self, "s", _check_squeezing(self.s))

    @property
    def flags(self) -> tuple[str, ...]:
        return ("g2tau-outside-window",) if self.g_tilde**2 * np.max(self.tau) >= WINDOW_G2TAU else ()

    def params(self) -> OscillatorParams:
        return OscillatorParams(1.0, 1.0, self.g_tilde, self.g_tilde)


def q_coefficients(p: OscillatorParams) -> tuple[float, float, float, float]:
    """Exact q1..q4 of p from the determinant/cross-term combinations of the diagonalizer (alpha, beta).

    The diagonalizer rows for +kappa_+ and then +kappa_- are the rows of the
    Colpa factor U^T L^T for the two positive frequencies, scaled by
    lam^(-1/2).  The q's are squares, so the signs of the rows drop out.
    """
    lam, _, right = _modes(p)
    rows = right[[3, 2]] / np.sqrt(lam[[3, 2]])[:, None]
    al, be = rows[:, :2], rows[:, 2:]
    det_a = float(np.linalg.det(al))
    det_b = float(np.linalg.det(be))
    cross_x = al[0, 0] * be[1, 1] - al[0, 1] * be[1, 0]
    cross_y = al[1, 1] * be[0, 0] - al[1, 0] * be[0, 1]
    q1 = det_a**2 + det_b**2 - cross_x**2 - cross_y**2
    q2 = det_a**2 + det_b**2 + cross_x**2 + cross_y**2
    q3 = -det_a**2 + det_b**2 + cross_x**2 - cross_y**2
    q4 = -det_a**2 + det_b**2 - cross_x**2 + cross_y**2
    return q1, q2, q3, q4


def vacuum_perturbative_fidelity(regime: PerturbativeRegime) -> float:
    """Second-order fidelity law for an initial vacuum on resonance."""
    return 1.0 - vacuum_perturbative_bures_sq(regime)


def vacuum_perturbative_bures_sq(regime: PerturbativeRegime) -> float:
    """Matching lowest-order squared Bures distance for the vacuum."""
    g, tau = regime.g_tilde, regime.tau
    kp, km = normal_mode_frequencies(regime.params())
    return 0.5 * (np.sin(kp * tau) ** 2 + np.sin(km * tau) ** 2) * g**2


def c2_coefficient(regime: PerturbativeRegime) -> float:
    """Second-order inverse-square-fidelity coefficient for the squeezed pair.

    F^-2 = 1 + C2(tau, s) g^2 to cubic accuracy in the window; C2 at s = 0
    reduces to 1 - cos(2 tau) cos(2 g tau).
    """
    g, tau, s = regime.g_tilde, regime.tau, regime.s
    gt = g * tau
    ch4_sh4 = np.cosh(s) ** 4 + np.sinh(s) ** 4
    sh2_2s = np.sinh(2.0 * s) ** 2
    return (
        0.5 * sh2_2s * gt**2
        - 0.5 * np.sinh(4.0 * s) * np.cos(2.0 * tau) * np.sin(2.0 * gt) * gt
        + ch4_sh4 * (1.0 - np.cos(2.0 * tau) * np.cos(2.0 * gt))
        + 0.25 * sh2_2s * (2.0 * np.cos(2.0 * tau) * np.cos(2.0 * gt) - np.cos(4.0 * tau) * np.cos(4.0 * gt) - 1.0)
    )


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise ValueError("at least two points are needed for a slope")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("slope fit requires positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def ladder_regimes(g_values, g_tau: float, s: float = 0.0) -> list[PerturbativeRegime]:
    """One regime per rung of a coupling ladder at fixed g*tau, its taus sampled across one beat.

    The fidelity deficit oscillates with cos(2 tau); sampling tau over a half
    period of that oscillation around the target tau = g_tau/g and taking the
    worst point gives a ladder constant stable enough for a slope fit.
    """
    beat = np.linspace(-np.pi / 2.0, np.pi / 2.0, LADDER_SAMPLES)
    return [PerturbativeRegime(g_tilde=g, tau=np.maximum(g_tau / g + beat, 0.0), s=s) for g in g_values]


def convergence_order(regimes) -> float:
    """Fitted log-log slope of the fidelity deficit against the coupling.

    Each regime is evaluated in one `gaussian_grid` call over its taus.
    Regimes sharing a g_tilde form one ladder rung; the rung value is the
    largest deficit 1 - F over the rung (robust against the oscillating
    prefactor).  Exact zeros are excluded; at least three distinct couplings
    are required.
    """
    rungs: dict[float, float] = {}
    for regime in regimes:
        factor = vacuum() if regime.s == 0.0 else squeezed_pair(regime.s)
        deficit = float(np.max(1.0 - gaussian_grid(factor, regime.params(), regime.tau).report.fidelity))
        rungs[regime.g_tilde] = max(rungs.get(regime.g_tilde, 0.0), deficit)
    ladder = sorted((g, d) for g, d in rungs.items() if d > 0.0)
    if len(ladder) < 3:
        raise ValueError("need at least three ladder couplings with nonzero deficit")
    gs = np.array([g for g, _ in ladder])
    ds = np.array([d for _, d in ladder])
    return fit_loglog_slope(gs, ds)
