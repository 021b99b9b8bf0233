"""Small-coupling expansions on resonance and order-of-convergence fits.

All quantities here are dimensionless: g_tilde = g/omega, tau = omega*t,
epsilon = detuning/omega.  The expansion window is g_tilde*tau of order one
with g_tilde^2*tau small; outside it the expansions are still evaluated but
the regime is flagged, because the second-order truncation is then meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import OscillatorParams, _modes, normal_mode_frequencies
from .metrics import fidelity_eff
from .states import squeezed_pair, vacuum

__all__ = [
    "PerturbativeRegime",
    "q_coefficients",
    "q_resonant_closed",
    "q_epsilon_linear",
    "vacuum_perturbative_fidelity",
    "vacuum_perturbative_bures_sq",
    "c2_coefficient",
    "convergence_order",
    "ladder_regimes",
    "fit_loglog_slope",
    "WINDOW_G2TAU",
]

WINDOW_G2TAU = 0.1


@dataclass(frozen=True)
class PerturbativeRegime:
    """One evaluation point of the small-coupling analysis.

    ``tau`` may also be an array: the resonant laws then broadcast over it,
    and the window flag judges its largest entry.
    """

    g_tilde: float
    tau: float
    epsilon: float = 0.0
    s: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.g_tilde < 0.5):
            raise ValueError("g_tilde must lie in (0, 0.5)")
        tau = np.asarray(self.tau, dtype=float)
        if not np.all(np.isfinite(tau)) or np.any(tau < 0):
            raise ValueError("tau must be finite and nonnegative")

    @property
    def flags(self) -> tuple[str, ...]:
        out = []
        if abs(self.epsilon) >= self.g_tilde:
            out.append("detuning-exceeds-coupling")
        if self.g_tilde**2 * np.max(self.tau) >= WINDOW_G2TAU:
            out.append("g2tau-outside-window")
        return tuple(out)

    @property
    def in_window(self) -> bool:
        return not self.flags

    def params(self) -> OscillatorParams:
        g = self.g_tilde
        return OscillatorParams(1.0, 1.0 + self.epsilon, g, g)

    def kappas(self) -> tuple[float, float]:
        return normal_mode_frequencies(self.params())


def q_coefficients(regime: PerturbativeRegime) -> tuple[float, float, float, float]:
    """Exact q1..q4 from the determinant/cross-term combinations of the diagonalizer (alpha, beta).

    The diagonalizer rows for +kappa_+ and then +kappa_- are the rows of the
    Colpa factor U^T L^T for the two positive frequencies, scaled by
    lam^(-1/2).  The q's are squares, so the signs of the rows drop out.
    """
    lam, _, right = _modes(regime.params())
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


def q_resonant_closed(g: float) -> tuple[float, float, float, float]:
    """Resonant closed forms of q1..q4 (exact at epsilon = 0)."""
    return (
        1.0,
        (1.0 - g**2) / np.sqrt(1.0 - 4.0 * g**2),
        -(1.0 + g) / np.sqrt(1.0 + 2.0 * g),
        -(1.0 - g) / np.sqrt(1.0 - 2.0 * g),
    )


def q_epsilon_linear(g: float, eps: float) -> tuple[float, float, float, float]:
    """Detuning-linear expansions of q1..q4 (valid for |eps| << g)."""
    return (
        1.0,
        (1.0 - g**2 - g**2 * (1.0 + 2.0 * g**2) / (1.0 - 4.0 * g**2) * eps) / np.sqrt(1.0 - 4.0 * g**2),
        -(1.0 + g - g**2 * eps / (2.0 + 4.0 * g)) / np.sqrt(1.0 + 2.0 * g),
        -(1.0 - g - g**2 * eps / (2.0 - 4.0 * g)) / np.sqrt(1.0 - 2.0 * g),
    )


def _require_resonance(regime: PerturbativeRegime):
    if regime.epsilon != 0.0:
        raise ValueError("this expansion is derived on resonance (epsilon = 0)")


def vacuum_perturbative_fidelity(regime: PerturbativeRegime) -> float:
    """Second-order fidelity law for an initial vacuum on resonance."""
    _require_resonance(regime)
    g, tau = regime.g_tilde, regime.tau
    kp, km = regime.kappas()
    return 1.0 - 0.5 * g**2 * (np.sin(kp * tau) ** 2 + np.sin(km * tau) ** 2)


def vacuum_perturbative_bures_sq(regime: PerturbativeRegime) -> float:
    """Matching lowest-order squared Bures distance for the vacuum."""
    _require_resonance(regime)
    g, tau = regime.g_tilde, regime.tau
    kp, km = regime.kappas()
    return 0.5 * (np.sin(kp * tau) ** 2 + np.sin(km * tau) ** 2) * g**2


def c2_coefficient(regime: PerturbativeRegime) -> float:
    """Second-order inverse-square-fidelity coefficient for the squeezed pair.

    F^-2 = 1 + C2(tau, s) g^2 to cubic accuracy in the window; C2 at s = 0
    reduces to 1 - cos(2 tau) cos(2 g tau).
    """
    _require_resonance(regime)
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


def ladder_regimes(
    g_values, g_tau: float, s: float = 0.0, samples: int = 9
) -> list[PerturbativeRegime]:
    """Regimes on a coupling ladder at fixed g*tau, sampled across one beat.

    The fidelity deficit oscillates with cos(2 tau); sampling tau over a half
    period of that oscillation around the target tau = g_tau/g and taking the
    worst point gives a ladder constant stable enough for a slope fit.
    """
    out = []
    for g in g_values:
        center = g_tau / g
        for dt in np.linspace(-np.pi / 2.0, np.pi / 2.0, samples):
            out.append(PerturbativeRegime(g_tilde=g, tau=max(center + dt, 0.0), s=s))
    return out


def convergence_order(regimes) -> float:
    """Fitted log-log slope of the fidelity deficit against the coupling.

    Regimes sharing a g_tilde form one ladder rung; the rung value is the
    largest deficit 1 - F over the rung (robust against the oscillating
    prefactor).  Exact zeros are excluded; at least three distinct couplings
    are required.
    """
    rungs: dict[float, float] = {}
    for regime in regimes:
        factor = vacuum() if regime.s == 0.0 else squeezed_pair(regime.s)
        report = fidelity_eff(factor, regime.params(), regime.tau)
        deficit = 1.0 - report.fidelity
        key = regime.g_tilde
        rungs[key] = max(rungs.get(key, 0.0), deficit)
    ladder = sorted((g, d) for g, d in rungs.items() if d > 0.0)
    if len(ladder) < 3:
        raise ValueError("need at least three ladder couplings with nonzero deficit")
    gs = np.array([g for g, _ in ladder])
    ds = np.array([d for _, d in ladder])
    return fit_loglog_slope(gs, ds)
