"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is fixed here, not configurable.
"""

import numpy as np
import pytest

from reference import (
    diagonalize,
    evolution_via_exponential,
    full_evolution,
    number_moments,
    q_resonant_closed,
    symplectic_defect,
    vacuum_fidelity_moments,
)
from rwafidelity.dynamics import OscillatorParams, SymplecticMatrix, rwa_block, time_evolution
from rwafidelity.fockoracle import FockOracle, bound_check
from rwafidelity.metrics import bloch_messiah, delta_n, fidelity_eff, gaussian_grid
from rwafidelity.perturbation import (
    PerturbativeRegime,
    c2_coefficient,
    fit_loglog_slope,
    q_coefficients,
    vacuum_perturbative_fidelity,
)
from rwafidelity.states import InitialState, squeezed_pair, vacuum

LADDER = np.array([0.1, 0.05, 0.025])


def _random_params(rng, equal):
    wa, wb = rng.uniform(0.3, 3.0, 2)
    bound = np.sqrt(wa * wb)
    if equal:
        g = rng.uniform(0.0, 0.45 * bound)
        return OscillatorParams(wa, wb, g, g)
    split = rng.uniform(0.0, 1.0)
    total = rng.uniform(0.0, 0.9 * bound)
    return OscillatorParams(wa, wb, split * total, (1.0 - split) * total)


def _family_defects(s: SymplecticMatrix) -> float:
    a, b = s.alpha, s.beta
    i2 = np.eye(2)
    return float(
        max(
            np.max(np.abs(a @ a.conj().T - b @ b.conj().T - i2)),
            np.max(np.abs(a @ b.T - b @ a.T)),
            np.max(np.abs(a.conj().T @ a - b.T @ b.conj() - i2)),
            np.max(np.abs(a.conj().T @ b - b.T @ a.conj())),
        )
    )


def test_criterion_1_symplectic_soundness():
    rng = np.random.default_rng(101)
    worst_sympl = worst_family = worst_closed = 0.0
    for k in range(200):
        p = _random_params(rng, equal=(k % 2 == 0))
        for t in (0.1, 1.0, 10.0):
            s = time_evolution(p, t)
            worst_sympl = max(worst_sympl, symplectic_defect(s))
            worst_family = max(worst_family, _family_defects(s))
            if p.equal_couplings:
                diff = np.max(np.abs(full_evolution(diagonalize(p), t).matrix - evolution_via_exponential(p, t).matrix))
                worst_closed = max(worst_closed, diff)
    assert worst_sympl < 1e-10
    assert worst_family < 1e-10
    assert worst_closed < 1e-9
    print(
        f"[PASS] criterion 1 symplectic soundness: defect {worst_sympl:.2e}, "
        f"families {worst_family:.2e}, closed-vs-exp {worst_closed:.2e}"
    )


def test_criterion_2_main_result_consistency():
    rng = np.random.default_rng(102)
    worst_det = worst_bm = 0.0
    for _ in range(100):
        g = rng.uniform(0.005, 0.4)
        s = rng.uniform(-0.5, 0.5)
        tau = rng.uniform(0.0, 20.0)
        p = OscillatorParams(1.0, 1.0, g, g)
        factor = squeezed_pair(s)
        grid = gaussian_grid(factor, p, [tau])
        a_f, b_f = grid.a_f[0], grid.b_f[0]
        f_det = 1.0 / np.sqrt(np.real(np.linalg.det(np.eye(2) + b_f.conj().T @ b_f)))
        f_adet = 1.0 / abs(np.linalg.det(a_f))
        r_plus, r_minus = bloch_messiah(b_f)
        f_bm = 1.0 / (np.cosh(r_plus) * np.cosh(r_minus))
        worst_det = max(worst_det, abs(f_det - f_adet))
        worst_bm = max(worst_bm, abs(f_det - f_bm))
    assert worst_det < 1e-10
    assert worst_bm < 1e-10
    print(f"[PASS] criterion 2 main-result consistency: |det routes| {worst_det:.2e}, |cosh route| {worst_bm:.2e}")


def test_criterion_3_rwa_exact_without_squeezing():
    rng = np.random.default_rng(103)
    passive = SymplecticMatrix(rwa_block(OscillatorParams(1.0, 1.3, 0.2, 0.0), 0.9), np.zeros((2, 2)))
    worst = 0.0
    for _ in range(40):
        wa, wb = rng.uniform(0.3, 3.0, 2)
        p = OscillatorParams(wa, wb, rng.uniform(0.0, 0.9 * np.sqrt(wa * wb)), 0.0)
        for t in (0.1, 0.7, 2.0, 7.0, 15.0):
            for factor in (vacuum(), passive):
                worst = max(worst, abs(fidelity_eff(factor, p, t).fidelity - 1.0))
    assert worst < 1e-10
    print(f"[PASS] criterion 3 RWA exact without squeezing: max |F - 1| = {worst:.2e}")


def test_criterion_4_oracle_equivalence():
    taus = np.linspace(0.0, 10.0, 11)
    worst_f = worst_n = worst_cert = 0.0
    for g in (0.02, 0.05):
        p = OscillatorParams(1.0, 1.0, g, g)
        oracle_40 = FockOracle(p, 40)
        oracle_80 = FockOracle(p, 80)
        for initial in (InitialState("vacuum"), InitialState("squeezed", s=0.2)):
            factor = initial.factor()
            points = oracle_40.compare(initial, taus)
            certs = oracle_80.compare(initial, taus)
            for tau, fid, dn_oracle, fid_cert, dn_cert in zip(
                taus, points.fidelity, points.delta_n, certs.fidelity, certs.delta_n
            ):
                rep = fidelity_eff(factor, p, tau)
                dn = delta_n(factor, p, tau)
                worst_f = max(worst_f, abs(rep.fidelity - fid))
                worst_n = max(worst_n, abs(dn - dn_oracle))
                worst_cert = max(worst_cert, abs(fid - fid_cert), abs(dn_oracle - dn_cert))
    assert worst_f < 1e-5
    assert worst_n < 1e-5
    assert worst_cert < 1e-6
    print(
        f"[PASS] criterion 4 oracle equivalence: |dF| {worst_f:.2e}, |d(dN)| {worst_n:.2e}, "
        f"cutoff-doubling shift {worst_cert:.2e}"
    )


def test_criterion_4_on_a_propagated_sector():
    # criterion 4 is resonant, where the oracle takes the two normal-mode factors; its detuned twin at
    # omega_b = 1.1, under the same bounds, propagates the parity sector
    taus = np.linspace(0.0, 10.0, 11)
    worst_f = worst_n = worst_cert = 0.0
    for g in (0.02, 0.05):
        p = OscillatorParams(1.0, 1.1, g, g)
        for initial in (InitialState("vacuum"), InitialState("squeezed", s=0.2)):
            factor = initial.factor()
            points, certs = (FockOracle(p, cutoff).compare(initial, taus) for cutoff in (40, 80))
            worst_f = max(worst_f, max(abs(fidelity_eff(factor, p, tau).fidelity - f) for tau, f in zip(taus, points.fidelity)))
            worst_n = max(worst_n, max(abs(delta_n(factor, p, tau) - d) for tau, d in zip(taus, points.delta_n)))
            worst_cert = max(worst_cert, np.max(np.abs(points.fidelity - certs.fidelity)), np.max(np.abs(points.delta_n - certs.delta_n)))
    assert worst_f < 1e-5
    assert worst_n < 1e-5
    assert worst_cert < 1e-6


def test_criterion_5_vacuum_perturbative_law():
    tau = 2.0
    residuals, deficits = [], []
    for g in LADDER:
        p = OscillatorParams(1.0, 1.0, g, g)
        exact = fidelity_eff(vacuum(), p, tau).fidelity
        law = vacuum_perturbative_fidelity(PerturbativeRegime(g, tau))
        residuals.append(abs(exact - law))
        deficits.append(1.0 - exact)
    slope_res = fit_loglog_slope(LADDER, np.array(residuals))
    slope_def = fit_loglog_slope(LADDER, np.array(deficits))
    assert slope_res >= 2.9
    assert abs(slope_def - 2.0) <= 0.1
    print(f"[PASS] criterion 5 vacuum law: remainder slope {slope_res:.3f}, deficit slope {slope_def:.3f}")


def test_criterion_6_c2_law():
    s = 0.1
    taus = np.linspace(0.0, 20.0, 50)
    factor = squeezed_pair(s)
    max_residuals = []
    for g in LADDER:
        p = OscillatorParams(1.0, 1.0, g, g)
        worst = 0.0
        for tau in taus:
            f_inv2 = fidelity_eff(factor, p, tau).fidelity ** -2
            pred = 1.0 + c2_coefficient(PerturbativeRegime(g, tau, s=s)) * g**2
            worst = max(worst, abs(f_inv2 - pred))
        max_residuals.append(worst)
    slope = fit_loglog_slope(LADDER, np.array(max_residuals))
    assert slope >= 2.9

    # s = 0 coefficient against the vacuum second-order coefficient
    diffs = []
    for g in LADDER:
        kp, km = np.sqrt(1.0 + 2.0 * g), np.sqrt(1.0 - 2.0 * g)
        worst = max(
            abs(c2_coefficient(PerturbativeRegime(g, tau)) - (np.sin(kp * tau) ** 2 + np.sin(km * tau) ** 2))
            for tau in taus
        )
        diffs.append(worst)
    slope_vac = fit_loglog_slope(LADDER, np.array(diffs))
    assert slope_vac >= 0.9
    print(f"[PASS] criterion 6 C2 law: residual slope {slope:.3f}, vacuum-coefficient slope {slope_vac:.3f}")


def test_criterion_7_recurrence():
    p = OscillatorParams(1.0, 1.0, 0.3, 0.3)
    nm = diagonalize(p)
    assert nm.kappa_plus / nm.kappa_minus == pytest.approx(2.0, abs=1e-12)
    t_star = 2.0 * np.pi / nm.kappa_minus

    s = full_evolution(nm, t_star)
    b_norm = float(np.max(np.abs(s.beta)))
    rep = fidelity_eff(vacuum(), p, t_star)
    dn = delta_n(vacuum(), p, t_star)
    point = FockOracle(p, 40).compare(InitialState("vacuum"), t_star)
    assert b_norm < 1e-8
    assert abs(rep.fidelity - 1.0) < 1e-8
    assert abs(dn) < 1e-8
    assert abs(point.fidelity - 1.0) < 1e-8
    assert abs(point.delta_n) < 1e-8
    print(
        f"[PASS] criterion 7 recurrence: |B(t*)| {b_norm:.2e}, symplectic |F-1| {abs(rep.fidelity - 1.0):.2e}, "
        f"oracle |F-1| {abs(point.fidelity - 1.0):.2e}"
    )


def test_criterion_8_fock_bound():
    states = ((0, 0), (1, 0), (1, 1), (2, 1))
    times = (0.5, 1.0, 2.0)
    z_table = {}
    for g in (0.025, 0.05, 0.1):
        p = OscillatorParams(1.0, 1.0, g, g)
        for (n_a, n_b) in states:
            for t in times:
                res = bound_check(n_a, n_b, p, t, cutoff=24)
                assert res.satisfied, (n_a, n_b, g, t, res)
                z_table[(n_a, n_b, t, g)] = res.z_exact
    for (n_a, n_b) in states:
        for t in times:
            zs = [z_table[(n_a, n_b, t, g)] for g in (0.1, 0.05, 0.025)]
            assert zs[0] > zs[1] > zs[2], (n_a, n_b, t, zs)
    print(f"[PASS] criterion 8 Fock bound: {len(z_table)} cells bounded, decay monotone in the coupling")


def test_criterion_9_q_coefficients():
    assert q_resonant_closed(0.0) == (1.0, 1.0, -1.0, -1.0)
    residuals = {1: [], 2: [], 3: []}
    worst_closed = worst_q1 = 0.0
    for g in LADDER:
        exact = np.array(q_coefficients(OscillatorParams(1.0, 1.0, g, g)))
        closed = np.array(q_resonant_closed(g))
        worst_closed = max(worst_closed, float(np.max(np.abs(exact - closed))))
        worst_q1 = max(worst_q1, abs(exact[0] - 1.0))
        taylor = np.array([1.0, 1.0 + g**2, -1.0 - g**2 / 2.0, -1.0 - g**2 / 2.0])
        for j in (1, 2, 3):
            residuals[j].append(abs(exact[j] - taylor[j]))
    assert worst_closed < 1e-12
    assert worst_q1 < 1e-12
    slopes = [fit_loglog_slope(LADDER, np.array(residuals[j])) for j in (1, 2, 3)]
    assert min(slopes) >= 2.8
    print(f"[PASS] criterion 9 q-coefficients: closed-form match {worst_closed:.2e}, residual slopes {[f'{x:.2f}' for x in slopes]}")


def test_criterion_10_quartic_identity_and_moment_form():
    rng = np.random.default_rng(110)
    worst_q = worst_m = 0.0
    for _ in range(100):
        g = rng.uniform(0.005, 0.4)
        tau = rng.uniform(0.0, 20.0)
        p = OscillatorParams(1.0, 1.0, g, g)
        grid = gaussian_grid(vacuum(), p, [tau])
        a_f, b_f = grid.a_f[0], grid.b_f[0]
        dn, dn2 = number_moments(a_f, b_f)
        m = b_f.conj().T @ b_f
        quartic = float(np.real(np.trace(m @ m)))
        identity_rhs = 0.5 * (dn2 - 2.0 * dn - dn**2)
        worst_q = max(worst_q, abs(quartic - identity_rhs))
        f_inv2, *_ = vacuum_fidelity_moments(p, tau)
        det_route = float(np.real(np.linalg.det(np.eye(2) + m)))
        worst_m = max(worst_m, abs(f_inv2 - det_route))
    assert worst_q < 1e-10
    assert worst_m < 1e-10
    print(f"[PASS] criterion 10 quartic identity {worst_q:.2e}, moment-form fidelity {worst_m:.2e}")
