"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test prints a single PASS/FAIL line for its criterion (visible with
pytest -v -s or in captured output).  Tolerances are stated inline and are
not loosened anywhere else.
"""

import numpy as np

import passivenode as pn
from passivenode import cayley, linalg, passivity, second_order, sim
from passivenode.stability import StabilityVerdict

from conftest import (
    esad_colocated_node,
    random_almost_passive,
    random_contraction_colocated,
    random_mixed_node,
    random_nonpassive_node,
    random_passive_node,
    random_second_order,
    selfadjoint_colocated_node,
)


def _report(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_passivity_test_equivalence():
    """Continuous, discrete-Cayley and reciprocal verdicts agree."""
    disagreements = 0
    for seed in range(50):
        node = random_mixed_node(seed)
        v_cont = pn.check_impedance(node).passive
        disc = pn.internal_cayley(node, 1.0)
        v_disc = pn.check_discrete_passivity(disc, "Impedance").passive
        v_rec = pn.check_impedance_reciprocal(
            node, np.zeros((node.m, node.m)), 0.0
        ).passive
        per_point = []
        for s in (1.0, 2.0 + 1.0j, 2.0 - 1.0j, 10.0):
            form = passivity.impedance_form_at(node, s)
            vals = np.linalg.eigvalsh(form)
            per_point.append(vals[0] >= -linalg.psd_tol(vals))
        if not (v_cont == v_disc == v_rec) or set(per_point) != {v_cont}:
            disagreements += 1
    _report(1, disagreements == 0,
            "continuous / discrete / reciprocal verdicts agree on 50 nodes, "
            "invariant over 4 test points")


def test_criterion_2_contraction_colocated_passive():
    """Contraction generator + C=B* + D+D*>=0 implies impedance passive."""
    passed = sum(
        pn.check_impedance(random_contraction_colocated(seed)).passive
        for seed in range(50)
    )
    _report(2, passed == 50, f"{passed}/50 contraction colocated nodes certified passive")


def test_criterion_3_diagonal_transform():
    """Diagonal transform yields certified scattering-passive contractions."""
    rng = np.random.default_rng(33)
    ok = True
    for seed in range(20):
        node = random_passive_node(seed, weight=(seed % 3 == 0))
        for k in (0.5, 1.0, 3.0):
            sct = pn.diagonal_transform(node, k)
            if not pn.check_scattering(sct).passive:
                ok = False
            pts = [complex(rng.uniform(0.02, 8.0), rng.uniform(-8.0, 8.0))
                   for _ in range(100)]
            for s in pts:
                if np.linalg.norm(pn.eval_transfer(sct, s), 2) > 1.0 + 1e-9:
                    ok = False
    # signal-recombination identity ||u^s||^2 - ||y^s||^2 = 2 Re <y, u>
    for _ in range(50):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for k in (0.5, 1.0, 3.0):
            us = np.sqrt(k / 2.0) * (u / k + y)
            ys = np.sqrt(k / 2.0) * (u / k - y)
            lhs = np.linalg.norm(us) ** 2 - np.linalg.norm(ys) ** 2
            if abs(lhs - 2.0 * np.real(np.vdot(y, u))) > 1e-12:
                ok = False
    _report(3, ok, "scattering certificates, contractive transfers on 100-point "
            "grids, signal identity to 1e-12")


def test_criterion_4_feedback_route_equivalence():
    """Scattering-route closed loop equals direct output feedback."""
    ok = True
    for seed in range(50):
        node, E = random_almost_passive(seed, weight=(seed % 4 == 0))
        _, c, kappa0 = pn.positive_part(E)
        kappa = 1.0 if np.isinf(kappa0) else 0.9 * kappa0
        syn = pn.stabilizing_feedback(node, E, kappa)
        direct = pn.output_feedback(node, -kappa * np.eye(node.m))
        err = max(
            np.linalg.norm(
                np.asarray(getattr(syn.closed_loop, M)) - np.asarray(getattr(direct, M)), 2
            )
            for M in "ABCD"
        )
        if err > 1e-9:
            ok = False
        diss = syn.closed_loop.dissipation_form()
        if np.linalg.eigvalsh(diss)[-1] > 1e-8 * (1.0 + np.linalg.norm(diss, 2)):
            ok = False
        for s in (1.0, 2.0 + 1.0j, 0.5 - 0.7j, 4.0):
            Gk = pn.eval_transfer(syn.closed_loop, s)
            Gs = pn.eval_transfer(syn.scattering_intermediate, s)
            ref = (syn.beta / syn.alpha) * np.eye(node.m) - Gs / syn.alpha**2
            if np.linalg.norm(Gk - ref, 2) > 1e-9:
                ok = False
    _report(4, ok, "closed loop via scattering route = direct feedback to 1e-9 "
            "on 50 nodes; contraction and transfer identities hold")


def test_criterion_5_minimal_shift_formulas():
    """Minimal-E formulas: s-independence, tightness, structured classes."""
    ok = True
    points = (1.0, 2.0 + 1.0j, 0.5 - 0.3j, 5.0, 3.0 + 2.0j)
    for seed in range(20):
        node = esad_colocated_node(seed)
        Es = [pn.minimal_E_esad(node, s) for s in points]
        if max(np.linalg.norm(Es[0] - E, 2) for E in Es[1:]) > 1e-8:
            ok = False
        skew = esad_colocated_node(seed, skew_only=True)
        E = pn.minimal_E_esad(skew, 1.3 + 0.2j)
        D = np.asarray(skew.D)
        if np.linalg.norm(2.0 * E + D + D.conj().T, 2) > 1e-10:
            ok = False
        sa = selfadjoint_colocated_node(seed)
        Es2 = [pn.minimal_E_selfadjoint(sa, s) for s in points]
        if max(np.linalg.norm(Es2[0] - E2, 2) for E2 in Es2[1:]) > 1e-8:
            ok = False
    for seed in range(20):
        plant = random_second_order(seed, with_B0=True)
        node7, E7 = pn.build_noncolocated(plant)
        if not pn.check_impedance(pn.shift_feedthrough(node7, E7)).passive:
            ok = False
        if pn.check_impedance(
            pn.shift_feedthrough(node7, E7 - 1e-3 * np.eye(node7.m))
        ).passive:
            ok = False
        plant8 = random_second_order(seed, with_C1=True)
        node8, E8 = pn.build_two_channel(plant8)
        if not pn.check_impedance(pn.shift_feedthrough(node8, E8)).passive:
            ok = False
        if pn.check_impedance(
            pn.shift_feedthrough(node8, E8 - 1e-3 * np.eye(node8.m))
        ).passive:
            ok = False
    _report(5, ok, "s-independence < 1e-8, skew-A feedthrough identity, and "
            "tightness of the structured shifts on 20 instances each")


def test_criterion_6_strong_stability():
    """Benchimol conditions force Hurwitz; dark modes persist."""
    ok = True
    for seed in range(50):
        node, E = random_almost_passive(seed)
        kappa = 0.9 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None))
        report, _ = pn.stability_verdict(node, E, kappa)
        if not (report.cweak_holds or report.bweak_holds):
            ok = False
        if report.closed_loop_max_real >= -1e-10:
            ok = False
    for seed in range(10):
        base, E = random_almost_passive(seed + 500)
        omega = 0.5 + 0.3 * seed
        n = base.n
        A = np.zeros((n + 1, n + 1), dtype=complex)
        A[:n, :n] = base.A
        A[n, n] = 1j * omega
        node = pn.StateSpaceNode(
            A,
            np.vstack([base.B, np.zeros((1, base.m))]),
            np.hstack([base.C, np.zeros((base.p, 1))]),
            base.D,
        )
        kappa = 0.9 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None))
        report, _ = pn.stability_verdict(node, E, kappa)
        if report.verdict is not StabilityVerdict.NOT_STABLE:
            ok = False
        else:
            resid = min(
                abs(lam - 1j * omega) for lam in report.closed_loop_imaginary_spectrum
            )
            if resid > 1e-8:
                ok = False
    _report(6, ok, "50 certified nodes strictly Hurwitz (< -1e-10); 10 dark "
            "modes keep their imaginary eigenvalue to 1e-8")


def test_criterion_7_beam_example():
    """Free-free beam: double zero, Hurwitz closed loop, monotone energy."""
    params = pn.BeamParameters(rho_a=1.0, EI=1.0, EbarI=0.01, n_modes=12)
    node, E = pn.beam_model(params)
    ev = np.linalg.eigvals(np.asarray(node.A))
    double_zero = np.sum(np.abs(ev) < 1e-9) >= 2
    report, syn = pn.stability_verdict(node, E, 1.0)
    hurwitz = report.closed_loop_hurwitz
    betas, _ = second_order.beam_frequencies(params.n_modes - 2)
    freq_ok = np.max(np.abs(np.cos(2.0 * betas) - 1.0 / np.cosh(2.0 * betas))) < 1e-8
    rng = np.random.default_rng(7)
    z0 = rng.standard_normal(node.n) * np.concatenate(
        [1.0 / (1.0 + np.diag(np.asarray(node.W))[: node.n - 2].real), [1.0, 1.0]]
    )
    traj = sim.simulate(
        syn.closed_loop, z0, lambda t: np.zeros(2), 50.0, steps=20000
    )
    energy = np.array([node.weighted_norm_sq(z) for z in traj.states])
    monotone = np.max(np.diff(energy)) <= 1e-6 * max(1.0, energy[0])
    ok = double_zero and hurwitz and freq_ok and monotone
    _report(7, ok, "double zero eigenvalue, Hurwitz closed loop, energy "
            "non-increasing over T=50, frequencies to 1e-8")


def test_criterion_8_energy_audits():
    """Passive audits stay nonnegative; violations are demonstrable."""
    ok = True
    worst = 0.0
    for seed in range(100):
        node = random_passive_node(seed, weight=(seed % 5 == 0))
        rng = np.random.default_rng(seed + 5000)
        w = rng.uniform(0.3, 2.0, size=3)
        ph = rng.uniform(0.0, 2.0 * np.pi, size=(3, node.m))
        amp = rng.uniform(0.2, 1.0, size=(3, node.m))
        u = lambda t: sum(amp[i] * np.cos(w[i] * t + ph[i]) for i in range(3))
        traj = sim.simulate(node, np.zeros(node.n), u, 3.0, steps=600)
        audit = sim.energy_audit(traj, W=node.W)
        worst = min(worst, audit.min_defect)
    if worst < -1e-6:
        ok = False
    for seed in range(20):
        node = random_nonpassive_node(seed)
        cert = pn.check_impedance(node)
        if cert.passive:
            ok = False
            continue
        z0, u0, lam = pn.adversarial_input(node, amplitude=2.0)
        traj = sim.simulate(node, z0, lambda t: u0, 0.2, steps=200)
        audit = sim.energy_audit(traj, W=node.W)
        if audit.min_defect >= -1e-3:
            ok = False
    _report(8, ok, f"100 passive audits (worst defect {worst:.2e} >= -1e-6); "
            "20 violations demonstrated below -1e-3")


def test_criterion_9_cayley_roundtrip_and_laguerre():
    """Cayley round-trips to 1e-10; Laguerre coefficient correspondence."""
    ok = True
    for seed in range(20):
        node = random_passive_node(seed, weight=(seed % 2 == 0)).orthonormalized()
        for alpha in (1.0, 1.5 + 0.4j):
            disc = pn.internal_cayley(node, alpha)
            back = pn.inverse_cayley(disc)
            err = max(
                np.linalg.norm(np.asarray(getattr(node, M)) - np.asarray(getattr(back, M)), 2)
                for M in "ABCD"
            )
            if err > 1e-10:
                ok = False
    # input/output Laguerre coefficients follow the discrete recursion
    node = random_passive_node(11, n=4, m=1).orthonormalized()
    disc = pn.internal_cayley(node, 1.0)
    K, T, steps = 64, 80.0, 48000
    h = T / steps
    inputs = [
        lambda t: np.atleast_1d(np.sin(2.0 * t) * t**2 * np.exp(-0.7 * t)),
        lambda t: np.atleast_1d(np.exp(-0.5 * t) * (1.0 + t)),
        lambda t: np.atleast_1d(np.cos(3.0 * t) * np.exp(-t)),
        lambda t: np.atleast_1d(t * np.exp(-0.4 * t)),
        lambda t: np.atleast_1d(np.sin(t) ** 2 * np.exp(-0.6 * t)),
    ]
    worst = 0.0
    for u in inputs:
        traj = sim.simulate(node, np.zeros(node.n), u, T, steps=steps)
        y = traj.outputs[:, 0]

        def y_func(t, y=y):
            return np.atleast_1d(y[int(round(t / h))])

        ucoef = cayley.laguerre_coefficients(u, 1.0, K, T, steps=steps)
        ycoef = cayley.laguerre_coefficients(y_func, 1.0, K, T, steps=steps)
        ypred = cayley.discrete_response(disc, ucoef)
        worst = max(worst, float(np.max(np.abs(ycoef - ypred))))
    if worst > 1e-6:
        ok = False
    _report(9, ok, f"round-trip < 1e-10 on 20 nodes x 2 alphas; coefficient "
            f"correspondence error {worst:.2e} <= 1e-6 at K=64 on 5 inputs")
