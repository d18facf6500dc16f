"""The four benchmark workloads: seeded inputs, operations and correctness checks.

Every workload is a list of operations built once from ``--seed`` during
set-up and then run in a closed loop (one client, the next operation starts
when the previous one returns).  An operation returns a *signature*: the
verdicts, subspace dimensions and eigenvalues it produced.  ``check`` compares
a signature with what the input was built to give (by construction) and, where
``reference.json`` holds an entry for it, with the values recorded there.  A
check that fails, or an operation that raises, is a failed operation.

All library calls go through module attributes (``pn.check_impedance``,
``pn.io.node_to_dict``...) looked up at call time, so the layer tracer sees
them when it is installed.
"""

import contextlib
import io as _stdio
import json
import os
import subprocess
import sys

import numpy as np

import passivenode as pn
import passivenode.cli  # noqa: F401  (binds pn.cli; the package does not import it)
import passivenode.io  # noqa: F401

#: relative and absolute tolerance on reference eigenvalues
REF_RTOL = 1e-6
REF_ATOL = 1e-7
#: Cayley round trips must reproduce the realization to this relative error
CAYLEY_RTOL = 1e-10
#: Laguerre coefficients must follow the discrete recursion to this error
LAGUERRE_TOL = 1e-6
#: the seed reference.json was recorded for (node-suite and simulate inputs)
DEFAULT_SEED = 0

HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    """An operation's output is not what its input guarantees."""


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


class Op:
    """One timed operation: ``run()`` returns a signature, ``check`` judges it."""

    def __init__(self, name, cls, run, check=None):
        self.name = name
        self.cls = cls  # "smallest", "largest" or "" (size class of the input)
        self.run = run
        self.check = check or (lambda sig: None)


# ---------------------------------------------------------------------------
# seeded node generators
# ---------------------------------------------------------------------------

def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def passive_node(rng, n, m=2, margin=0.05, weight=False):
    """Impedance-passive node read off a positive-definite bounded form P.

    [[-A-A*, C*-B], [C-B*, D+D*]] = P, plus independent skew parts in A and D.
    With ``weight`` the realization is pulled back to coordinates with a
    random positive-definite W, which leaves every verdict unchanged.
    """
    L = _cplx(rng, n + m, n + m)
    P = L @ L.conj().T + margin * np.eye(n + m)
    S = _cplx(rng, n, n)
    A = 0.5 * (S - S.conj().T) - 0.5 * P[:n, :n]
    B = _cplx(rng, n, m)
    C = (P[:n, n:] + B).conj().T
    Sd = _cplx(rng, m, m)
    D = 0.5 * P[n:, n:] + 0.5 * (Sd - Sd.conj().T)
    if not weight:
        return pn.StateSpaceNode(A, B, C, D)
    R = _cplx(rng, n, n)
    W = R @ R.conj().T + 0.5 * np.eye(n)
    Lh = np.linalg.cholesky(W).conj().T
    return pn.StateSpaceNode(np.linalg.solve(Lh, A) @ Lh, np.linalg.solve(Lh, B),
                             C @ Lh, D, W=W)


def nonpassive_node(rng, n, m=2):
    """Passive node shifted by -delta*I with delta above half of max eig(D+D*)."""
    node = passive_node(rng, n, m)
    D = np.asarray(node.D)
    delta = 0.5 * np.linalg.eigvalsh(D + D.conj().T)[-1] + 0.05 + rng.uniform(0.0, 2.0)
    return pn.shift_feedthrough(node, -delta * np.eye(m))


def almost_passive_node(rng, n, m=2):
    """(node, E): a passive node shifted by -E, with max eig(E) >= 0.1."""
    base = passive_node(rng, n, m)
    H = _cplx(rng, m, m)
    E = 0.5 * (H + H.conj().T) + 0.3 * np.eye(m)
    top = np.linalg.eigvalsh(E)[-1]
    if top <= 0.1:
        E = E + (0.1 - top) * np.eye(m)
    return pn.shift_feedthrough(base, -E), E


def esad_node(rng, n, m=2):
    """Essentially skew-adjoint dissipative colocated node: A = S - G G^T / 2, C = B*."""
    S = _cplx(rng, n, n)
    G = rng.standard_normal((n, n))
    A = 0.5 * (S - S.conj().T) - 0.5 * (G @ G.T)
    B = _cplx(rng, n, m)
    return pn.StateSpaceNode(A, B, B.conj().T, 0.3 * rng.standard_normal((m, m)))


def dark_mode_node(rng, n, m=2):
    """(node, E, omega): almost-passive node of size n-1 plus a decoupled
    undamped mode at i*omega that is neither observed nor actuated."""
    base, E = almost_passive_node(rng, n - 1, m)
    omega = rng.uniform(0.4, 3.0)
    A = np.zeros((n, n), dtype=complex)
    A[:n - 1, :n - 1] = base.A
    A[n - 1, n - 1] = 1j * omega
    node = pn.StateSpaceNode(A, np.vstack([base.B, np.zeros((1, m))]),
                             np.hstack([base.C, np.zeros((m, 1))]), base.D)
    return node, E, omega


def scattering_nonpassive_node(rng, n, m=2):
    """Passive node with 5*I added to D: ||G(10)|| > 1, so not scattering passive."""
    return pn.shift_feedthrough(passive_node(rng, n, m), 5.0 * np.eye(m))


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def compare_signature(sig, ref, where):
    """Exact match of verdicts, dimensions and exit codes; eigenvalues and
    real parts (keys ending in ``_eig``/``max_real``) to REF_RTOL/REF_ATOL."""
    expect(set(sig) == set(ref), f"{where}: keys {sorted(sig)} != reference {sorted(ref)}")
    for key, want in ref.items():
        got = sig[key]
        if key.endswith("_eig") or key.endswith("max_real"):
            ok = abs(got - want) <= REF_RTOL * abs(want) + REF_ATOL
        else:
            ok = got == want
        expect(ok, f"{where}: {key} = {got!r}, reference {want!r}")


def _with_reference(check, ref, where):
    """Chain a by-construction check with a reference comparison (if any)."""
    if ref is None:
        return check

    def both(sig):
        check(sig)
        compare_signature(sig, ref, where)
    return both


# ---------------------------------------------------------------------------
# beam-verdict
# ---------------------------------------------------------------------------

BEAM_MODES = (8, 24, 50, 100)
#: verdicts per cycle at each size; 3:4:2:1 puts the median op mid-way into the
#: n = 46 class, so the median does not jump between classes from run to run
BEAM_WEIGHTS = (3, 4, 2, 1)


def report_signature(report):
    d = report.as_dict()
    return {
        "verdict": d["verdict"],
        "cweak": d["cweak_holds"],
        "bweak": d["bweak_holds"],
        "dim_unobservable": d["dim_unobservable"],
        "dim_uncontrollable_dual": d["dim_uncontrollable_dual"],
        "dim_unitary": d["dim_unitary"],
        "closed_loop_max_real": d["closed_loop_max_real"],
    }


def beam_verdict_op(n_modes):
    node, E_min = pn.beam_model(pn.BeamParameters(n_modes=n_modes))
    report, _ = pn.stability_verdict(node, E_min, kappa=1.0)
    return report_signature(report)


def check_beam_verdict(sig):
    expect(sig["verdict"] == "StronglyStable", f"beam verdict {sig['verdict']}")
    expect(sig["closed_loop_max_real"] < 0.0, "beam closed loop not Hurwitz")


def beam_verdict(seed, reference):
    rng = np.random.default_rng(seed)
    cycle = [nm for nm, w in zip(BEAM_MODES, BEAM_WEIGHTS) for _ in range(w)]
    cycle = [cycle[i] for i in rng.permutation(len(cycle))]
    # n = 98, not n = 198, is the large class: a 3-4 s n = 198 verdict gets
    # about five samples per run and no speed probe can run inside it, which
    # leaves its median the least steady figure (13.6 % IQR over ten runs);
    # n = 198 still dominates ops_per_s.
    classes = {BEAM_MODES[0]: "smallest", BEAM_MODES[2]: "largest"}
    ops = []
    for nm in cycle:
        ref = reference["beam"][str(nm)] if reference else None
        ops.append(Op(f"verdict.n{2 * nm - 2}", classes.get(nm, ""),
                      lambda nm=nm: beam_verdict_op(nm),
                      _with_reference(check_beam_verdict, ref, f"beam n_modes={nm}")))
    return ops


# ---------------------------------------------------------------------------
# node-suite
# ---------------------------------------------------------------------------

SUITE_SIZES = (4, 8, 16)
SUITE_KINDS = ("passive", "nonpassive", "weighted", "almost", "esad", "dark")
SUITE_PER_CELL = 12  # nodes per (size, kind): 216 per pass


def cert_signature(cert):
    return cert.verdict.value, float(cert.min_eigenvalue)


def _rel_err(M, ref):
    M, ref = np.asarray(M), np.asarray(ref)
    return np.linalg.norm(M - ref, 2) / (1.0 + np.linalg.norm(ref, 2))


def suite_op(node, kind, E, omega, tracer):
    """Certification, Cayley round trip, minimal E, verdict and io round trip."""
    sig = {"kind": kind}
    imp = pn.check_impedance(node)
    sig["impedance"], sig["impedance_eig"] = cert_signature(imp)
    sig["scattering"], sig["scattering_eig"] = cert_signature(pn.check_scattering(node))

    disc = pn.internal_cayley(node, 1.0)
    dcert = pn.check_discrete_passivity(disc, "Impedance")
    sig["discrete"], sig["discrete_eig"] = cert_signature(dcert)
    back = pn.inverse_cayley(disc)
    sig["cayley_err"] = max(_rel_err(getattr(back, M), ref)
                            for M, ref in zip("ABCD", node.orthonormal))

    if kind == "esad":
        E = pn.minimal_E_esad(node)
        sig["shifted"] = pn.check_impedance(pn.shift_feedthrough(node, E)).verdict.value
        below = E - 1e-3 * np.eye(node.m)
        sig["below"] = pn.check_impedance(pn.shift_feedthrough(node, below)).verdict.value
    if E is not None:
        _, _, kappa0 = pn.positive_part(E)
        kappa = 1.0 if np.isinf(kappa0) else 0.9 * kappa0
        report, _ = pn.stability_verdict(node, E, kappa)
        sig.update(report_signature(report))
        if omega is not None:
            sig["dark_residual"] = min(
                (abs(lam - 1j * omega) for lam in report.closed_loop_imaginary_spectrum),
                default=np.inf)

    text = pn.io.dumps_canonical(pn.io.node_to_dict(node))
    if tracer is not None:
        tracer.add("io.bytes_in", len(text))
    again = pn.io.node_from_dict(json.loads(text))
    sig["io_identical"] = (
        pn.io.dumps_canonical(pn.io.node_to_dict(again)) == text
        and all(np.array_equal(getattr(again, M), getattr(node, M)) for M in "ABCDW"))
    return sig


def check_suite(sig):
    kind = sig["kind"]
    if kind in ("passive", "weighted"):
        expect(sig["impedance"] == "Passive", f"{kind} node certified {sig['impedance']}")
    if kind == "nonpassive":
        expect(sig["impedance"] == "NotPassive", "non-passive node certified Passive")
    expect(sig["discrete"] == sig["impedance"], "Cayley image disagrees with impedance verdict")
    expect(sig["cayley_err"] <= CAYLEY_RTOL, f"Cayley round trip error {sig['cayley_err']:.2e}")
    if kind == "esad":
        expect(sig["shifted"] == "Passive", "minimal E does not make Sigma_E passive")
        expect(sig["below"] == "NotPassive", "E - 1e-3 I still passive: E not minimal")
    if kind == "almost":
        expect(sig["verdict"] == "StronglyStable", f"almost-passive verdict {sig['verdict']}")
        expect(sig["closed_loop_max_real"] < 0.0, "almost-passive closed loop not Hurwitz")
    if kind == "dark":
        expect(sig["verdict"] == "NotStable", f"dark-mode verdict {sig['verdict']}")
        expect(sig["dark_residual"] <= 1e-8, "dark mode lost its imaginary eigenvalue")
    expect(sig["io_identical"], "io round trip not bit-identical")


def suite_reference_view(sig):
    """The part of a node-suite signature reference.json records."""
    return {k: v for k, v in sig.items() if k not in ("cayley_err", "dark_residual")}


def node_suite(seed, reference, tracer=None):
    rng = np.random.default_rng(seed)
    refs = reference["node_suite"] if reference and seed == DEFAULT_SEED else None
    ops = []
    i = 0
    for _ in range(SUITE_PER_CELL):
        for kind in SUITE_KINDS:
            for n in SUITE_SIZES:
                E = omega = None
                if kind == "passive":
                    node = passive_node(rng, n)
                elif kind == "weighted":
                    node = passive_node(rng, n, weight=True)
                elif kind == "nonpassive":
                    node = nonpassive_node(rng, n)
                elif kind == "almost":
                    node, E = almost_passive_node(rng, n)
                elif kind == "esad":
                    node = esad_node(rng, n)
                else:
                    node, E, omega = dark_mode_node(rng, n)
                cls = {SUITE_SIZES[0]: "smallest", SUITE_SIZES[-1]: "largest"}.get(n, "")
                check = check_suite
                if refs is not None:
                    ref = refs[i]

                    def check(sig, ref=ref, i=i):
                        check_suite(sig)
                        compare_signature(suite_reference_view(sig), ref, f"node {i}")
                ops.append(Op(f"{kind}.n{n}", cls,
                              lambda a=(node, kind, E, omega): suite_op(*a, tracer), check))
                i += 1
    return ops


# ---------------------------------------------------------------------------
# simulate-audit
# ---------------------------------------------------------------------------

SIM_T, SIM_STEPS = 4.0, 1000
LAG_K, LAG_T, LAG_STEPS = 8, 30.0, 12000


class CountingInput:
    """Sum of three cosines u(t) that counts its own evaluations."""

    def __init__(self, rng, m):
        self.w = rng.uniform(0.3, 2.0, size=3)
        self.ph = rng.uniform(0.0, 2.0 * np.pi, size=(3, m))
        self.amp = rng.uniform(0.2, 1.0, size=(3, m))
        self.calls = 0

    def value(self, t):
        return (self.amp[0] * np.cos(self.w[0] * t + self.ph[0])
                + self.amp[1] * np.cos(self.w[1] * t + self.ph[1])
                + self.amp[2] * np.cos(self.w[2] * t + self.ph[2]))

    def __call__(self, t):
        self.calls += 1
        return self.value(t)


class DecayingInput(CountingInput):
    """a cos(w t) exp(-t) on one channel: decays within the Laguerre window."""

    def value(self, t):
        return np.atleast_1d(self.amp[0, 0] * np.cos(self.w[0] * t) * np.exp(-t))


class SimStats:
    """Steps integrated and input evaluations made by callable-input ops."""

    def __init__(self):
        self.steps = 0
        self.callable_steps = 0
        self.u_evals = 0


def _audited(node, z0, u, T, steps, stats, E=None):
    traj = pn.simulate(node, z0, u, T, steps=steps)
    audit = pn.energy_audit(traj, W=node.W, E=E)
    stats.steps += steps
    if isinstance(u, CountingInput):
        stats.callable_steps += steps
        stats.u_evals += u.calls
        u.calls = 0
    return traj, audit


def sim_callable_op(node, u, stats):
    _, audit = _audited(node, np.zeros(node.n), u, SIM_T, SIM_STEPS, stats)
    return {"passed": bool(audit.passed), "min_defect": audit.min_defect}


def sim_sampled_op(node, samples, stats):
    _, audit = _audited(node, np.zeros(node.n), samples, SIM_T, SIM_STEPS, stats)
    return {"passed": bool(audit.passed), "min_defect": audit.min_defect}


def sim_beam_op(closed, z0, u, stats):
    _, audit = _audited(closed, z0, u, SIM_T, SIM_STEPS, stats)
    return {"passed": bool(audit.passed), "min_defect": audit.min_defect}


def sim_adversarial_op(node, stats):
    z0, u0, _ = pn.adversarial_input(node, amplitude=2.0)
    _, audit = _audited(node, z0, lambda t: u0, 0.2, 200, stats)
    return {"passed": bool(audit.passed), "min_defect": audit.min_defect}


def sim_laguerre_op(node, disc, u, stats):
    traj, _ = _audited(node, np.zeros(node.n), u, LAG_T, LAG_STEPS, stats)
    y = traj.outputs[:, 0]
    h = LAG_T / LAG_STEPS

    def y_func(t):
        return np.atleast_1d(y[int(round(t / h))])

    ucoef = pn.laguerre_coefficients(u.value, 1.0, LAG_K, LAG_T, steps=LAG_STEPS)
    ycoef = pn.laguerre_coefficients(y_func, 1.0, LAG_K, LAG_T, steps=LAG_STEPS)
    ypred = pn.discrete_response(disc, ucoef)
    return {"laguerre_err": float(np.max(np.abs(ycoef - ypred)))}


def simulate_audit(seed, reference, stats):
    rng = np.random.default_rng(seed)
    beam, _ = pn.beam_model(pn.BeamParameters(n_modes=8))
    closed = pn.stabilizing_feedback(beam, np.zeros((2, 2)), 1.0).closed_loop
    scale = 1.0 + np.abs(np.diag(np.asarray(beam.W)))
    ops = []

    def passed(sig):
        expect(sig["passed"], f"audit failed on a passive node (defect {sig.get('min_defect')})")

    def adversarial_check(sig):
        expect(not sig["passed"] and sig["min_defect"] < -1e-3,
               "adversarial input did not expose the passivity violation")

    def laguerre_check(sig):
        expect(sig["laguerre_err"] <= LAGUERRE_TOL,
               f"Laguerre coefficients off by {sig['laguerre_err']:.2e}")

    for _ in range(6):
        node = passive_node(rng, 4)
        ops.append(Op("callable.n4", "smallest",
                      lambda node=node, u=CountingInput(rng, 2): sim_callable_op(node, u, stats),
                      passed))
        node = passive_node(rng, 4, weight=True)
        ops.append(Op("callable.weighted.n4", "",
                      lambda node=node, u=CountingInput(rng, 2): sim_callable_op(node, u, stats),
                      passed))
        node = passive_node(rng, 4)
        grid = np.linspace(0.0, SIM_T, SIM_STEPS + 1)
        samples = np.array([CountingInput(rng, 2).value(t) for t in grid])
        ops.append(Op("sampled.n4", "",
                      lambda node=node, s=samples: sim_sampled_op(node, s, stats), passed))
        z0 = rng.standard_normal(closed.n) / scale
        ops.append(Op("beam.n14", "largest",
                      lambda z0=z0, u=CountingInput(rng, 2): sim_beam_op(closed, z0, u, stats),
                      passed))
        node = nonpassive_node(rng, 4)
        ops.append(Op("adversarial.n4", "",
                      lambda node=node: sim_adversarial_op(node, stats), adversarial_check))
    node = passive_node(rng, 4, m=1, margin=1.0).orthonormalized()
    disc = pn.internal_cayley(node, 1.0)
    ops.append(Op("laguerre.n4", "",
                  lambda u=DecayingInput(rng, 1): sim_laguerre_op(node, disc, u, stats),
                  laguerre_check))
    return ops


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

#: ``python -m passivenode.cli ARGV`` plus a pure-Python speed probe before
#: and after the verb, reported on the last line of stderr
CLI_CHILD = """
import runpy, sys, time
def probe():
    t = time.perf_counter()
    s = 0
    for i in range(100000):
        s += i * i
    return time.perf_counter() - t
before = probe()
code = 0
try:
    runpy.run_module("passivenode.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
after = probe()
sys.stderr.write(f"\\nprobe {before!r} {after!r}\\n")
sys.exit(code)
"""


class CliSubprocess:
    """Runs each verb as one cold CLI process: fresh interpreter, import, verb.

    The child's own probe times scale its wall time to nominal speed: the
    benchmark's probe runs in another process and does not track the child's
    CPU.
    """

    NOMINAL_S = 0.007  # CLI_CHILD probe time on the reference machine when quiet

    def __init__(self):
        self.probes = None

    def __call__(self, argv):
        self.probes = None
        proc = subprocess.run([sys.executable, "-c", CLI_CHILD, *argv],
                              capture_output=True, text=True, timeout=150)
        tag, before, after = proc.stderr.strip().splitlines()[-1].split()
        expect(tag == "probe", "CLI child did not report its probe")
        self.probes = (float(before), float(after))
        return proc.returncode, proc.stdout

    def nominal(self, seconds):
        """Wall time of the last call, less its probes, at nominal speed."""
        if self.probes is None:
            return seconds
        before, after = self.probes
        return (seconds - before - after) * self.NOMINAL_S / (0.5 * (before + after))


def cli_inprocess(argv):
    """The same verb through cli.main(argv) in this process (traced runs)."""
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_stdio.StringIO()):
        code = pn.cli.main(argv)
    return code, out.getvalue()


def _matrix(doc):
    return np.array([[complex(re, im) for re, im in row] for row in doc])


def cli_oneshot(seed, reference, workdir, runner):
    """Node files are written to ``workdir``; ``runner`` executes one argv."""
    rng = np.random.default_rng(seed)

    def save(name, node):
        path = os.path.join(workdir, name)
        pn.io.save_node(node, path)
        return path

    beam = save("beam198.json", pn.beam_model(pn.BeamParameters(n_modes=100))[0])
    passive = save("passive.json", passive_node(rng, 8))
    scat = save("scattering_nonpassive.json", scattering_nonpassive_node(rng, 8))
    esad = esad_node(rng, 8)
    esad_path = save("esad.json", esad)
    almost, E = almost_passive_node(rng, 8)
    almost_path = save("almost.json", almost)
    e_path = os.path.join(workdir, "E.json")
    with open(e_path, "w", encoding="utf-8") as fh:
        fh.write(pn.io.dumps_canonical(pn.io.matrix_to_json(E)))
    kappa = 0.9 * pn.positive_part(E)[2]
    expected_A = np.asarray(pn.stabilizing_feedback(almost, E, kappa).closed_loop.A)
    expected_E = -0.5 * (np.asarray(esad.D) + np.asarray(esad.D).conj().T)
    ref = reference["cli"] if reference else {}

    def cert(doc):
        return {"verdict": doc["verdict"], "min_eig": doc["min_eigenvalue"]}

    def minimal_e(doc):
        return {"E_err": _rel_err(_matrix(doc["E"]), expected_E)}

    def cayley(doc):
        return {"verdict": doc["certificate"]["verdict"]}

    def feedback(doc):
        return {"A_err": _rel_err(_matrix(doc["closed_loop"]["A"]), expected_A)}

    def stability(doc):
        return {"verdict": doc["verdict"], "closed_loop_max_real": doc["closed_loop_max_real"]}

    def simulate(doc):
        return {"passed": doc["passed"]}

    def beam_verb(doc):
        d = doc["stability"]
        return {"verdict": d["verdict"], "cweak": d["cweak_holds"], "bweak": d["bweak_holds"],
                "dim_unobservable": d["dim_unobservable"],
                "dim_uncontrollable_dual": d["dim_uncontrollable_dual"],
                "dim_unitary": d["dim_unitary"],
                "closed_loop_max_real": d["closed_loop_max_real"]}

    def want(code, **fields):
        def check(sig):
            expect(sig["exit"] == code, f"exit code {sig['exit']}, expected {code}")
            for key, value in fields.items():
                expect(sig[key] == value, f"{key} = {sig[key]!r}, expected {value!r}")
        return check

    def small_err(key):
        def check(sig):
            expect(sig["exit"] == 0, f"exit code {sig['exit']}")
            expect(sig[key] <= 1e-9, f"{key} = {sig[key]:.2e}")
        return check

    def hurwitz(sig):
        want(0, verdict="StronglyStable")(sig)
        expect(sig["closed_loop_max_real"] < 0.0, "closed loop not Hurwitz")

    script = [
        ("check198.impedance", "largest", ["check", beam, "--kind", "impedance"], cert, None),
        ("check.impedance", "smallest", ["check", passive, "--kind", "impedance"], cert,
         want(0, verdict="Passive")),
        ("minimal-e", "smallest", ["minimal-e", esad_path, "--method", "esad"], minimal_e,
         small_err("E_err")),
        ("cayley", "smallest", ["cayley", passive, "--kind", "impedance"], cayley,
         want(0, verdict="Passive")),
        ("feedback", "smallest", ["feedback", almost_path, "--kappa", repr(kappa), "--e-matrix", e_path],
         feedback, small_err("A_err")),
        ("check198.scattering", "largest", ["check", beam, "--kind", "scattering"], cert, None),
        ("check.scattering", "smallest", ["check", scat, "--kind", "scattering"], cert,
         want(2, verdict="NotPassive")),
        ("stability", "smallest", ["stability", almost_path, "--kappa", repr(kappa), "--e-matrix", e_path],
         stability, hurwitz),
        ("simulate", "", ["simulate", passive, "--steps", "2000"], simulate,
         want(0, passed=True)),
        ("beam", "", ["beam", "--n-modes", "8", "--kappa", "1"], beam_verb, hurwitz),
    ]
    ops = []
    for name, cls, argv, parse, check in script:
        def run(argv=argv, parse=parse):
            code, out = runner(argv)
            sig = parse(json.loads(out)) if out else {}
            sig["exit"] = code
            return sig
        check = check or (lambda sig: None)
        if name in ref:
            check = _with_reference(check, ref[name], f"cli {name}")
        elif name == "beam" and reference:
            check = _with_reference(check, dict(reference["beam"]["8"], exit=0), "cli beam")
        ops.append(Op(name, cls, run, check))
    return ops

