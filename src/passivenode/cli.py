"""Command-line interface.

Verbs:

    check      certify impedance/scattering passivity of a node file
    minimal-e  compute a minimal impedance shift for a structured node
    cayley     internal Cayley transform (or its inverse) of a node file
    feedback   stabilizing static output feedback synthesis
    stability  strong-stability analysis of the closed loop
    simulate   RK4 simulation with an energy audit; optional CSV export
    beam       build the free-free beam example node

Results are printed as canonical JSON.  Exit status: 0 for a positive
verdict (or plain success), 2 for a negative verdict, 1 for errors.
"""

import argparse
import json
import sys

import numpy as np

from . import io, passivity, second_order, sim, stability
from .cayley import check_discrete_passivity, internal_cayley, inverse_cayley
from .errors import ParseError, PassiveNodeError
from .feedback import stabilizing_feedback

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def _emit(doc, out=None):
    text = io.dumps_canonical(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _complex_arg(text):
    """Parse 're' or 're,im' into a complex number."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"cannot parse complex value {text!r}")


def _cmd_check(args):
    node = io.load_node(args.node)
    pts = [complex(s) for s in map(_complex_arg, args.points)] if args.points else None
    if args.kind == "impedance":
        cert = passivity.check_impedance(node, test_points=pts)
    else:
        cert = passivity.check_scattering(node, test_points=pts)
    _emit(cert.as_dict(), args.out)
    return EXIT_OK if cert.passive else EXIT_NEGATIVE


def _cmd_minimal_e(args):
    node = io.load_node(args.node)
    if args.method == "colocated":
        E = passivity.minimal_E_colocated_at(node, args.omega)
    elif args.method == "esad":
        E = passivity.minimal_E_esad(node, s=args.s)
    elif args.method == "selfadjoint":
        E = passivity.minimal_E_selfadjoint(node, s=args.s)
    else:  # feedthrough
        D = np.asarray(node.D)
        E = -0.5 * (D + D.conj().T)
    Eplus, c, kappa0 = passivity.positive_part(E)
    doc = {
        "E": io.matrix_to_json(E),
        "E_plus": io.matrix_to_json(Eplus),
        "c": c,
        "kappa0": None if np.isinf(kappa0) else kappa0,
        "method": args.method,
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_cayley(args):
    if args.inverse:
        disc = io.load_discrete(args.node)
        node = inverse_cayley(disc)
        _emit(io.node_to_dict(node), args.out)
        return EXIT_OK
    node = io.load_node(args.node)
    disc = internal_cayley(node, alpha=args.alpha)
    doc = io.discrete_to_dict(disc)
    if args.kind:
        cert = check_discrete_passivity(disc, args.kind.capitalize())
        doc["certificate"] = cert.as_dict()
        _emit(doc, args.out)
        return EXIT_OK if cert.passive else EXIT_NEGATIVE
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_feedback(args):
    node = io.load_node(args.node)
    E = io.load_matrix(args.e_matrix, "E") if args.e_matrix else np.zeros(
        (node.m, node.m), dtype=complex
    )
    syn = stabilizing_feedback(node, E, args.kappa)
    doc = syn.as_dict()
    doc["closed_loop"] = io.node_to_dict(syn.closed_loop)
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_stability(args):
    node = io.load_node(args.node)
    E = io.load_matrix(args.e_matrix, "E") if args.e_matrix else np.zeros(
        (node.m, node.m), dtype=complex
    )
    report, syn = stability.stability_verdict(node, E, args.kappa)
    doc = report.as_dict()
    doc["synthesis"] = syn.as_dict()
    _emit(doc, args.out)
    positive = report.verdict in (
        stability.StabilityVerdict.STRONGLY_STABLE,
        stability.StabilityVerdict.WEAKLY_STABLE,
    )
    return EXIT_OK if positive else EXIT_NEGATIVE


def _cmd_simulate(args):
    node = io.load_node(args.node)
    E = io.load_matrix(args.e_matrix, "E") if args.e_matrix else None
    if args.adversarial:
        z0, u0, _ = sim.adversarial_input(node, E=E, amplitude=args.amplitude)
        u = lambda t: u0
    else:
        z0 = np.zeros(node.n, dtype=complex)
        if args.z0:
            try:
                entries = json.loads(args.z0)
            except json.JSONDecodeError as exc:
                raise ParseError(f"--z0: invalid JSON ({exc})") from exc
            z0 = io.vector_from_json(entries, "--z0", node.n)
        omega = args.input_omega
        amp = args.amplitude
        u = lambda t: amp * np.cos(omega * t) * np.ones(node.m)
    traj = sim.simulate(node, z0, u, args.t_final, steps=args.steps)
    audit = sim.energy_audit(traj, W=node.W, E=E)
    if args.out:
        sim.export_csv(traj, args.out, audit=audit)
    doc = {
        "min_defect": audit.min_defect,
        "tol": audit.tol,
        "passed": bool(audit.passed),
        "t_final": float(args.t_final),
        "steps": int(args.steps),
        "final_energy": float(node.weighted_norm_sq(traj.states[-1])),
    }
    _emit(doc)
    return EXIT_OK if audit.passed else EXIT_NEGATIVE


def _cmd_beam(args):
    params = second_order.BeamParameters(
        rho_a=args.rho_a, EI=args.ei, EbarI=args.ebar_i, n_modes=args.n_modes
    )
    node, E_min = second_order.beam_model(params)
    doc = io.node_to_dict(node)
    doc["E_min"] = io.matrix_to_json(E_min)
    if args.kappa is not None:
        report, syn = stability.stability_verdict(node, E_min, args.kappa)
        doc["stability"] = report.as_dict()
        doc["synthesis"] = syn.as_dict()
        _emit(doc, args.out)
        positive = report.verdict in (
            stability.StabilityVerdict.STRONGLY_STABLE,
            stability.StabilityVerdict.WEAKLY_STABLE,
        )
        return EXIT_OK if positive else EXIT_NEGATIVE
    _emit(doc, args.out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="passivenode",
        description="Passivity certification and output-feedback stabilization "
        "for finite-dimensional system nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify passivity of a node file")
    p.add_argument("node", help="path to a node JSON file")
    p.add_argument("--kind", choices=["impedance", "scattering"], default="impedance")
    p.add_argument("--points", nargs="*", default=None,
                   help="test points as 're' or 're,im' (default internal set)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("minimal-e", help="minimal impedance shift for a structured node")
    p.add_argument("node")
    p.add_argument("--method",
                   choices=["colocated", "esad", "selfadjoint", "feedthrough"],
                   default="esad")
    p.add_argument("--omega", type=float, default=0.0,
                   help="frequency for the colocated method")
    p.add_argument("--s", type=_complex_arg, default=1.0 + 0.0j,
                   help="resolvent point for esad/selfadjoint methods")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_minimal_e)

    p = sub.add_parser("cayley", help="internal Cayley transform of a node file")
    p.add_argument("node", help="node file (or discrete file with --inverse)")
    p.add_argument("--alpha", type=_complex_arg, default=1.0 + 0.0j)
    p.add_argument("--inverse", action="store_true",
                   help="map a discrete file back to a continuous node")
    p.add_argument("--kind", choices=["impedance", "scattering"], default=None,
                   help="also certify discrete passivity of the result")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cayley)

    p = sub.add_parser("feedback", help="stabilizing output-feedback synthesis")
    p.add_argument("node")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--e-matrix", default=None,
                   help="JSON file with the self-adjoint shift E (default 0)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_feedback)

    p = sub.add_parser("stability", help="strong-stability analysis of the closed loop")
    p.add_argument("node")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--e-matrix", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("simulate", help="simulate the node and audit the energy balance")
    p.add_argument("node")
    p.add_argument("--t-final", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--z0", default=None,
                   help="initial state as a JSON list of 're' or 're,im' values")
    p.add_argument("--input-omega", type=float, default=1.0,
                   help="frequency of the default cosine input")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--adversarial", action="store_true",
                   help="drive the node with a passivity-violating constant input")
    p.add_argument("--e-matrix", default=None,
                   help="shift E included in the audited supply rate")
    p.add_argument("--out", default=None, help="CSV export path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("beam", help="build the free-free beam example node")
    p.add_argument("--n-modes", type=int, default=8,
                   help="total modes kept, including the two rigid-body modes")
    p.add_argument("--rho-a", type=float, default=1.0)
    p.add_argument("--ei", type=float, default=1.0)
    p.add_argument("--ebar-i", type=float, default=0.01)
    p.add_argument("--kappa", type=float, default=None,
                   help="also run the stability analysis at this gain")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_beam)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PassiveNodeError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
