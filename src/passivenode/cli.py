"""Command-line interface.

Verbs:

    check      certify impedance/scattering passivity of a node file
    minimal-e  compute the minimal impedance shift of a node
    cayley     internal Cayley transform (or its inverse) of a node file
    feedback   stabilizing static output feedback synthesis
    stability  strong-stability analysis of the closed loop
    simulate   exact exponential simulation with an energy audit; optional CSV export
    beam       build the free-free beam example node

Results are printed as canonical JSON.  Exit status: 0 for a positive
verdict (or plain success), 2 for a negative verdict, 1 for errors,
usage errors included.
"""

import argparse
import contextlib
import json
import re
import sys

import numpy as np

from . import io, linalg, passivity, second_order, sim, stability
from .cayley import check_discrete_passivity, internal_cayley, inverse_cayley
from .errors import ParseError, PassiveNodeError
from .feedback import stabilizing_feedback

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ParseError, so that it exits 1 like any error,
    reads a token such as -1e3 or -1,2 as a negative number, and refuses an
    option given with a mode that ignores it (the verb's ignored default)."""

    def error(self, message):
        raise ParseError(message)

    def parse_args(self, args=None, namespace=None):
        args = super().parse_args(args, namespace)
        mode, options = args.ignored
        for option in options:
            if getattr(args, mode) and getattr(args, option) is not None:
                self.error(f"argument --{option.replace('_', '-')}: "
                           f"not allowed with argument --{mode}")
        return args

    def _parse_optional(self, arg_string):
        # no option starts with -digit or -.digit, so such a token is a value;
        # argparse alone would read -1e3 or -1,2 as an unknown option
        if re.match(r"-\.?\d", arg_string):
            return None
        return super()._parse_optional(arg_string)


def _complex_arg(text):
    """Parse 're' or 're,im' into a complex number with finite parts."""
    parts = text.split(",")
    try:
        z = complex(*map(float, parts)) if len(parts) <= 2 else np.nan
    except ValueError:
        z = np.nan
    if not np.isfinite(z):
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as a finite 're' or 're,im'")
    return z


def _real_arg(text):
    """Parse a finite real number."""
    x = linalg.float_or_nan(text)
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as a finite number")
    return x


def _load_E(args):
    """The shift file of --e-matrix, or None when the option is not given."""
    return io.load_matrix(args.e_matrix, "E") if args.e_matrix else None


def _stability(node, E, kappa):
    """stability_verdict at kappa: the report and synthesis documents and the verdict."""
    report, syn = stability.stability_verdict(node, E, kappa)
    stable = report.verdict is stability.StabilityVerdict.STRONGLY_STABLE
    return report.as_dict(), syn.as_dict(), stable


def _cmd_check(args):
    check = passivity.check_impedance if args.kind == "impedance" else passivity.check_scattering
    cert = check(io.load_node(args.node), test_points=args.points or None)
    return cert.as_dict(), bool(cert.passive)


def _cmd_minimal_e(args):
    node = io.load_node(args.node)
    if args.method == "colocated":
        E = passivity.minimal_E_colocated_at(node, args.omega)
    elif args.method == "esad":
        E = passivity.minimal_E_esad(node, s=args.s)
    elif args.method == "selfadjoint":
        E = passivity.minimal_E_selfadjoint(node, s=args.s)
    else:  # general
        E = passivity.minimal_E(node)
    Eplus, c, kappa0 = passivity.positive_part(E)
    return {
        "E": io.matrix_to_json(E),
        "E_plus": io.matrix_to_json(Eplus),
        "c": c,
        "kappa0": None if np.isinf(kappa0) else kappa0,
        "method": args.method,
    }, None


def _cmd_cayley(args):
    if args.inverse:
        return io.node_to_dict(inverse_cayley(io.load_discrete(args.node))), None
    alpha = 1.0 if args.alpha is None else args.alpha
    disc = internal_cayley(io.load_node(args.node), alpha=alpha)
    doc = io.discrete_to_dict(disc)
    if args.kind is None:
        return doc, None
    cert = check_discrete_passivity(disc, args.kind.capitalize())
    doc["certificate"] = cert.as_dict()
    return doc, bool(cert.passive)


def _cmd_feedback(args):
    syn = stabilizing_feedback(io.load_node(args.node), _load_E(args), args.kappa)
    doc = syn.as_dict()
    doc["closed_loop"] = io.node_to_dict(syn.closed_loop)
    return doc, None


def _cmd_stability(args):
    report, synthesis, stable = _stability(io.load_node(args.node), _load_E(args), args.kappa)
    return {**report, "synthesis": synthesis}, stable


def _cmd_simulate(args):
    node = io.load_node(args.node)
    E = _load_E(args)
    if args.adversarial:
        z0, u0, _ = sim.adversarial_input(node, E=E, amplitude=args.amplitude)
        u = lambda t: u0
    else:
        z0 = np.zeros(node.n)
        if args.z0:
            try:
                entries = json.loads(args.z0)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ParseError(f"--z0: invalid JSON ({exc})") from exc
            z0 = io.vector_from_json(entries, "--z0", node.n)
        omega = 1.0 if args.input_omega is None else args.input_omega
        amp = args.amplitude
        u = lambda t: amp * np.cos(omega * t) * np.ones(node.m)
    traj = sim.simulate(node, z0, u, args.t_final, steps=args.steps)
    audit = sim.energy_audit(traj, W=node.W, E=E)
    if args.csv:
        sim.export_csv(traj, args.csv, audit=audit)
    doc = {
        "min_defect": audit.min_defect,
        "tol": audit.tol,
        "passed": bool(audit.passed),
        "t_final": float(args.t_final),
        "steps": int(args.steps),
        "final_energy": float(node.weighted_norm_sq(traj.states[-1])),
    }
    return doc, doc["passed"]


def _cmd_beam(args):
    params = second_order.BeamParameters(
        rho_a=args.rho_a, EI=args.ei, EbarI=args.ebar_i, n_modes=args.n_modes
    )
    node, E_min = second_order.beam_model(params)
    doc = io.node_to_dict(node)
    doc["E_min"] = io.matrix_to_json(E_min)
    if args.kappa is None:
        return doc, None
    doc["stability"], doc["synthesis"], stable = _stability(node, E_min, args.kappa)
    return doc, stable


def build_parser():
    parser = _Parser(
        prog="passivenode",
        description="Passivity certification and output-feedback stabilization "
        "for finite-dimensional system nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a mode and the options it ignores, which are refused with it: --inverse
    # certifies nothing and reads no alpha, --adversarial picks its own state and input
    ignored = {"cayley": ("inverse", ("alpha", "kind")),
               "simulate": ("adversarial", ("z0", "input_omega"))}

    @contextlib.contextmanager
    def verb(name, func, summary, node=True, node_help=None, **out):
        """One verb: the node positional (unless node is False), the options
        that the with-block adds, then --out, whose keywords out extends."""
        p = sub.add_parser(name, help=summary)
        if node:
            p.add_argument("node", help=node_help)
        yield p
        p.add_argument("--out", default=None, **out)
        p.set_defaults(func=func, ignored=ignored.get(name, (None, ())))

    with verb("check", _cmd_check, "certify passivity of a node file",
              node_help="path to a node JSON file") as p:
        p.add_argument("--kind", choices=["impedance", "scattering"], default="impedance")
        p.add_argument("--points", nargs="*", type=_complex_arg, default=None,
                       help="test points as 're' or 're,im' (default internal set)")

    with verb("minimal-e", _cmd_minimal_e, "minimal impedance shift of a node") as p:
        p.add_argument("--method",
                       choices=["colocated", "esad", "selfadjoint", "general"],
                       default="esad",
                       help="general works on any node; the others first check "
                       "their structural class")
        p.add_argument("--omega", type=_real_arg, default=0.0,
                       help="frequency for the colocated method")
        p.add_argument("--s", type=_complex_arg, default=1.0 + 0.0j,
                       help="point the esad/selfadjoint methods check to lie in rho(A)")

    with verb("cayley", _cmd_cayley, "internal Cayley transform of a node file",
              node_help="node file (or discrete file with --inverse)") as p:
        p.add_argument("--alpha", type=_complex_arg, default=None,
                       help="Cayley point in the right half-plane (default 1)")
        p.add_argument("--inverse", action="store_true",
                       help="map a discrete file back to a continuous node")
        p.add_argument("--kind", choices=["impedance", "scattering"], default=None,
                       help="also certify discrete passivity of the result")

    with verb("feedback", _cmd_feedback, "stabilizing output-feedback synthesis") as p:
        p.add_argument("--kappa", type=_real_arg, required=True)
        p.add_argument("--e-matrix", default=None,
                       help="JSON file with the self-adjoint shift E (default 0)")

    with verb("stability", _cmd_stability,
              "strong-stability analysis of the closed loop") as p:
        p.add_argument("--kappa", type=_real_arg, required=True)
        p.add_argument("--e-matrix", default=None)

    # --out is the CSV export here; the document goes to stdout only
    with verb("simulate", _cmd_simulate, "simulate the node and audit the energy balance",
              dest="csv", metavar="OUT", help="CSV export path") as p:
        p.add_argument("--t-final", type=_real_arg, default=10.0)
        p.add_argument("--steps", type=int, default=2000)
        p.add_argument("--z0", default=None,
                       help="initial state as a JSON list of 're' or 're,im' values")
        p.add_argument("--input-omega", type=_real_arg, default=None,
                       help="frequency of the default cosine input (default 1)")
        p.add_argument("--amplitude", type=_real_arg, default=1.0)
        p.add_argument("--adversarial", action="store_true",
                       help="drive the node with a passivity-violating constant input")
        p.add_argument("--e-matrix", default=None,
                       help="shift E included in the audited supply rate")

    with verb("beam", _cmd_beam, "build the free-free beam example node", node=False) as p:
        p.add_argument("--n-modes", type=int, default=8,
                       help="total modes kept, including the two rigid-body modes")
        p.add_argument("--rho-a", type=_real_arg, default=1.0)
        p.add_argument("--ei", type=_real_arg, default=1.0)
        p.add_argument("--ebar-i", type=_real_arg, default=0.01)
        p.add_argument("--kappa", type=_real_arg, default=None,
                       help="also run the stability analysis at this gain")

    return parser


def main(argv=None):
    """Run one verb: its document goes to --out (when the verb writes one) and
    to stdout, and its verdict sets the exit status."""
    try:
        args = build_parser().parse_args(argv)
        doc, verdict = args.func(args)
        text = io.dumps_canonical(doc)
        if getattr(args, "out", None):
            io.write_text(args.out, text)
    except PassiveNodeError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(text)
    return EXIT_OK if verdict is None or verdict else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
