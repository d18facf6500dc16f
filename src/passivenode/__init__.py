"""Passivity certification and static output-feedback stabilization
for finite-dimensional system nodes."""

from .cayley import (
    DiscreteSystem,
    check_discrete_passivity,
    discrete_response,
    discrete_transfer,
    internal_cayley,
    inverse_cayley,
    laguerre_coefficients,
    laguerre_functions,
)
from .errors import PassiveNodeError
from .feedback import (
    FeedbackSynthesis,
    diagonal_transform,
    output_feedback,
    stabilizing_feedback,
)
from .io import load_node, load_plant, save_node, save_plant
from .node import (
    StateSpaceNode,
    dual_node,
    eval_transfer,
    shift_feedthrough,
)
from .passivity import (
    PassivityCertificate,
    PassivityKind,
    Verdict,
    check_impedance,
    check_impedance_reciprocal,
    check_scattering,
    minimal_E,
    minimal_E_colocated_at,
    minimal_E_esad,
    minimal_E_selfadjoint,
    positive_part,
)
from .second_order import (
    BeamParameters,
    SecondOrderPlant,
    beam_model,
    build_colocated,
    build_noncolocated,
    build_two_channel,
)
from .sim import EnergyAudit, Trajectory, adversarial_input, energy_audit, simulate
from .stability import (
    StabilityReport,
    StabilityVerdict,
    benchimol_conditions,
    stability_verdict,
    unitary_subspace,
    unobservable_space,
)

__version__ = "0.1.0"

__all__ = [
    "BeamParameters",
    "DiscreteSystem",
    "EnergyAudit",
    "FeedbackSynthesis",
    "PassiveNodeError",
    "PassivityCertificate",
    "PassivityKind",
    "SecondOrderPlant",
    "StabilityReport",
    "StabilityVerdict",
    "StateSpaceNode",
    "Trajectory",
    "Verdict",
    "adversarial_input",
    "beam_model",
    "benchimol_conditions",
    "build_colocated",
    "build_noncolocated",
    "build_two_channel",
    "check_discrete_passivity",
    "check_impedance",
    "check_impedance_reciprocal",
    "check_scattering",
    "diagonal_transform",
    "discrete_response",
    "discrete_transfer",
    "dual_node",
    "energy_audit",
    "eval_transfer",
    "internal_cayley",
    "inverse_cayley",
    "laguerre_coefficients",
    "laguerre_functions",
    "load_node",
    "load_plant",
    "minimal_E",
    "minimal_E_colocated_at",
    "minimal_E_esad",
    "minimal_E_selfadjoint",
    "output_feedback",
    "positive_part",
    "save_node",
    "save_plant",
    "shift_feedthrough",
    "simulate",
    "stabilizing_feedback",
    "stability_verdict",
    "unitary_subspace",
    "unobservable_space",
]
