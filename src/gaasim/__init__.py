"""Toolkit for approximate alternating simulation relations between an LTI
system and a reduced-order abstraction: gain synthesis, condition checking,
control refinement, and co-simulation with discontinuous abstract inputs."""

__version__ = "0.1.0"

from .model import (
    AbstractInputPolicy,
    AbstractLinearSystem,
    Box,
    ConcreteLinearSystem,
    OperatingEnvelope,
    Scenario,
    parse_config,
)
from .refine import RelationPoint, interface_u, jump_admissible, lift_initial, omega, vg
from .synthesis import RefinementGains, check_assumption, synthesize_gains

__all__ = [
    "AbstractInputPolicy",
    "AbstractLinearSystem",
    "Box",
    "ConcreteLinearSystem",
    "OperatingEnvelope",
    "RefinementGains",
    "RelationPoint",
    "Scenario",
    "check_assumption",
    "interface_u",
    "jump_admissible",
    "lift_initial",
    "omega",
    "parse_config",
    "synthesize_gains",
    "vg",
]
