"""Fractional-order PID controller tuning and verification toolkit.

Tunes PI^lambda-D^delta controllers (kp + ti*s^-lambda + td*s^delta) by
forcing a chosen dominant closed-loop pole pair to satisfy the
characteristic equation, minimizing the resulting residual with a bounded
particle swarm optimizer, and verifying designs through Grunwald-Letnikov
time-domain step simulation and response metrics.
"""

from .cpower import cpow, polar
from .plant import (
    ControllerParams,
    FractionalPolynomial,
    FractionalTransferFunction,
    closed_loop,
    controller_tf,
)
from .pso import PsoConfig, SwarmResult, minimize
from .tuning import (
    DesignSpec,
    DominantPoles,
    ParameterBounds,
    ResidualValue,
    TuningProblem,
    poles_from_damping,
    residual,
    spec_to_damping,
    tune,
)
from .simulate import (
    SimConfig,
    SimulationDiverged,
    StepResponse,
    gl_derivative,
    gl_weights,
    simulate_step,
)
from .metrics import ResponseMetrics, analyze

__version__ = "0.1.0"

__all__ = [
    "ControllerParams",
    "DesignSpec",
    "DominantPoles",
    "FractionalPolynomial",
    "FractionalTransferFunction",
    "ParameterBounds",
    "PsoConfig",
    "ResidualValue",
    "ResponseMetrics",
    "SimConfig",
    "SimulationDiverged",
    "StepResponse",
    "SwarmResult",
    "TuningProblem",
    "analyze",
    "closed_loop",
    "controller_tf",
    "cpow",
    "gl_derivative",
    "gl_weights",
    "minimize",
    "polar",
    "poles_from_damping",
    "residual",
    "simulate_step",
    "spec_to_damping",
    "tune",
]
