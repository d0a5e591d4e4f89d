"""Spiking-oracle maximum network flow: simulator, solvers, benchmarks."""

from .flow import FlowAssignment, FlowNetwork, edmonds_karp, generate_random, validate_flow
from .maxflow import PAPER_FAITHFUL, RESIDUAL, SolveResult, solve
from .naive import decide_naive
from .oracle import ConsultMode, NeuromorphicOracle, OutputTape, ResourceReport, WorkingMemory
from .snn import Neuron, Role, SimulationState, SpikingNetwork, Synapse, run, step
from .tnfr import ReductionConfig, TNFRInstance, check_feasible, reduce_network, verify_reduction

__all__ = [
    "FlowAssignment",
    "FlowNetwork",
    "edmonds_karp",
    "generate_random",
    "validate_flow",
    "PAPER_FAITHFUL",
    "RESIDUAL",
    "SolveResult",
    "solve",
    "decide_naive",
    "ConsultMode",
    "NeuromorphicOracle",
    "OutputTape",
    "ResourceReport",
    "WorkingMemory",
    "Neuron",
    "Role",
    "SimulationState",
    "SpikingNetwork",
    "Synapse",
    "run",
    "step",
    "ReductionConfig",
    "TNFRInstance",
    "check_feasible",
    "reduce_network",
    "verify_reduction",
]
