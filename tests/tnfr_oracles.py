"""Test-only TNFR helpers.

`enumerate_feasible_naive` is the exact checker's independent oracle: it
tries every flow assignment with no pruning.  `without_arcs` is a mutation
hook that drops a gadget's arcs from an instance, and `touches_failure`
selects the failure gadget's arcs by their endpoints.
"""

import itertools
from collections.abc import Callable

from spikeflow.tnfr import TNFRInstance, validate_witness, witness_value

Arc = tuple[str, str, int, int]


def enumerate_feasible_naive(inst: TNFRInstance) -> bool:
    """Unpruned full enumeration: is there a valid flow of value > ``inst.d``?"""
    domains = [sorted({0, *range(c_min, c_max + 1)}) for _, _, c_min, c_max in inst.arcs]
    for combo in itertools.product(*domains):
        flows = dict(enumerate(combo))
        if not validate_witness(inst, flows) and witness_value(inst, flows) > inst.d:
            return True
    return False


def touches_failure(arc: Arc) -> bool:
    """Whether the arc belongs to the failure gadget: an endpoint named ``f:*``."""
    tail, head, _, _ = arc
    return tail.startswith("f:") or head.startswith("f:")


def without_arcs(inst: TNFRInstance, drop: Callable[[Arc], bool]) -> TNFRInstance:
    """A copy minus every arc that ``drop`` selects."""
    clone = TNFRInstance(inst.d)
    for name, kind in inst.kinds.items():
        clone.add_node(name, kind)
    clone.add_arcs(arc for arc in inst.arcs if not drop(arc))
    return clone
