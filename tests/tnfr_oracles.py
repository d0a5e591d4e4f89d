"""Test-only TNFR helpers.

`enumerate_feasible_naive` is the exact checker's independent oracle: it
tries every flow assignment with no pruning.  `without_arcs` is a mutation
hook that drops a gadget's arcs from an instance, and `touches_failure`
selects the failure gadget's arcs by their endpoints.
"""

import itertools
from collections.abc import Callable

from spikeflow.tnfr import TNFRInstance, TnfrArc, validate_witness, witness_value


def enumerate_feasible_naive(inst: TNFRInstance) -> bool:
    """Unpruned full enumeration: is there a valid flow of value > ``inst.d``?"""
    domains = [sorted({0, *range(arc.c_min, arc.c_max + 1)}) for arc in inst.arcs]
    for combo in itertools.product(*domains):
        flows = dict(enumerate(combo))
        if not validate_witness(inst, flows) and witness_value(inst, flows) > inst.d:
            return True
    return False


def touches_failure(arc: TnfrArc) -> bool:
    """Whether the arc belongs to the failure gadget: an endpoint named ``f:*``."""
    return arc.tail.startswith("f:") or arc.head.startswith("f:")


def without_arcs(inst: TNFRInstance, drop: Callable[[TnfrArc], bool]) -> TNFRInstance:
    """A copy minus every arc that ``drop`` selects."""
    clone = TNFRInstance(inst.d)
    for name, kind in inst.kinds.items():
        clone.add_node(name, kind)
    for arc in inst.arcs:
        if not drop(arc):
            clone.add_arc(arc.tail, arc.head, arc.c_min, arc.c_max)
    return clone
