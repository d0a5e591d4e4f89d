"""Test-only TNFR helpers.

`enumerate_feasible_naive` is the exact checker's independent oracle: it
tries every flow assignment with no pruning.  `without_arcs` is a mutation
hook that drops a gadget's arcs from an instance.
"""

import itertools

from spikeflow.tnfr import TNFRInstance, validate_witness, witness_value


def enumerate_feasible_naive(inst: TNFRInstance) -> bool:
    """Unpruned full enumeration: is there a valid flow of value > ``inst.d``?"""
    domains = [sorted({0, *range(arc.c_min, arc.c_max + 1)}) for arc in inst.arcs]
    for combo in itertools.product(*domains):
        flows = dict(enumerate(combo))
        if not validate_witness(inst, flows) and witness_value(inst, flows) > inst.d:
            return True
    return False


def without_arcs(inst: TNFRInstance, tag_prefix: str) -> TNFRInstance:
    """A copy minus every arc whose tag starts with the prefix."""
    clone = TNFRInstance(inst.d)
    for name in inst.order:
        clone.add_node(name, inst.kinds[name], inst.node_tags.get(name, ""))
    for arc in inst.arcs:
        if not arc.tag.startswith(tag_prefix):
            clone.add_arc(arc.tail, arc.head, arc.c_min, arc.c_max, arc.tag)
    return clone
