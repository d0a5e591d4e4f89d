"""Reference search network: every arc's wave neuron wired to every next arc's.

This is the direct arc-to-arc construction that ``build_search_network``
replaces with per-node hubs.  It has sum over nodes of in(v) * out(v)
synapses per wave family (Theta(m^1.5) on complete DAGs) and no hubs.  It
exists only to check that the hub wiring fires every tape neuron at the same
step; it shares no wiring code with ``spikeflow.maxflow``.
"""

from __future__ import annotations

from spikeflow.maxflow import EdgeNeuronMap
from spikeflow.oracle import NeuromorphicOracle
from spikeflow.snn import Role


def build_direct_search_network(oracle: NeuromorphicOracle, emap: EdgeNeuronMap) -> None:
    K = emap.K
    with_readout = not emap.residual
    search_role = Role.READOUT if emap.residual else Role.STANDARD
    neurons = [(emap.transmitter_id, 1, 0, 1, 1, Role.TRANSMITTER)]
    synapses = []
    for a in emap.arcs:
        neurons.append((emap.search_id(a.id), 1 + K, 0, 1, K, search_role))
        synapses.append((emap.cap_id(a.id), emap.search_id(a.id), 0, -K))
        if with_readout:
            neurons.append((emap.readout_id(a.id), 1 + K, 0, 1, K, Role.READOUT))
            synapses.append((emap.cap_id(a.id), emap.readout_id(a.id), 0, -K))
    for a in emap.arcs_by_head[emap.net.sink]:
        synapses.append((emap.transmitter_id, emap.search_id(a.id), 1, 1))
    for a in emap.arcs:
        for down in emap.arcs_by_tail[a.head]:
            # the search wave runs backward: the downstream arc excites this one
            synapses.append((emap.search_id(down.id), emap.search_id(a.id), 1, 1))
    if with_readout:
        for a in emap.arcs_by_tail[emap.net.source]:
            synapses.append((emap.search_id(a.id), emap.readout_id(a.id), 1, 1))
        for a in emap.arcs:
            for down in emap.arcs_by_tail[a.head]:
                synapses.append((emap.readout_id(a.id), emap.readout_id(down.id), 1, 1))
    oracle.write_neurons(neurons)
    oracle.write_synapses(synapses)
