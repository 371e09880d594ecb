"""Routing invariants over random fields, seeds and hop parameters.

Hypothesis runs derandomized with no example database, so the suite
stays deterministic and leaves nothing on disk.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import phantomnet as pn
from conftest import validate_trace
from phantomnet.errors import (ConnectivityError, EmptyDomain, EmptyRing,
                               InvalidParameter)
from phantomnet.trace import PHASE_SAME_HOP, PHASE_VAR_ANGLE

PACKETS = 10
SETUP_ERRORS = (ConnectivityError, InvalidParameter, EmptyDomain, EmptyRing)


def route_session(network, protocol, source, h, omega, seed):
    """Traces of one session's packets, all drawn from one rng."""
    router = pn.make_router(network, protocol, source, h=h, omega=omega)
    rng = np.random.default_rng(seed)
    return [router(rng) for _ in range(PACKETS)]


def same_hop_runs(trace):
    """Each same-hop run with the node it started from."""
    runs, i = [], 0
    while i < len(trace.phases):
        if trace.phases[i] != PHASE_SAME_HOP:
            i += 1
            continue
        j = i
        while j < len(trace.phases) and trace.phases[j] == PHASE_SAME_HOP:
            j += 1
        runs.append(trace.hops[max(0, i - 1):j])
        i = j
    return runs


def opening_var_angle_run(trace):
    """The hops of a trace's opening variable-angle run when another
    phase follows it, else an empty list."""
    rest = [i for i, phase in enumerate(trace.phases)
            if phase != PHASE_VAR_ANGLE]
    if trace.phases[0] != PHASE_VAR_ANGLE or not rest:
        return []
    return trace.hops[:rest[0]]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(300, 900), seed=st.integers(0, 2**16),
       h=st.integers(2, 8), H=st.integers(3, 9),
       omega=st.sampled_from([2, 4, 6, 8]),
       protocol=st.sampled_from(pn.PROTOCOLS))
def test_route_invariants(n, seed, h, H, omega, protocol):
    side = math.sqrt(n / 3.5e-4)
    try:
        network = pn.deploy(n, side, 100.0, 300.0, seed)
        source = pn.pick_source(network, H, seed)
        traces = route_session(network, protocol, source, h, omega, seed)
    except SETUP_ERRORS:
        assume(False)

    for trace in traces:
        validate_trace(network, trace, source)
        if not any(a.startswith("same-hop-relaxed") for a in trace.annotations):
            for run in same_hop_runs(trace):
                assert len({int(network.hops[node]) for node in run}) == 1
        # The sink-side variable-angle leg stops on entering its ring,
        # r_max*r >= 2r from the sink, so it never reaches the sink itself.
        assert network.sink not in opening_var_angle_run(trace)

    again = route_session(network, protocol, source, h, omega, seed)
    assert [t.hops for t in again] == [t.hops for t in traces]
