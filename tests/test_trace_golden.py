"""Pinned packet traces and adversary replays of two small sweeps.

``golden_small.csv`` holds means, so per-packet drift that averages out
does not show there. This test hashes every packet itself: its hops,
phases, delivery, annotations and phantom, then where the adversary
perches after replaying it and whether it is a failure path. It covers
all four protocols on the ``golden_small`` shape and on one desk field.
The hash was recorded before the per-hop kernels moved from numpy
arrays to scalar Python loops. Re-pin it only for a change that means
to alter routes, and say so in CHANGES.md.
"""

import hashlib

import pytest

import phantomnet as pn
from phantomnet.adversary import observe_packet
from phantomnet.harness import RunSpec, start_run
from phantomnet.trace import enters_visible_area

TRACE_SHA256 = "549bc9e73211e42c6d4b48b3caecbc413a78e78b04f5180e82c42099854a505e"

# (n_nodes, field_side, seeds, h values, H, packets per session)
SHAPES = [
    (800, 1500.0, (1, 2, 3), (4, 6), 8, 40),     # golden_small
    (2400, 2700.0, (1,), (15,), 20, 40),         # desk field
]


def packet_records():
    """One line per packet of every session of both shapes."""
    for n_nodes, side, seeds, hs, H, packets in SHAPES:
        config = pn.ExperimentConfig(n_nodes=n_nodes, field_side=side)
        for seed in seeds:
            for h in hs:
                for p in pn.PROTOCOLS:
                    # Set up as the sweep sets its run up.
                    network, source, rng = start_run(
                        RunSpec(p, h, H, seed, config))
                    router = pn.make_router(network, p, source, h=h,
                                            omega=config.omega)
                    visible = network.visible(source)
                    perch = network.sink
                    for k in range(packets):
                        t = router(rng)
                        moved = observe_packet(network, perch, t)
                        # Capture as run_session declares it.
                        captured = moved != perch and moved in visible
                        perch = moved
                        failure = enters_visible_area(t, network, source)
                        phantom = None if t.phantom is None else int(t.phantom)
                        yield repr((p, h, seed, k, [int(n) for n in t.hops],
                                    t.phases, bool(t.delivered),
                                    t.annotations, phantom, int(perch),
                                    bool(captured), bool(failure)))
                        if captured:
                            # Start over, so every packet is replayed
                            # against a moving adversary.
                            perch = network.sink


@pytest.mark.pin
def test_packet_traces_match_the_recorded_hash():
    digest = hashlib.sha256()
    count = 0
    for line in packet_records():
        digest.update(line.encode() + b"\n")
        count += 1
    assert count == 4 * (3 * 2 + 1) * 40
    assert digest.hexdigest() == TRACE_SHA256
