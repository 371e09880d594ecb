"""Session set-up: ``make_router`` checks a session's source once, when
the session is built, for every protocol; and the per-run draw stream
the routers take, which must repeat numpy's call for call."""

import numpy as np
import pytest

import phantomnet as pn
from phantomnet import harness
from phantomnet.config import ExperimentConfig
from phantomnet.errors import InvalidParameter
from phantomnet.protocols import Draws
from phantomnet.trace import enters_visible_area


def field_with_stray():
    """Sink, a sensor in range of it, and a sensor out of everyone's."""
    positions = np.array([[500.0, 500.0], [560.0, 500.0], [900.0, 900.0]])
    return pn.Network(positions, r=100.0, r0=100.0, field_side=1000.0)


@pytest.mark.parametrize("protocol", pn.PROTOCOLS)
@pytest.mark.parametrize("source,case", [
    (pn.SINK, "SourceIsSink"),
    (3, "UnknownNode"),
    (-1, "UnknownNode"),
    (2, "InvalidParameter"),    # the sink flood never reached it
])
def test_bad_source_rejected_at_set_up(protocol, source, case):
    """The sink, an unknown id and an unreached sensor are one rule and
    one error; ``case`` keeps the test ids from when each had its own
    error class."""
    with pytest.raises(InvalidParameter, match=f"source {source} is not"):
        pn.make_router(field_with_stray(), protocol, source, h=1, omega=2)


# Small bounds and the extremes: n = 1 draws nothing, n = 2**31 never
# rejects, n = 2**31 + 1 rejects almost half of its draws.
EDGE_N = (1, 2, 3, 6, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1)


def test_draws_repeat_numpy_integers_call_for_call():
    meta = np.random.default_rng(2019)
    for _ in range(2000):
        words = meta.integers(0, 2**32, size=meta.integers(1, 5)).tolist()
        ours, numpy = Draws(words), np.random.default_rng(words)
        for k in range(60):
            n = EDGE_N[k // 2 % 8] if k % 2 else int(meta.integers(1, 1000))
            assert ours.integers(n) == int(numpy.integers(n)), (words, k, n)


@pytest.mark.parametrize("n", [0, -1, 2**32])
def test_draws_reject_a_bound_they_cannot_repeat(n):
    with pytest.raises(ValueError):
        Draws([1]).integers(n)


@pytest.mark.parametrize("protocol", pn.PROTOCOLS)
def test_run_one_equals_a_numpy_driven_session(protocol):
    cfg = ExperimentConfig(n_nodes=800, field_side=1500.0, h=[4, 6], H=[8],
                           packets_per_run=40, seeds=[1, 2, 3]).validate()
    for seed in cfg.seeds:
        net = pn.deploy(cfg.n_nodes, cfg.field_side, cfg.r, cfg.r0, seed)
        ids = net.reachable_sensor_ids()
        cands = ids[np.abs(net.hops[ids] - 8) <= 1]
        source = int(cands[np.random.default_rng([seed, 8, 101])
                           .integers(len(cands))])
        for h in cfg.h:
            rng = np.random.default_rng(
                [seed, 8, h, pn.PROTOCOLS.index(protocol)])
            want = pn.run_session(net, protocol, source, cfg.packets_per_run,
                                  rng, h=h, omega=cfg.omega,
                                  failure_path=enters_visible_area)
            spec = harness.RunSpec(protocol, h, 8, seed, cfg)
            assert harness.run_one(spec) == want
