"""Session set-up: ``make_router`` checks a session's source once, when
the session is built, for every protocol; and ``Draws``, the one kind of
draw stream, whose integers and uniforms must repeat numpy's call for
call."""

from pathlib import Path

import numpy as np
import pytest

import phantomnet as pn
from phantomnet import harness
from phantomnet.analysis import RMIN_RMAX_PRESETS, make_tables
from phantomnet.config import ExperimentConfig
from phantomnet.errors import InvalidParameter
from phantomnet.protocols import Draws
from phantomnet.trace import enters_visible_area

GOLDEN = Path(__file__).parent / "data" / "golden_small.csv"


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


def same_bits(ours, numpy):
    return np.array_equal(ours.view(np.uint64), numpy.view(np.uint64))


# (n_nodes, field_side) of the fields the configs, tests and benchmark
# deploy: the simulator's default, perfbench's desk, the small sweep and
# the published scale.
DEPLOY_SHAPES = ((2000, 2700.0), (2400, 2700.0), (800, 1500.0),
                 (10_000, 6000.0))


@pytest.mark.parametrize("n_nodes, side", DEPLOY_SHAPES)
def test_draws_repeat_numpy_uniform_for_every_deploy_shape(n_nodes, side):
    for seed in range(200):
        want = np.random.default_rng(seed).uniform(0.0, side,
                                                   size=(n_nodes, 2))
        got = Draws(seed).uniform(0.0, side, size=(n_nodes, 2))
        assert got.shape == want.shape and same_bits(got, want), seed


@pytest.mark.parametrize("h", sorted(RMIN_RMAX_PRESETS))
def test_draws_repeat_numpy_uniform_for_every_table_row(h):
    r_min, r_max = RMIN_RMAX_PRESETS[h]
    want = np.random.default_rng(h).uniform(r_min ** 2, r_max ** 2,
                                            size=200_000)
    assert same_bits(Draws(h).uniform(r_min ** 2, r_max ** 2, size=200_000),
                     want)


def test_draws_mix_integers_and_uniform_as_numpy_does():
    """``uniform`` reads whole words and leaves a buffered upper half to
    the next ``integers``, so a mixed stream stays in step with numpy's."""
    for words in ([7], [3, 20, 20, 1], [2019, 5]):
        for n_before in range(4):   # odd counts leave an upper half
            ours, numpy = Draws(words), np.random.default_rng(words)
            for k in range(n_before):
                assert ours.integers(6 + k) == int(numpy.integers(6 + k))
            assert same_bits(ours.uniform(-1.5, 40.0, size=5),
                             numpy.uniform(-1.5, 40.0, size=5))
            for n in (2, 3, 1000, 2**31 + 1, 6):
                assert ours.integers(n) == int(numpy.integers(n)), (words, n)


def test_every_draw_is_made_without_a_numpy_generator(monkeypatch, tmp_path):
    """A deploy, the reference tables and a sweep run with numpy's
    ``default_rng`` gone, and the sweep still writes the golden bytes."""
    def refuse(*args, **kwargs):
        raise AssertionError("a draw went through np.random.default_rng")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(harness, "_FIELD", {})  # so the sweep deploys
    pn.deploy(500, 1500.0, 100.0, 300.0, seed=7)
    make_tables()
    cfg = ExperimentConfig(
        n_nodes=800, field_side=1500.0,
        protocols=["psspr", "hbdrw", "pusbrf", "shortest-path"],
        h=[4, 6], H=[8], packets_per_run=40, seeds=[1, 2, 3]).validate()
    out = tmp_path / "golden.csv"
    harness.emit_csv(harness.run_experiment(cfg, max_workers=1), str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()


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
