"""Session set-up: ``make_router`` checks a session's source once, when
the session is built, for every protocol."""

import numpy as np
import pytest

import phantomnet as pn
from phantomnet.errors import InvalidParameter, SourceIsSink, UnknownNode


def field_with_stray():
    """Sink, a sensor in range of it, and a sensor out of everyone's."""
    positions = np.array([[500.0, 500.0], [560.0, 500.0], [900.0, 900.0]])
    return pn.Network(positions, r=100.0, r0=100.0, field_side=1000.0)


@pytest.mark.parametrize("protocol", pn.PROTOCOLS)
@pytest.mark.parametrize("source,error", [
    (pn.SINK, SourceIsSink),
    (3, UnknownNode),
    (-1, UnknownNode),
    (2, InvalidParameter),      # the sink flood never reached it
])
def test_bad_source_rejected_at_set_up(protocol, source, error):
    with pytest.raises(error):
        pn.make_router(field_with_stray(), protocol, source, h=1, omega=2)
