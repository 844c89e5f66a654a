"""R001 fixture: one-shot ``draw`` calls name their streams like ``stream``
does, and no draw shares a tuple with an interned stream."""

from repro.sim.rng import RngManager


def pair_values(master: int, a: int, b: int) -> None:
    mgr = RngManager(master)
    shadow = mgr.draw("shadow", a, b).gauss(0.0, 3.2)
    ou = mgr.stream("ou", 1, 2)
    draw = mgr.draw
    start = draw("ou-init", 1, 2).gauss(0.0, 1.5)
    _ = shadow, ou, start
