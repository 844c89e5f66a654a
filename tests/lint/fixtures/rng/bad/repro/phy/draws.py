"""R001 fixture: ``draw`` is held to the ``stream`` rules.

Expected findings (3):

1. dynamic first stream-name component in ``draw``
2. f-string stream-name component in ``draw`` (through a bound alias)
3. a ``draw`` whose literal tuple an interned ``stream`` in the same
   scope already uses: both would be seeded identically
"""

from repro.sim.rng import RngManager


def pair_values(master: int, a: int, b: int, name: str) -> None:
    mgr = RngManager(master)
    dyn = mgr.draw(name, a, b)  # 1: dynamic namespace
    draw = mgr.draw
    fmt = draw("shadow", f"{a}-{b}")  # 2: string-built component
    fade = mgr.stream("fade", 1, 2)
    init = mgr.draw("fade", 1, 2)  # 3: same keyspace as the stream above
    _ = dyn, fmt, fade, init
