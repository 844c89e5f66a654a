"""Golden-run capture for the bit-reproducibility contract.

The pinned scenario below exercises every stochastic subsystem the hot
path touches: a seeded jittered grid, mixed beacon + data traffic (4B's
estimator beacons plus the collection workload), OU temporal fading AND
bimodal deep fades, interference and collisions.  ``golden_snapshot``
reduces the run to a canonical JSON-safe dict — delivery/collision
counters and every node's final ETX table with full float precision — so
the golden test can assert that performance work leaves results
*byte-identical*, not merely statistically similar.

Regenerate (only when an intentional behavior change is made) with:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.sim.network import CollectionNetwork, SimConfig
from repro.sim.rng import RngManager
from repro.topology.generators import city_grid, grid

GOLDEN_PATH = Path(__file__).parent / "collection_golden.json"

#: Everything that defines the pinned run, in one place.
GOLDEN_CONFIG = {
    "topology": "grid 4x4, spacing 6.0 m, jitter 0.5 m, topo seed 9",
    "protocol": "4b",
    "seed": 5,
    "duration_s": 180.0,
    "warmup_s": 60.0,
    "bimodal_fraction": 0.3,
}


def _canon(value):
    """Canonical JSON-safe form: floats become ``repr`` strings.

    ``repr`` round-trips every finite float exactly and represents
    inf/nan, so equality of the canonical forms is bit-equality of the
    underlying numbers.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    raise TypeError(f"unsupported golden value type: {type(value)!r}")


def golden_snapshot() -> Dict[str, object]:
    """Run the pinned scenario and return its canonical outcome dict."""
    topo = grid(4, 4, spacing_m=6.0, rng=RngManager(9).stream("topo"), jitter_m=0.5)
    config = SimConfig(
        protocol=GOLDEN_CONFIG["protocol"],
        seed=GOLDEN_CONFIG["seed"],
        duration_s=GOLDEN_CONFIG["duration_s"],
        warmup_s=GOLDEN_CONFIG["warmup_s"],
    )
    net = CollectionNetwork(
        topo, config, channel_overrides={"bimodal_fraction": GOLDEN_CONFIG["bimodal_fraction"]}
    )
    result = net.run()
    etx_tables = {
        nid: node.estimator.table_snapshot()
        for nid, node in sorted(net.nodes.items())
        if node.estimator is not None
    }
    return {
        "config": GOLDEN_CONFIG,
        "counters": {
            "events_run": result.events_run,
            "offered": result.offered,
            "accepted": result.accepted,
            "unique_delivered": result.unique_delivered,
            "duplicates_at_root": result.duplicates_at_root,
            "total_data_tx": result.total_data_tx,
            "beacons_sent": result.beacons_sent,
            "medium_transmissions": net.medium.transmissions,
            "medium_deliveries": net.medium.deliveries,
            "medium_collisions": net.medium.collisions,
            "white_bits_set": net.medium.white_bits_set,
        },
        "final_parents": _canon(result.final_parents),
        "etx_tables": _canon(etx_tables),
    }


def write_golden(snapshot: Dict[str, object], path: Path = GOLDEN_PATH) -> None:
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")


def load_golden() -> Dict[str, object]:
    return json.loads(GOLDEN_PATH.read_text())


FAST_CITY_PATH = Path(__file__).parent / "fast_city_golden.json"

#: The pinned run of the vectorized ``fast`` medium at city shape.
FAST_CITY_CONFIG = {
    "topology": "city_grid 100 nodes, 2x2 blocks of 60 m, topo seed 3",
    "protocol": "4b",
    "medium": "fast",
    "seed": 1,
    "duration_s": 60.0,
    "warmup_s": 20.0,
}


def fast_city_snapshot() -> Dict[str, object]:
    """Run the pinned fast-medium city scenario; counters, parents, ETX digest.

    The ETX tables of 100 nodes are reduced to a SHA-256 of their
    canonical JSON so the committed file stays small.
    """
    topo = city_grid(100, blocks=2, block_m=60.0, rng=RngManager(3).stream("topo"))
    config = SimConfig(
        protocol=FAST_CITY_CONFIG["protocol"],
        seed=FAST_CITY_CONFIG["seed"],
        duration_s=FAST_CITY_CONFIG["duration_s"],
        warmup_s=FAST_CITY_CONFIG["warmup_s"],
        medium=FAST_CITY_CONFIG["medium"],
    )
    net = CollectionNetwork(topo, config)
    result = net.run()
    etx_tables = {
        nid: node.estimator.table_snapshot()
        for nid, node in sorted(net.nodes.items())
        if node.estimator is not None
    }
    etx_json = json.dumps(_canon(etx_tables), sort_keys=True)
    return {
        "config": FAST_CITY_CONFIG,
        "counters": {
            "events_run": result.events_run,
            "offered": result.offered,
            "accepted": result.accepted,
            "unique_delivered": result.unique_delivered,
            "duplicates_at_root": result.duplicates_at_root,
            "total_data_tx": result.total_data_tx,
            "beacons_sent": result.beacons_sent,
            "medium_transmissions": net.medium.transmissions,
            "medium_deliveries": net.medium.deliveries,
            "medium_collisions": net.medium.collisions,
            "white_bits_set": net.medium.white_bits_set,
        },
        "final_parents": _canon(result.final_parents),
        "etx_tables_sha256": hashlib.sha256(etx_json.encode("utf-8")).hexdigest(),
    }
