"""One sha256 over a grid of small fleet payloads, floats as ``float.hex``.

``TestPinnedPayloads`` in ``test_scheduler.py`` pins three payloads;
this pins every placement policy x fault severity x seed (one past
2**32, which takes the wide-seed RNG path) x arch mix (homogeneous,
two-architecture, and one with a big/little chip expanded to its
clusters).  Floats are rendered with ``float.hex`` so the digest reads
every bit, not a decimal rounding.  A drift in any RNG stream, the
fault-injected telemetry, the controllers or placement changes it.
"""

import hashlib
import json

from repro.fleet import simulate_fleet

POLICIES = ("smtsm", "least_loaded", "round_robin", "random")
SEVERITIES = (0.0, 0.2, 0.4)
SEEDS = (11, 2**32 + 5)
MIXES = ("power7", "power7:3,nehalem:1", "armsmt,biglittle")

GRID_SHA256 = "d912fc277a037ee16a2bc3c5abc5c9d16bda5e99f67e81097ea917f3bea64412"


def hex_floats(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hex_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hex_floats(item) for item in value]
    return value


def grid_digest() -> str:
    digest = hashlib.sha256()
    for mix in MIXES:
        for policy in POLICIES:
            for severity in SEVERITIES:
                for seed in SEEDS:
                    payload = simulate_fleet(
                        chips=8, jobs=400, arch_mix=mix, policy=policy,
                        severity=severity, seed=seed,
                    ).payload()
                    digest.update(json.dumps(
                        hex_floats(payload), sort_keys=True).encode())
    return digest.hexdigest()


def test_payload_grid_digest():
    assert grid_digest() == GRID_SHA256
