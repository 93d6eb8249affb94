"""Results pinned from the last commits with a second engine (test helper).

Until commit c311dd8 the cache cells ran under both cache engines, and until
commit 571b1cb the ``dram`` cells ran under both DRAM engines; their tests
asserted the two results bit-identical.  ``golden/engine_parity_pins.json``
holds what each cell produced there, on which both engines agreed, so those
tests now hold the one engine to the pinned result instead of to a second
engine.  ``PINS["dram"]["ablation"]`` and the ``bank_round_robin`` cells
come from the object DRAM engine, which alone served FCFS and bank round
robin, checked in lockstep against the reference DRAM.
"""

import json
from pathlib import Path

PINS = json.loads((Path(__file__).resolve().parent / "golden"
                   / "engine_parity_pins.json").read_text())
