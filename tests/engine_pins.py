"""Results pinned from the last commit with the dict cache engine (test helper).

Until that commit the cells below ran under both cache engines and their
tests asserted the two results bit-identical.
``golden/engine_parity_pins.json`` holds what each cell produced there, on
which both engines agreed, so those tests now hold the one cache engine to
the pinned result instead of to a second engine.
"""

import json
from pathlib import Path

PINS = json.loads((Path(__file__).resolve().parent / "golden"
                   / "engine_parity_pins.json").read_text())
