"""Every focus-solver input keeps the outcome pinned in ``golden_values.json``."""

import json

from golden_panels import first_difference
from golden_values import MANIFEST, SEED, manifest


def test_values_match_the_golden_manifest():
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert pinned["seed"] == SEED
    assert first_difference(manifest(), pinned["blocks"]) is None
