"""Every figure panel keeps the bytes pinned in ``golden_panels.json``."""

import json

from golden_panels import MANIFEST, SEED, first_difference, manifest


def test_panels_match_the_golden_manifest():
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert pinned["seed"] == SEED
    assert first_difference(manifest(), pinned["panels"]) is None


def test_first_difference_names_the_first_changed_panel():
    pinned = [["a e", "1"], ["a p", "2"], ["b e", "3"]]
    assert first_difference(pinned, pinned) is None
    assert first_difference([["a e", "1"], ["a p", "9"], ["b e", "8"]], pinned) == "a p"
    assert first_difference(pinned[:2], pinned) == "b e"
    assert first_difference([*pinned, ["c e", "4"]], pinned) == "c e"
