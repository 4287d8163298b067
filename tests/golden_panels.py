"""Golden panel manifest: one SHA-256 per rendered figure panel.

The panels cover every recipe at its default parameters, the
``OTHER_PARAMETERS`` overrides and ``SEEDED_SETS`` parameter sets drawn
from ``random.Random(SEED)``.  The manifest pins these bytes across
commits; ``test_golden_panels.py`` renders the same panels and names the
first one that differs.

Standard library only, so any supported interpreter can run it without
pytest.  Rewrite the manifest (only when a change to the pictures is
intended) with::

    PYTHONPATH=src python tests/golden_panels.py [OUT]
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from cyclekit.figures import RECIPE_NAMES, RECIPES, FigureRecipe

MANIFEST = Path(__file__).with_name("golden_panels.json")
SEED = 20260607
SEEDED_SETS = 40

# A second parameter set per recipe that takes one (also re-rendered over
# the defaults by test_svg.py).
OTHER_PARAMETERS = {
    "fig-eph-cycle": {"cycle": "1,0.5,-2,-1"},
    "fig-zero-radius": {"point": "-0.75,1.25"},
    "fig-ortho1": {"b": "0.6,1.4"},
    "fig-ortho2": {"b": "0.6,1.4"},
}


def _scalar(rng: random.Random) -> str:
    """An integer, a ratio or a decimal of modest size, in the figures' own notation."""
    form = rng.randrange(3)
    if form == 0:
        return str(rng.randint(-3, 3))
    if form == 1:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 7)}"
    return f"{rng.uniform(-2.5, 2.5):.3f}"


def _scalars(rng: random.Random, count: int) -> str:
    return ",".join(_scalar(rng) for _ in range(count))


def parameter_sets() -> list[tuple[str, dict[str, str]]]:
    """(recipe name, parameters) in manifest order."""
    sets = [(name, {}) for name in RECIPE_NAMES]
    sets += list(OTHER_PARAMETERS.items())
    rng = random.Random(SEED)
    for _ in range(SEEDED_SETS):
        sets.append(("fig-eph-cycle", {"cycle": _scalars(rng, 4)}))
        sets.append(("fig-zero-radius", {"point": _scalars(rng, 2)}))
        b = _scalars(rng, 2)
        red = _scalars(rng, 4)
        for name in ("fig-ortho1", "fig-ortho2"):
            params = {"b": b}
            if rng.random() < 0.5:
                params["cycle"] = red
            sets.append((name, params))
    return sets


def _label(name: str, params: dict[str, str]) -> str:
    return name + "".join(f" {key}={value}" for key, value in sorted(params.items()))


def panels(name: str, params: dict[str, str]) -> list[tuple[str, str]]:
    """(panel label, SVG text) of one recipe run, rendered in memory as ``run_figure`` renders it."""
    label = _label(name, params)
    recipe = FigureRecipe(name, params)
    return [(f"{label} {panel}", text) for panel, text in RECIPES[name][0](recipe.parameters)]


def manifest() -> list[list[str]]:
    """[label, SHA-256 of the UTF-8 text] for every panel, in order."""
    return [
        [label, hashlib.sha256(text.encode("utf-8")).hexdigest()]
        for name, params in parameter_sets()
        for label, text in panels(name, params)
    ]


def first_difference(rendered: list[list[str]], pinned: list[list[str]]) -> str | None:
    """The label of the first pinned panel that is rendered differently or not at all, or None."""
    for index, entry in enumerate(pinned):
        if index >= len(rendered) or rendered[index] != entry:
            return entry[0]
    return rendered[len(pinned)][0] if len(rendered) > len(pinned) else None


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else MANIFEST
    entries = manifest()
    rows = ",\n".join(json.dumps(entry) for entry in entries)  # one panel a line, for readable diffs
    out.write_text(f'{{"seed": {SEED}, "panels": [\n{rows}\n]}}\n', encoding="utf-8")
    print(f"{len(entries)} panels -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
