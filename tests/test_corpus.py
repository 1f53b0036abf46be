"""The manufactured-solution corpus: how often Newton finds the intended root."""

import runpy
from pathlib import Path

import numpy as np
import pytest

from legpulse.exprlang import Expr

CORPUS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "manufactured_corpus.py"))
# the counts measured when the corpus was added, per kind: a solver change may
# find more intended roots and fewer other "converged" roots, never the reverse
INTENDED_AT_LEAST = {"fredholm": 199, "volterra": 217}
OTHER_ROOTS_AT_MOST = {"fredholm": 74, "volterra": 39}


@pytest.fixture(scope="module")
def problems():
    return CORPUS["draw"]()


def test_corpus_is_seeded_and_passes_kernels_as_trees(problems):
    again = CORPUS["draw"]()
    assert len(problems) == 600
    assert [arguments["kind"] for arguments, _ in problems[:4]] == ["fredholm", "volterra"] * 2
    t = np.linspace(0.0, 1.0, 5)
    for (first, exact), (second, _) in zip(problems, again):
        assert isinstance(first["kernel"], Expr) and first["kernel"] == second["kernel"]
        for key in ("config", "scalar", "m", "n", "ics"):
            assert first[key] == second[key], key
        assert first["forcing"](t).tobytes() == second["forcing"](t).tobytes()
        if first["ics"]:
            assert first["ics"][0] == exact(0.0)


def test_intended_roots_stay_above_their_floors(problems):
    counts = CORPUS["tally"](problems)
    for kind in ("fredholm", "volterra"):
        assert sum(counts[kind, outcome] for outcome in CORPUS["OUTCOMES"]) == 300
        assert counts[kind, "intended root"] >= INTENDED_AT_LEAST[kind], dict(counts)
        assert counts[kind, "another root"] <= OTHER_ROOTS_AT_MOST[kind], dict(counts)
