"""Pinned output of the series commands: `wallcross-demo` and `eval`.

The digests are sha256 of stdout, with the exit code, as the commands printed
them before the series kernel summed every series through one accumulator.
"""

import hashlib
import json
import random
from fractions import Fraction as Q

import pytest

from tropmirror.cli import run

DEMO_DIGESTS = {
    "-E 1/2": (0, "f6529643cd44c91954905724717ea19a46a2abfb65f8fa960f1fa5372043fc61"),
    "-E 1/2 --json": (0, "f167b9647b1c8e384d6485414008f9b3123f8c45e3b070255a28e177d1afacc2"),
    "-E 10": (0, "1430b751bf8e1e2a9e88c48f44a44c332022246486afe6d2b85381bb770be6be"),
    "-E 10 --json": (0, "d1cb867136dc1eec09899dbe846b7ee5e337bd263d088451ffaf89b6d11aa0ea"),
    "-E 40": (0, "b534cd20c39b3603caedb24f757c2515d88d067a5d4817e3839ac6f479643f2c"),
    "-E 40 --json": (0, "7a09107f33e90e181676ce5db87a842bb8a44ccb1fc9a6f17d528ea9e56ccbeb"),
    "-E 160": (0, "3fe7e14e8decfee0d965635d5d3caae9bc3be34dbadffcd8cb51cfa6cfe89939"),
    "-E 160 --json": (0, "58373005240fae25d425b5badc7142d1c7e00d413d304701465c7663518ad025"),
}
EVAL_DIGEST = (0, "07a5a6b01d26e2e86283bdf72b747eaf9e108df845c176ee7b919b913687cf16")


def _stdout_digest(capsys, argv) -> tuple:
    code = run(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("args", sorted(DEMO_DIGESTS))
def test_wallcross_demo_output_is_pinned(capsys, args):
    assert _stdout_digest(capsys, ["wallcross-demo"] + args.split()) == DEMO_DIGESTS[args]


def seeded_series(seed: int, nterms: int = 50) -> dict:
    """A series file of nterms terms: repeated exponents, cancelling pairs and a truncation that cuts."""
    rng = random.Random(seed)
    grid = [(u1, u2) for u1 in range(-3, 4) for u2 in range(-3, 4)]
    terms = []
    while len(terms) < nterms:
        coeff = [
            {"exp": str(Q(rng.randint(-6, 30), rng.randint(1, 4))), "coeff": str(Q(rng.randint(-9, 9) or 1, rng.randint(1, 5)))}
            for _ in range(rng.randint(1, 4))
        ]
        expo = list(rng.choice(grid))
        terms.append({"expo": expo, "coeff": coeff})
        if rng.random() < 0.15:
            negated = [{"exp": c["exp"], "coeff": str(-Q(c["coeff"]))} for c in coeff]
            terms.append({"expo": expo, "coeff": negated})
    return {
        "dim": 2,
        "chamber": "V_plus",
        "truncation": "20",
        "box": [["1/4", "2"], ["1/4", "2"]],
        "terms": terms[:nterms],
    }


def test_eval_output_is_pinned(tmp_path, capsys):
    path = tmp_path / "series.json"
    path.write_text(json.dumps(seeded_series(12)))
    assert _stdout_digest(capsys, ["eval", str(path), "--point=7/5,-2/3"]) == EVAL_DIGEST
