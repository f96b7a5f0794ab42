"""Write the synthetic corpora of one benchmark run with ``synth.synthgen``.

    python3 perfbench/gen.py --out DIR --seed S --sets M --spec '{"sentences": 200}'

Set j goes to DIR/j/{train,dev,test}/ and is generated with SynthSpec seeds
S + 1000*j, S + 1000*j + 1 and S + 1000*j + 2.  The phrase inventory depends
only on the counts in the spec, so a model trained on one corpus of a set
transfers to the other two.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semphrase import synth  # noqa: E402

ROLES = ("train", "dev", "test")
SET_STRIDE = 1000


def generate(out: Path, seed: int, sets: int, spec: dict) -> None:
    for j in range(sets):
        for k, role in enumerate(ROLES):
            synth.synthgen(synth.SynthSpec(seed=seed + SET_STRIDE * j + k, **spec), out / str(j) / role)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--sets", required=True, type=int)
    parser.add_argument("--spec", required=True, help="SynthSpec fields other than seed, as JSON")
    args = parser.parse_args(argv)
    generate(args.out, args.seed, args.sets, json.loads(args.spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
