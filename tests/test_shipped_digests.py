"""Golden digests of the six shipped configs: the byte-identity contract.

Every `report.json` and CSV a shipped config writes must keep the sha256
recorded in `shipped_digests.json`. So must the outputs of the inline
configs below, which no shipped config covers: `transform` runs that pin the
`trace.csv` Abel columns across several blocks of the streamed sums, and a
`sweep` and two `counterexample` runs (both conventions in one stream, and
`signed` alone) whose checkpoint gaps exceed `2^13` terms, so that their sums
merge block-sized pieces of one segment. A change that alters a shipped output on
purpose regenerates the file and lists the change in CHANGES.md:

    PYTHONPATH=src python tests/test_shipped_digests.py --regenerate

The digests hold for the numpy version recorded beside them; under another
version the comparison is skipped, since float formatting and the math
library may differ there.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ehtlab.cli import parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "shipped_digests.json"
SHIPPED = sorted((ROOT / "configs").glob("*.json"))
# checkpoints 1..3, each end -1/0/+1 of the first two 2^13-term blocks, and a third block
_BLOCK_EDGES = [1, 2, 3, 1000, 8191, 8192, 8193, 16383, 16384, 16385, 30001]
INLINE = {
    "inline_transform_rotation_abel": {
        "kind": "transform", "seed": 3,
        "params": {"sequence": {"name": "hardy_littlewood"}, "checkpoints": _BLOCK_EDGES,
                   "observable": {"kind": "raised_cosine"}, "with_abel": True}},
    "inline_transform_three_cycle_abel": {
        "kind": "transform", "seed": 3,
        "params": {"system": {"kind": "three_cycle"},
                   "sequence": {"name": "cycle_indicator", "convention": "signed"},
                   "observable": {"kind": "cycle_step"}, "with_abel": True,
                   "checkpoints": [1, 2, 3, 5, 9000, 30000, 70001]}},
    "inline_transform_torus": {
        "kind": "transform", "seed": 3,
        "params": {"system": {"kind": "torus_automorphism"},
                   "sequence": {"name": "hardy_littlewood"},
                   "observable": {"kind": "torus_character", "p": 1, "q": 2},
                   "checkpoints": [1, 7, 8192, 8193, 20000]}},
    # 21 checkpoint gaps exceed 2^13 terms; lambda_1 rounds apart from one sum per gap
    "inline_sweep_long_gaps": {
        "kind": "sweep",
        "params": {"system": {"kind": "rotation", "angle_turns": "sqrt2"}, "n_max": 1 << 19}},
    # checkpoint gaps above 2^13 terms, both conventions in one stream and one alone
    "inline_counterexample_both": {
        "kind": "counterexample", "params": {"N": 1 << 19, "convention": "both"}},
    "inline_counterexample_signed": {
        "kind": "counterexample", "params": {"N": 1 << 19, "convention": "signed"}},
}


def _raw(name: str) -> dict:
    return INLINE[name] if name in INLINE else json.loads((ROOT / "configs" / f"{name}.json").read_text())


def output_digests(name: str, out_dir: Path) -> dict[str, str]:
    raw = dict(_raw(name))
    raw["out_dir"] = str(out_dir)
    code, _ = run_experiment(parse_config(raw))
    assert code == 0, name
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out_dir.iterdir())}


NAMES = [p.stem for p in SHIPPED] + sorted(INLINE)


@pytest.mark.parametrize("name", NAMES)
def test_shipped_outputs_match_recorded_digests(tmp_path, name):
    recorded = json.loads(DIGESTS.read_text())
    if recorded["numpy"] != np.__version__:
        pytest.skip(f"digests recorded under numpy {recorded['numpy']}, running {np.__version__}")
    assert output_digests(name, tmp_path) == recorded["digests"][name]


def regenerate(scratch: Path) -> None:
    digests = {name: output_digests(name, scratch / name) for name in NAMES}
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "digests": digests},
                                  indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: python tests/test_shipped_digests.py --regenerate")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    print(f"wrote {DIGESTS}")
