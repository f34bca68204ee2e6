"""Golden digests of the six shipped configs: the byte-identity contract.

Every `report.json` and CSV a shipped config writes must keep the sha256
recorded in `shipped_digests.json`. A change that alters a shipped output on
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


def output_digests(cfg_path: Path, out_dir: Path) -> dict[str, str]:
    raw = json.loads(cfg_path.read_text())
    raw["out_dir"] = str(out_dir)
    code, _ = run_experiment(parse_config(raw))
    assert code == 0, cfg_path.name
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("cfg_path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_shipped_outputs_match_recorded_digests(tmp_path, cfg_path):
    recorded = json.loads(DIGESTS.read_text())
    if recorded["numpy"] != np.__version__:
        pytest.skip(f"digests recorded under numpy {recorded['numpy']}, running {np.__version__}")
    assert output_digests(cfg_path, tmp_path) == recorded["digests"][cfg_path.stem]


def regenerate(scratch: Path) -> None:
    digests = {p.stem: output_digests(p, scratch / p.stem) for p in SHIPPED}
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "digests": digests},
                                  indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: python tests/test_shipped_digests.py --regenerate")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    print(f"wrote {DIGESTS}")
