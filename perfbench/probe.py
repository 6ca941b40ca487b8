"""Set-up as a user pays it, timed in a fresh process.

    python3 perfbench/probe.py DOCDIR

Imports ``rdcontrol`` (with numpy and scipy) from the checkout's ``src/``,
loads and validates every ``*.json`` scenario document in DOCDIR, and
prints the seconds both took.  Only the standard library is imported
before the clock starts.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_rdcontrol():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    pkg = SRC / "rdcontrol"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no rdcontrol package at {pkg}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import rdcontrol
    import rdcontrol.cli

    if Path(rdcontrol.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported rdcontrol from {rdcontrol.__file__}, not {pkg}")
    return rdcontrol


def load_documents(rd, docdir: Path) -> dict:
    """Load and validate every scenario document of a workload."""
    out = {}
    for path in sorted(docdir.glob("*.json")):
        if path.stem == "distortion":
            out[path.stem] = rd.scenario.load_mac_scenario(path)
        else:
            out[path.stem] = rd.scenario.load_scenario(path)
    return out


if __name__ == "__main__":
    start = time.perf_counter()
    load_documents(import_rdcontrol(), Path(sys.argv[1]))
    print(repr(time.perf_counter() - start))
