"""Print the sha256 of every artifact the acceptance pipeline writes.

    PYTHONPATH=src python tests/artifact_hashes.py [SEED]

Runs ``test_acceptance._run_pipeline(SEED, dir)`` (default seed 0) in a
temporary directory and prints one ``sha256  name`` line per artifact, in
name order. Run it on two checkouts and ``diff`` the listings to check that
a change keeps the outputs byte for byte. pytest does not collect this file.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_acceptance import _run_pipeline  # noqa: E402


def main(argv) -> int:
    seed = int(argv[0]) if argv else 0
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        _run_pipeline(seed, out_dir)
        for path in sorted(out_dir.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
