"""Print the sha256 of every artifact the acceptance pipeline writes.

    PYTHONPATH=src python tests/artifact_hashes.py [SEED]

Runs ``test_acceptance._run_pipeline(SEED, dir)`` (default seed 0) in a
temporary directory, then ``segembed mine-audit`` with each
``siamese.mining_mode`` (``siamese.batch_size=64``) on the pipeline's
``embeddings_d.jsonl``, and prints one ``sha256  name`` line per artifact
and pair dump, in name order. Run it on two checkouts and ``diff`` the
listings to check that a change keeps the outputs byte for byte. pytest
does not collect this file.

The last bits of the dense products depend on how many threads the BLAS
library splits them over, so the script pins every BLAS/OpenMP thread
variable (``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS``,
``BLIS_NUM_THREADS``, ``VECLIB_MAXIMUM_THREADS``, ``NUMEXPR_NUM_THREADS``)
to 1 before numpy is first imported. The listing therefore does not depend
on the caller's shell, only on the numpy build and CPU kernel.
"""

import os

for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from segembed.cli import main as segembed_main  # noqa: E402
from segembed.siamese import MINING_MODES  # noqa: E402
from test_acceptance import _run_pipeline  # noqa: E402


def mine_audit(seed, out_dir, mode):
    """Dump the pairs that ``mode`` mines on the variant-d embeddings to
    ``pairs_<mode>.jsonl``; the CLI's own outputs go to a scratch dir."""
    quiet = contextlib.redirect_stdout(io.StringIO())
    with tempfile.TemporaryDirectory() as cli_dir, quiet:
        code = segembed_main([
            "--seed", str(seed), "--out-dir", cli_dir,
            "--set", "siamese.batch_size=64", "--set", f"siamese.mining_mode={mode}",
            "mine-audit", "--embeddings", str(out_dir / "embeddings_d.jsonl"),
            "--output", str(out_dir / f"pairs_{mode}.jsonl"),
        ])
    if code != 0:
        raise SystemExit(f"mine-audit with {mode} exited {code}")


def main(argv) -> int:
    seed = int(argv[0]) if argv else 0
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        _run_pipeline(seed, out_dir)
        for mode in MINING_MODES:
            mine_audit(seed, out_dir, mode)
        for path in sorted(out_dir.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
