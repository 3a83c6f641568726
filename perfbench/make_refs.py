"""Regenerate refs/: the radius-1 report of every job type and sign.

Each reference is the stdout of `symheat compute <job>` for the radius-1
job, stored byte for byte.  Run from the repository root:

    python3 perfbench/make_refs.py

Only regenerate when the program's outputs are meant to change; the
benchmark fails every job whose report differs from these files.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from jobmix import WORKLOADS, Job, descriptor
from refcheck import REF_DIR, ref_path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SYMHEAT_THREADS", None)
    REF_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=REF_DIR.parent) as tmp:
        for types in WORKLOADS.values():
            for t in types:
                for sign in (1, -1):
                    job_file = Path(tmp) / "job.json"
                    job_file.write_text(json.dumps(descriptor(Job(t, sign, Fraction(1)))))
                    out = subprocess.run(
                        [sys.executable, "-m", "symheat.cli", "compute", str(job_file)],
                        env=env, check=True, capture_output=True,
                    ).stdout
                    ref_path(t.name, sign).write_bytes(out)
                    print(ref_path(t.name, sign).name, len(out), "bytes", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
