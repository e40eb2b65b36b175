"""Record the reference digests of every job at the default seed.

    python3 perfbench/record.py

Runs one pass of each workload at both sizes in this process and writes
perfbench/reference.json.  Record it again only when a change is meant to
alter seeded outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference: dict = {}
    tmp_root = HERE.parent / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    home = os.getcwd()
    for size in ("full", "tiny"):
        for name in workloads.WORKLOADS:
            workdir = tempfile.mkdtemp(dir=tmp_root)
            try:
                os.chdir(workdir)
                runner = child.Runner(workloads.BUILDERS[name](child.DEFAULT_SEED, size, workdir), None)
                runner.run_pass(0)
            finally:
                os.chdir(home)
                shutil.rmtree(workdir, ignore_errors=True)
            if runner.failures:
                print(json.dumps(runner.failures, indent=1), file=sys.stderr)
                return 1
            reference.setdefault(size, {})[name] = runner.first
            print(f"{size} {name}: {len(runner.first)} digests")
    try:
        tmp_root.rmdir()
    except OSError:
        pass
    child.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
