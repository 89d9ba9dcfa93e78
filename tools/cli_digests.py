"""Digest every CLI run on the shipped configs, for a byte-for-byte comparison.

Runs each of the six ``tcpolicy`` commands on each config in ``configs/``
against the package in a given ``src/`` directory, one fresh interpreter per
run, inside a temporary directory, and prints sorted JSON: for each
``command/config`` run its exit status, stdout, stderr and the sha256 of every
artifact it wrote.  Two checkouts give the same output exactly when every run
is byte-identical::

    python tools/cli_digests.py --src /path/to/other/src > before.json
    python tools/cli_digests.py > after.json
    diff before.json after.json

Only the standard library is used here; the runs need the package's own
dependencies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("solve", "policies", "simulate", "stationary", "converge", "hump")


def digest_runs(src: Path, configs: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONDONTWRITEBYTECODE="1")
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        # the configs are copied so that every message names the same relative path
        shutil.copytree(configs, work / "configs")
        for cfg in sorted((work / "configs").glob("*.cfg")):
            for command in COMMANDS:
                out = Path("out", command, cfg.stem)
                proc = subprocess.run(
                    [sys.executable, "-m", "tcpolicy.cli", command, "--config", f"configs/{cfg.name}", "--out", str(out)],
                    cwd=work,
                    env=env,
                    capture_output=True,
                    text=True,
                )
                # a refused run writes nothing, and may not make its directory
                artifacts = {
                    path.relative_to(work / out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in sorted((work / out).rglob("*"))
                    if path.is_file()
                }
                runs[f"{command}/{cfg.stem}"] = {
                    "exit": proc.returncode,
                    "stdout": proc.stdout,
                    "stderr": proc.stderr,
                    "artifacts": artifacts,
                }
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the tcpolicy package")
    parser.add_argument("--configs", type=Path, default=ROOT / "configs", help="directory of *.cfg files")
    args = parser.parse_args(argv)
    print(json.dumps(digest_runs(args.src, args.configs), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
