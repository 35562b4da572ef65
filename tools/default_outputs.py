"""Write the default outputs of a checkout, for a diff against another.

    python tools/default_outputs.py OUTDIR

writes OUTDIR/verify-paper.txt and OUTDIR/<verb>/<id>.txt for the verbs
linearize, conjugate, bfid and classify on each catalog entry of
``catalog.DEFAULT_IDS``, each with its default options: the standard
output of one ``python -m diskflow.cli`` process, then its standard error
and exit status.  The package is imported from the ``src`` next to this
file, so ``diff -r`` of the directories written from two checkouts names
every output that moved between them, refusals included.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
VERBS = ("linearize", "conjugate", "bfid", "classify")


def _run(args, path: pathlib.Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "diskflow.cli", *args],
                          capture_output=True, text=True, env=env, check=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"{done.stdout}{done.stderr}exit status {done.returncode}\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0])
    sys.path.insert(0, str(SRC))
    from diskflow.catalog import DEFAULT_IDS

    _run(["verify-paper"], out / "verify-paper.txt")
    for verb in VERBS:
        for entry_id in DEFAULT_IDS:
            _run([verb, "--catalog", entry_id], out / verb / f"{entry_id}.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
