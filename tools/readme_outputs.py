"""Run every ``ehaoi`` command of the README's usage block and keep its output.

    python3 tools/readme_outputs.py OUTDIR

The usage block is the first ``sh`` fence under the README's "Command line"
heading. Each ``ehaoi ...`` command in it (a trailing backslash continues a
line) runs as ``python -m ehaoi.cli ...``, with one OpenBLAS thread, in its
own directory ``OUTDIR/NN-<subcommand>``, so the files it writes land
there. Next to them go ``command`` (the README line), ``stdout``,
``stderr`` and ``exit_code``. ``diff -r`` between the OUTDIRs of two
checkouts then shows every byte that any README command's output changed.
OUTDIR must be missing or empty.

The package is imported from the ``src`` directory next to this script, so
the script measures the checkout it lives in. Standard library plus the
package.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def usage_commands(readme: str) -> list[str]:
    """The ``ehaoi`` commands of the first ``sh`` fence after the
    "## Command line" heading, continuation lines joined."""
    lines = readme.splitlines()
    start = lines.index("## Command line")
    fence = next(i for i in range(start, len(lines)) if lines[i].strip() == "```sh")
    commands, pending = [], ""
    for line in lines[fence + 1:]:
        if line.strip() == "```":
            break
        pending += line.strip()
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        if pending.startswith("ehaoi "):
            commands.append(pending)
        pending = ""
    return commands


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    commands = usage_commands((ROOT / "README.md").read_text(encoding="utf-8"))
    for i, command in enumerate(commands, 1):
        args = shlex.split(command)[1:]
        run_dir = out / f"{i:02d}-{args[0]}"
        run_dir.mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-m", "ehaoi.cli", *args], cwd=run_dir,
                              env=env, capture_output=True)
        (run_dir / "command").write_text(command + "\n", encoding="utf-8")
        (run_dir / "stdout").write_bytes(proc.stdout)
        (run_dir / "stderr").write_bytes(proc.stderr)
        (run_dir / "exit_code").write_text(f"{proc.returncode}\n", encoding="utf-8")
        print(f"{run_dir.name}: exit {proc.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
