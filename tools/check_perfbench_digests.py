"""Check the perfbench output digests against the committed golden file.

    python tools/check_perfbench_digests.py            # exit 1 on any mismatch
    python tools/check_perfbench_digests.py --update   # rewrite the golden file

For every entry of ``benchmarks/perfbench_digests.json`` this runs
``perfbench/run.py --workload <w> --seed <s> --seconds <n> --trace 0`` in a
fresh process and compares the hex on its ``digest`` line (a SHA-256 of the
timing-stripped simulation outputs) with the golden value.  A deliberate
behaviour change updates the golden file in the same change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "benchmarks" / "perfbench_digests.json"


def observed_digest(workload: str, seed: int, seconds: float) -> Optional[str]:
    """The digest ``perfbench/run.py`` prints for one untraced run, or None
    when the run printed none (its output then goes to stderr)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    prefix = f"digest {workload} seed={seed} "
    for line in proc.stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].split()[0]
    sys.stderr.write(proc.stdout + proc.stderr)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="write the observed digests into the golden file")
    args = parser.parse_args(argv)
    golden = json.loads(GOLDEN.read_text())
    observed = []
    for entry in golden["digests"]:
        got = observed_digest(entry["workload"], entry["seed"], golden["seconds"])
        observed.append(got)
        print(f"{'ok  ' if got == entry['digest'] else 'FAIL'} {entry['workload']} "
              f"seed={entry['seed']} digest {got or '-'} (golden {entry['digest']})")
    if not args.update:
        return 0 if all(got == e["digest"] for got, e in zip(observed, golden["digests"])) else 1
    if None in observed:
        print("not updating: a run printed no digest", file=sys.stderr)
        return 1
    for entry, got in zip(golden["digests"], observed):
        entry["digest"] = got
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
