"""Hash the answers of the benchmark's certify workload and compare them
with the pinned hashes.

    python3 tools/certify_answers.py --seed 1 [--seed 7919] [--seed 15] [--seed 17]

For each corpus item the workload's own ``Certify.call`` runs, and the
line ``repr(Certify.summary(out))`` plus a newline goes into one
SHA-256.  The pinned hashes are those of the program whose answers the
benchmark first recorded, so any change to a record, a bound, a case, a
witness or a container shows.  Seeds 15 and 17 are held-out seeds of
``BENCH_*.json`` files.  ``bench/`` is imported, not changed.
Exits 1 when a hash differs, 2 for a seed with no pinned hash.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402

PINNED = {
    1: "36ba31c9a7e7c51cf5344531d046eb113034e3a3cff1cfa5fb6981eb451da024",
    7919: "ad934cbf28b43c91b2f3e508e487eb32a49a389563326f115ed2843791d21a0b",
    15: "743c04cda552df9583d5937952b0b963a85af1955b999f3182212e36f682e05e",
    17: "2e707997a0d014b318d70f6028b7bb7a2df6bc97bad909a26baf96d943405c9f",
}


def answers_hash(seed: int) -> str:
    certify = workloads.Certify(workloads.load_program(), seed)
    digest = hashlib.sha256()
    for item in certify.items:
        digest.update((repr(certify.summary(certify.call(item))) + "\n").encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True,
                        choices=sorted(PINNED))
    code = 0
    for seed in parser.parse_args(argv).seed:
        got = answers_hash(seed)
        ok = got == PINNED[seed]
        print(f"seed {seed}: {got} {'matches' if ok else 'DIFFERS from ' + PINNED[seed]}")
        code = code or (0 if ok else 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
