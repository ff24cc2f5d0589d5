#!/usr/bin/env python
"""Garbage-collect a sweep/atlas cache directory (``make cache-gc``).

Every entry's filename carries its code fingerprint
(``{digest}.{fp16}.pkl``), so entries written by an edited code base
are stale *forever* — no lookup from the current tree can ever serve
them.  This prunes those, plus orphaned ``*.tmp`` files from killed
writers, and (with ``--max-age-s``) current-fingerprint entries older
than a retention window.  Pruning is always safe: a pruned entry reads
as a cold miss and recomputes.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import obs  # noqa: E402
from repro.runtime import ResultCache  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache", required=True, metavar="DIR",
                        help="cache directory to sweep")
    parser.add_argument("--max-age-s", type=float, default=None,
                        metavar="S",
                        help="also prune current-fingerprint entries "
                             "older than this (default: stale-only)")
    args = parser.parse_args(argv)

    cache = ResultCache(args.cache)
    before = len(cache)
    pruned = cache.gc(max_age_s=args.max_age_s)
    snapshot = obs.metrics().snapshot()
    print(f"cache {args.cache}: {before} entries, pruned {pruned} "
          f"(registry cache.gc_pruned={snapshot.get('cache.gc_pruned')}), "
          f"{len(cache)} remain")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
