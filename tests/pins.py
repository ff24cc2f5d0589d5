"""Regeneration of a pinned-JSON test file that never moves a pin.

A pinned test records what a run counted at one commit; its
``__main__`` (re)generates the file.  :func:`regenerate` adds only the
entries the file lacks.  Where an existing entry would change it prints
the difference and exits 1 without writing, so a regeneration run on a
later commit cannot silently move an old pin: an intended accounting
change edits the JSON by hand, and the review sees that edit.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Callable, Iterable


def _diff(path: str, want, got) -> list[str]:
    """Where ``got`` differs from ``want``, as ``path: want -> got``
    lines (nested dicts by key, lists of equal length by index)."""
    if isinstance(want, dict) and isinstance(got, dict):
        return [line for key in sorted(want.keys() | got.keys(), key=str)
                for line in _diff(f"{path}/{key}", want.get(key),
                                  got.get(key))]
    if (isinstance(want, list) and isinstance(got, list)
            and len(want) == len(got) and want != got):
        return [line for i, (w, g) in enumerate(zip(want, got))
                for line in _diff(f"{path}[{i}]", w, g)]
    return [] if want == got else [f"{path}: {want!r} -> {got!r}"]


def regenerate(pinned: pathlib.Path, measure: Callable[[str], dict],
               keys: Iterable[str]) -> int:
    """Measure every key of ``keys``; write the ones ``pinned`` lacks,
    and return 0 — unless an existing entry measures differently: then
    print each difference, write nothing and return 1."""
    old = json.loads(pinned.read_text()) if pinned.exists() else {}
    new, moved = dict(old), []
    for key in keys:
        got = json.loads(json.dumps(measure(key)))  # as the file holds it
        if key not in old:
            new[key] = got
        else:
            moved += _diff(key, old[key], got)
    if moved:
        print(f"{pinned.name}: {len(moved)} pinned value(s) would move; "
              f"nothing written:", *moved, sep="\n", file=sys.stderr)
        return 1
    added = len(new) - len(old)
    if added:
        pinned.write_text(json.dumps(new, indent=1) + "\n")
    print(f"{pinned.name}: {added} entr{'y' if added == 1 else 'ies'} "
          f"added, {len(old)} unchanged")
    return 0
