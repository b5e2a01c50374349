"""Re-record tests/pinned_recovery.json from the current code.

Runs test_recovery.pinned_run for every pinned case and prints, per case,
whether its sample ledger and support equal the record and the largest
relative change in its values; a changed ledger shows each field that
moved as recorded -> new. Cases whose output no longer passes
test_seeded_output_matches_pinned_record (a changed ledger or support, or
a value off by more than PINNED_RTOL relative) are replaced; the others
keep their recorded bits, so the record moves only where it must. The file
keeps its layout, one case per line. Run from the repository root; the
outputs do not depend on the BLAS thread count, which
test_single_thread_output_matches_pinned_record checks:

    PYTHONPATH=src python tests/record_pinned.py

With --check it prints the same report, writes nothing, and exits 1 when
any case would be recorded anew, so a change that means to keep seeded
outputs can show that the record stands:

    PYTHONPATH=src python tests/record_pinned.py --check

Re-record only for a change that means to alter seeded outputs, and name
the cases that moved and their drift in the change's notes.
"""
import argparse
import json
import sys
import warnings

import numpy as np

from sparsefft.harness import SIGNAL_MODELS
from test_recovery import (
    PINNED,
    PINNED_GRIDS,
    PINNED_PATH,
    PINNED_RTOL,
    PINNED_STATS_FIELDS,
    pinned_key,
    pinned_record,
    pinned_run,
)


def stats_change(old: list, new: list) -> str:
    """The ledger fields that differ, as 'name recorded -> new'."""
    return ", ".join(
        f"{name} {a} -> {b}" for name, a, b in zip(PINNED_STATS_FIELDS, old, new) if a != b
    )


def max_relative_change(old: dict, new: dict) -> float:
    """Largest |new - old| / |old| over the values; inf when the supports
    differ."""
    if old["support"] != new["support"]:
        return float("inf")
    a = np.array([complex(re, im) for re, im in old["values"]])
    b = np.array([complex(re, im) for re, im in new["values"]])
    if len(a) == 0:
        return 0.0
    return float(np.max(np.abs(b - a) / np.maximum(np.abs(a), np.finfo(float).tiny)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="report only; exit 1 if any case would be re-recorded",
    )
    check = parser.parse_args(argv).check
    entries = {}
    moved = 0
    for n, d, k in PINNED_GRIDS:
        for model in SIGNAL_MODELS:
            key = pinned_key(n, d, k, model)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                new = pinned_record(*pinned_run(n, d, k, model))
            old = PINNED.get(key)
            if old is None:
                print(f"{key}: new case, {'would be recorded' if check else 'recorded'}")
                entries[key] = new
                moved += 1
                continue
            same_stats = old["stats"] == new["stats"]
            same_support = old["support"] == new["support"]
            drift = max_relative_change(old, new)
            passes = same_stats and same_support and drift <= PINNED_RTOL
            entries[key] = old if passes else new
            moved += not passes
            verdict = "kept" if passes else "would be re-recorded" if check else "re-recorded"
            stats_note = (
                "equal" if same_stats
                else f"CHANGED ({stats_change(old['stats'], new['stats'])})"
            )
            print(
                f"{key}: stats {stats_note}, "
                f"support {'equal' if same_support else 'CHANGED'}, "
                f"max relative value change {drift:.3g}, {verdict}"
            )
    if check:
        return 1 if moved else 0
    lines = [f" {json.dumps(key)}: {json.dumps(entry, separators=(',', ':'))}"
             for key, entry in entries.items()]
    PINNED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
