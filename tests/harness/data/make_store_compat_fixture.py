"""Regenerate ``store_compat/`` — run ONLY at a commit whose encoder
still picks the smaller of zlib-9 and LZMA per section (43ed3b4, the
parent of the PR that fixed one codec per section):

    PYTHONPATH=src python tests/harness/data/make_store_compat_fixture.py

Writes one segment holding a small v3 frame (zlib wins its sections), a
larger v3 frame (LZMA wins) and a v2 frame, all with array columns,
plus ``store_compat_expected.json``: the manifest entries that went in, taken from
the inputs, never from a read-back (the payloads are ``records()``).
"""

import json
import os
import time
from unittest import mock

from repro.harness.store import ColumnarStore
from repro.harness.sweep import SCHEMA_VERSION

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "store_compat")


N_RECORDS = 103


def records(start: int, n: int):
    out = []
    for i in range(start, start + n):
        key = f"{i:024x}"
        out.append((key, {
            "schema": SCHEMA_VERSION, "sim": "compat-fixture", "key": key,
            "task": {"label": f"fig{i % 3}/{'reps' if i % 2 else 'ops'}",
                     "seed": i % 5},
            "metrics": {"makespan_us": 1000.125 + i, "flows": 8,
                        "drops": 0 if i % 4 else i, "note": None,
                        "good_gbps": 1.0 / (i + 3), "neg_zero": -0.0,
                        "fcts": [100.25 + i + j for j in range(5)],
                        "pkts": [i * 10 + j * j for j in range(5)],
                        "raw": [1.0 / (j + i + 2) for j in range(5)],
                        "mixed": [1, 2.5, i]},
            "tags": ["a", "\x00r", {"deep": [i, "a"]}],
        }))
    return out


def main() -> None:
    os.makedirs(HERE, exist_ok=True)
    seg = os.path.join(HERE, ColumnarStore.SEGMENT)
    if os.path.exists(seg):
        os.remove(seg)
    expected = {}
    batches = [(3, records(0, 3), "shard-0/2"),
               (3, records(3, 96), "shard-1/2"),
               (2, records(99, 4), None)]
    with mock.patch.object(time, "time", return_value=1_750_000_000.5):
        for fmt, batch, origin in batches:
            store = ColumnarStore(HERE, origin=origin, segment_format=fmt)
            stats = {k: {"wall_s": 0.125 + p["task"]["seed"],
                         "bytes": 100 + p["task"]["seed"]}
                     for k, p in batch}
            store.put_many(batch, stats=stats)
            for key, payload in batch:
                expected[key] = store._manifest_entry(
                    payload, time.time(), stats[key])
    with open(HERE + "_expected.json", "w") as fh:
        json.dump(expected, fh, sort_keys=True, separators=(",", ":"))
    back = ColumnarStore(HERE)
    assert back.manifest() == expected
    for key, payload in records(0, N_RECORDS):
        assert json.dumps(back.get(key), sort_keys=True) == \
            json.dumps(payload, sort_keys=True)


if __name__ == "__main__":
    main()
