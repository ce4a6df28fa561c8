"""Reference kernel: fixed work that gauges how fast the machine runs right now.

    python3 bench/reference.py

It depends on nothing in the repository, so no change to calparity moves
it. Its mix follows the CLI's: an interpreter start with the numpy import,
``csv`` parsing with ``float()`` per row, a numpy group-by and a JSON dump.
run.py times it as a child process after every timed invocation and scales
that invocation's wall time by ``REFERENCE_S / reference wall``, which
cancels the drift of a shared host whose speed changes by tens of percent
from one minute to the next. The digest it prints is checked, so a broken
kernel cannot pass for a fast one.
"""

import csv
import hashlib
import io
import json
import random

import numpy as np

ROWS = 100_000


def main() -> None:
    rng = random.Random(12345)
    text = "group,score,label\n" + "".join(
        f"{'AB'[i & 1]},{rng.randrange(1, 20) / 20},{rng.randrange(2)}\n" for i in range(ROWS)
    )
    reader = csv.reader(io.StringIO(text))
    next(reader)
    by_group: dict[str, tuple[list[float], list[int]]] = {}
    for gid, score, label in reader:
        scores, labels = by_group.setdefault(gid.strip(), ([], []))
        scores.append(float(score))
        labels.append(int(label))
    report = {}
    for gid, (scores, labels) in sorted(by_group.items()):
        atoms, inverse = np.unique(np.array(scores), return_inverse=True)
        positives = np.bincount(inverse, weights=np.array(labels, dtype=float))
        counts = np.bincount(inverse)
        report[gid] = [
            [round(float(a), 12), int(n), round(float(p / n), 12)] for a, n, p in zip(atoms, counts, positives)
        ]
    print(hashlib.sha256(json.dumps(report).encode()).hexdigest())


if __name__ == "__main__":
    main()
