"""Differential test: the three row-writing commands against a row-by-row oracle.

``postprocess-eo --output``, ``postprocess-calibrated --output`` and its
``--mode mc`` form write every kept row from its group's bit table and the
row's code. ``oracles.rewrite_rows`` reads the input one ``csv`` row at a
time and writes one ``repr`` per row, flipping each score with
``eo.flipped_scores`` or withholding by one whole-array draw. The files
must match byte for byte for signed zeros and subnormal scores, groups
that interleave, empty lines, CRLF line ends and a quoted id (which hands
its block and the rest of the input to ``csv``), whether each block is
parsed by its distinct lines or whole, and however the rows are cut into
blocks and chunks.
"""

from __future__ import annotations

import contextlib
import csv
import io
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from calparity import cli, dataset, eo, writer
from calparity.cost import CostSpec, cost, trivial_cost
from calparity.dataset import CSV_HEADER, GroupData
from calparity.metrics import rate_point
from calparity.parity import AlreadyTrivialError, compute_alpha, feasibility
from oracles import read_rows, rewrite_rows

SPECIAL = [-0.0, 0.0, 5e-324, 1e-310, 0.5, 1.0]
IDS = ["A", "B", "c d", 'say "hi"']  # only the last is quoted, which the csv reader reads


@st.composite
def inputs(draw):
    """CSV text of two groups with both classes, in file order or interleaved, maybe with empty lines."""
    rows = []
    for gid in draw(st.lists(st.sampled_from(IDS), min_size=2, max_size=2, unique=True)):
        n = draw(st.integers(2, 30))
        scores = draw(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0)), min_size=n, max_size=n))
        labels = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
        labels[:2] = draw(st.permutations([0, 1]))
        rows += [(gid, repr(s), y) for s, y in zip(scores, labels)]
    rows = draw(st.one_of(st.just(rows), st.permutations(rows)))
    for at in sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)), reverse=True):
        rows.insert(at, ())  # an empty line, which both parsers skip
    text = io.StringIO()
    writer = csv.writer(text, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return text.getvalue()


def _expected(groups, seed):
    """Per command: its argv but ``--input`` and ``--output``, and ``rewrite_rows``' keywords (None: no file)."""
    built = [GroupData(gid, np.array(s), np.array(y)) for gid, (s, y) in groups.items()]
    solution = eo.solve_eo(*built)
    optimal = solution.status == eo.STATUS_OPTIMAL
    flips = {gid: (f.q_n2p, f.q_p2n) for gid, f in solution.plan.items()} if optimal else None
    # Under --cost 1,0,1,0 each group's cost is its FP rate; the costlier group is G1.
    spec = CostSpec(1.0, 0.0)
    g1, g2 = built
    if cost(rate_point(g1), spec) < cost(rate_point(g2), spec):
        g1, g2 = g2, g1
    c1, c2, trivial = cost(rate_point(g1), spec), cost(rate_point(g2), spec), trivial_cost(g2.base_rate, spec)
    mc = plain = None
    if feasibility(c1, c2, trivial).feasible:
        plain = {}
        try:
            mc = {"mc": (g2.group_id, compute_alpha(c1, c2, trivial), g2.base_rate, seed)}
        except AlreadyTrivialError:
            mc = {}
    costs = ["--cost", "1,0,1,0"]
    return {
        "eo": (["postprocess-eo"], None if flips is None else {"flips": flips}),
        "deterministic": (["postprocess-calibrated", *costs], plain),
        "mc": (["postprocess-calibrated", *costs, "--mode", "mc", "--seed", str(seed)], mc),
    }


@settings(max_examples=100, deadline=None)
@given(inputs(), st.integers(0, 2**32), st.sampled_from([1, 2, 3, 1 << 16]), st.sampled_from([24, 1 << 18]))
def test_row_writers_match_oracle(tmp_path_factory, text, seed, write_chunk, read_chunk):
    tmp = tmp_path_factory.mktemp("rows")
    source = tmp / "in.csv"
    source.write_bytes(text.encode())
    groups = read_rows(source)
    for name, (argv, oracle) in _expected(groups, seed).items():
        if oracle is not None:
            rewrite_rows(groups, tmp / f"{name}.expected.csv", **oracle)
        for repetitive in (True, False):
            out = tmp / f"{name}-{repetitive}.csv"
            with (
                mock.patch.object(dataset, "_repetitive", lambda block: repetitive),
                mock.patch.object(writer, "_WRITE_CHUNK", write_chunk),
                mock.patch.object(dataset, "_CHUNK", read_chunk),
                contextlib.redirect_stdout(io.StringIO()),
            ):
                code = cli.main([*argv, "--input", str(source), "--output", str(out)])
            if oracle is None:
                assert code == 2 and not out.exists(), name
            else:
                assert code == 0 and out.read_bytes() == (tmp / f"{name}.expected.csv").read_bytes(), name
