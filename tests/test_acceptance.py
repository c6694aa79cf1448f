"""Acceptance gate: every advertised numerical guarantee, end to end.

A test function test_criterion_NN_<key> per row of aladders.criteria.CRITERIA
with a gate call, run at the seeds, sizes and parameter bands the row holds.
Each prints a single PASS/FAIL line (visible under ``pytest -s``); reruns
are bit-reproducible.
"""

from __future__ import annotations

from aladders.criteria import CRITERIA, Criterion


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} — {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _gate_test(row: Criterion):
    def test():
        report(row.number, row.name, *row.gate())
    return test


for _row in sorted((row for row in CRITERIA if row.gate), key=lambda row: row.number):
    globals()[f"test_criterion_{_row.number:02d}_{_row.key}"] = _gate_test(_row)
