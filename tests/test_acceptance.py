"""Acceptance suite: one test per headline claim, all exact.

Each claim is delegated to the matching check in uvbraid.verify so
the CLI ``verify-paper`` report and this suite can never drift apart.
Run with ``pytest -v`` to get one PASSED/FAILED line per claim, or with
``-s`` to also see the per-claim detail strings.
"""

import pytest

from uvbraid import verify

CLAIMS = [name for name, _ in verify.CHECKS]


def test_every_claim_is_covered():
    assert len(CLAIMS) == 15
    assert len(set(CLAIMS)) == 15


@pytest.mark.parametrize("claim", CLAIMS)
def test_claim(claim):
    result = dict(verify.CHECKS)[claim](verify.DEFAULT_SEED)
    status = "PASS" if result.ok else "FAIL"
    print(f"[{status}] {result.claim}: {result.details}")
    assert result.ok, f"{result.claim}: {result.details}"
