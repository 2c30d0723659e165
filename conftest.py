import gc
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent
for entry in (ROOT / "src", ROOT / "tests"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))


@pytest.fixture(autouse=True)
def collector_state_kept():
    """Fail a test that leaves the cyclic collector switched differently
    from how it found it, then restore it, so that a leaked pause is
    reported where it happens and cannot hide behind later tests."""
    enabled = gc.isenabled()
    yield
    if gc.isenabled() == enabled:
        return
    if enabled:
        gc.enable()
    else:
        gc.disable()
    pytest.fail(f"the test left the cyclic collector {'off' if enabled else 'on'}")
