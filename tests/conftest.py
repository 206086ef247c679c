import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def run_trackers(monkeypatch):
    """Every tracker that ``base.run`` builds during the test, in order:
    the run's best point lives there, not in its ``RunResult``."""
    import optforge.optimizers.base as base

    made = []

    class RecordingTracker(base.ObjectiveTracker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(base, "ObjectiveTracker", RecordingTracker)
    return made
