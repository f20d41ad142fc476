"""The package's public names: `blinkpipe.__all__`."""
from __future__ import annotations

import blinkpipe


def test_every_listed_name_resolves_on_the_package():
    missing = [name for name in blinkpipe.__all__ if not hasattr(blinkpipe, name)]
    assert missing == []


def test_no_name_is_listed_twice():
    assert len(set(blinkpipe.__all__)) == len(blinkpipe.__all__)


def test_removed_wrappers_stay_gone():
    # FrameValidator().validate and BlinkSegmenter.effective_gaze replace them.
    for name in ("validate_frame", "effective_gaze"):
        assert name not in blinkpipe.__all__
        assert not hasattr(blinkpipe, name)
