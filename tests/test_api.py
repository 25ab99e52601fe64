"""The package's public surface."""

import rankone


def test_every_public_name_resolves():
    assert len(set(rankone.__all__)) == len(rankone.__all__)
    missing = [name for name in rankone.__all__ if not hasattr(rankone, name)]
    assert missing == []
