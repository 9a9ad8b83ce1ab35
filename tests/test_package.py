import policyvo


def test_every_exported_name_resolves():
    missing = [name for name in policyvo.__all__ if not hasattr(policyvo, name)]
    assert missing == []
