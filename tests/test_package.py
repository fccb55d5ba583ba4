import pgnn


def test_every_export_resolves_once():
    assert [name for name in pgnn.__all__ if not hasattr(pgnn, name)] == []
    assert len(pgnn.__all__) == len(set(pgnn.__all__))
