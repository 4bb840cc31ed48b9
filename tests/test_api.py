import otmatch


def test_every_public_name_resolves():
    for name in otmatch.__all__:
        assert getattr(otmatch, name) is not None, name
    assert len(set(otmatch.__all__)) == len(otmatch.__all__)


def test_star_import():
    namespace = {}
    exec("from otmatch import *", namespace)
    assert set(otmatch.__all__) <= set(namespace)
