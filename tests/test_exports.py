import stabsim


def test_every_exported_name_resolves():
    namespace = {}
    exec("from stabsim import *", namespace)
    assert set(stabsim.__all__) <= set(namespace)
