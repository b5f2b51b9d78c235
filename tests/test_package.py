import importlib
import pkgutil

import mpinc
import reference


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from mpinc import *", namespace)
    assert len(set(mpinc.__all__)) == len(mpinc.__all__)
    for name in mpinc.__all__:
        assert name in namespace, name
        assert getattr(mpinc, name) is namespace[name]


def test_test_references_are_not_shipped():
    # the reference implementations live with the tests, not in the package
    names = {name for name, value in vars(reference).items()
             if getattr(value, "__module__", None) == reference.__name__}
    assert {"rref_gf", "gf_inv", "subset_rank", "rref_rational"} <= names
    for info in pkgutil.iter_modules(mpinc.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"mpinc.{info.name}")
        assert not names & set(vars(module)), info.name
