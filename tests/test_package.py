import types

import edmc


def test_star_import_binds_no_module():
    namespace = {}
    exec("from edmc import *", namespace)
    namespace.pop("__builtins__")
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]
    assert sorted(namespace) == sorted(edmc.__all__)


def test_all_names_are_public_and_unique():
    assert len(set(edmc.__all__)) == len(edmc.__all__)
    assert all(not name.startswith("_") and hasattr(edmc, name) for name in edmc.__all__)
