import choquet_emv


def test_star_import_binds_every_exported_name():
    # a stale __all__ entry makes the star import itself raise AttributeError
    namespace = {}
    exec("from choquet_emv import *", namespace)
    for name in choquet_emv.__all__:
        assert namespace[name] is getattr(choquet_emv, name)
