import types

import qcorr


def test_all_lists_public_objects_not_modules():
    assert len(set(qcorr.__all__)) == len(qcorr.__all__)
    for name in qcorr.__all__:
        assert not isinstance(getattr(qcorr, name), types.ModuleType), name
