import os

import pytest

from slotscore import shac_schema


@pytest.fixture(scope="session")
def shac():
    return shac_schema()


@pytest.fixture
def refuse_listing(monkeypatch):
    """``refuse_listing(name)`` makes listing any directory named ``name``
    fail as an unreadable one does, through ``os.scandir`` (``os.walk``) and
    ``os.listdir`` (``Path.iterdir`` before Python 3.13). Faked, since a
    test run as root can list every directory."""
    real = {"scandir": os.scandir, "listdir": os.listdir}

    def refuse(name):
        def refusing(call):
            def listing(path="."):
                if os.path.basename(os.path.normpath(path)) == name:
                    raise PermissionError(13, "Permission denied", os.fspath(path))
                return real[call](path)
            return listing

        for call in real:
            monkeypatch.setattr(os, call, refusing(call))

    return refuse
