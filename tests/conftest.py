import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*names) returns a dict counting, from then on, the calls of
    the named `topann.monomial` functions through every topann module that
    imported them."""
    import topann.cli  # noqa: F401 -- loads every module that may import them
    import topann.monomial as monomial

    def install(*names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(monomial, name)

            def spy(*args, _name=name, _real=real):
                counts[_name] += 1
                return _real(*args)

            for mod in [m for n, m in sys.modules.items() if n.startswith("topann")]:
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, spy)
        return counts

    return install
