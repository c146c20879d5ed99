"""A ``sys.meta_path`` finder, as source code, that makes ``import scipy`` and
``import scipy.<anything>`` raise ImportError.

The subprocess tests run it before anything else, so that a scipy import
anywhere in cqmeans fails the run instead of going unnoticed.  No venv and
no second install are needed.
"""

BLOCK_SCIPY = """
import sys

class _BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked: cqmeans must run on numpy alone")
        return None

sys.meta_path.insert(0, _BlockScipy())
try:
    import scipy.stats
except ImportError:
    pass
else:
    raise AssertionError("scipy imported past the block")
"""
