"""One hypothesis profile for the suite: the same examples every run, no
example database, no per-example deadline.  Hypothesis also caches the
constants it reads from the source, whatever the profile says; that cache
goes to the temporary directory, so a test run writes no `.hypothesis/`
into the checkout.  Child processes get the source tree on PYTHONPATH, so
the suite runs from a checkout without an install.  No process of the suite
writes bytecode: a `__pycache__` left in the source tree would change what
later runs of the checkout import (and their memory)."""
import os
import sys
import tempfile

from hypothesis import settings

os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "wqsim-hypothesis"))
# pytest's `pythonpath` setting finds the source tree for this process only;
# child processes started by the tests find it here
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (os.path.normpath(_SRC), os.environ.get("PYTHONPATH"))))
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")
