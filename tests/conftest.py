"""One hypothesis profile for the suite: the same examples every run, no
example database, no per-example deadline.  Hypothesis also caches the
constants it reads from the source, whatever the profile says; that cache
goes to the temporary directory, so a test run writes no `.hypothesis/`
into the checkout."""
import os
import tempfile

from hypothesis import settings

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "wqsim-hypothesis"))
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")
