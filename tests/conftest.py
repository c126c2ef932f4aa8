"""Test-session settings shared by every test file.

The hypothesis profile changes one thing from hypothesis' defaults: a
failing property prints a @reproduce_failure blob, so a rare draw seen
in CI can be replayed exactly.  Example counts, deadlines and the
example database stay as hypothesis and each test set them.
"""
from hypothesis import settings

settings.register_profile("valcert", print_blob=True)
settings.load_profile("valcert")
