"""Test settings that every test directory shares.

The hypothesis profile ``explicit`` runs only the ``@example`` cases of
each property test and keeps no example database, so a run reaches the
same lines every time::

    python -m pytest --hypothesis-profile explicit
"""

from hypothesis import Phase, settings

settings.register_profile("explicit", phases=[Phase.explicit], database=None)
