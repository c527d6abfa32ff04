"""Names of the property suites that :mod:`colorplex.oracles` runs.

They live apart from the suites so that the command line can list and check
them without importing every layer the suites exercise.
"""

SUITE_NAMES = ("loc123", "gamma", "gem", "circle")
