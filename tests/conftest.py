"""Shared pytest set-up."""

# Hypothesis's failure report raises this deprecation warning while it
# prints a falsifying example.  Under `-W error`, as CI runs the suite, the
# warning becomes an INTERNALERROR that hides the example.  An ini
# `filterwarnings` entry cannot lift it, as `-W` on the command line wins over
# the ini file, so the filter joins the command line's, after them.
HYPOTHESIS_REPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_configure(config):
    args = config.known_args_namespace
    args.pythonwarnings = [*(args.pythonwarnings or []), HYPOTHESIS_REPORT_WARNING]
