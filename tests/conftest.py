"""Keep a failing property's falsifying example in the report.

When a property fails, hypothesis's pytest plugin turns the falsifying
example into a suggested ``@example`` patch, and building that patch imports
``libcst`` if it is installed.  ``libcst`` warns about
``mypy_extensions.TypedDict`` as it imports, so under
``-W error::DeprecationWarning`` the report hook dies with an INTERNALERROR
and the example is lost.  Dropping the patch request keeps the failure and
its falsifying example, which hypothesis prints with the assertion itself.
"""

import pytest


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    # the attribute hypothesis's plugin reads to write the patch
    item.__dict__.pop("_hypothesis_failing_examples", None)
