"""Fixtures shared by the test modules."""

import pytest

from dynkindex import sl2


@pytest.fixture
def fresh_mckay_cache():
    """An empty mckay_data cache before and after the test, for a test that
    patches what mckay_data reads (_AB_EXCEPTIONAL, ab_closed_form,
    _cartan_matrix): a record cached by another test would hide the patch,
    and one cached under the patch would outlive it."""
    sl2.mckay_data.cache_clear()
    yield
    sl2.mckay_data.cache_clear()
