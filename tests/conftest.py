"""Fixtures shared by the test modules."""

import pytest

from dynkindex import sl2


@pytest.fixture(autouse=True)
def fresh_sl2_caches():
    """Empty summary_row and mckay_data caches before and after every test.
    Many tests patch what those read (principal_index,
    principal_minus_subregular, _AB_EXCEPTIONAL, ab_closed_form,
    _cartan_matrix): a row or record cached by another test would hide the
    patch, and one cached under the patch would outlive it."""
    for cache in (sl2.summary_row, sl2.mckay_data):
        cache.cache_clear()
    yield
    for cache in (sl2.summary_row, sl2.mckay_data):
        cache.cache_clear()
