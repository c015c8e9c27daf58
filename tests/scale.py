"""The one switch that sizes the oracle sweeps of the tests.

Each sweep writes its two sizes where it is defined, as ``sized(tier1, ci)``.
With COVEX_SCALE unset or empty every sweep takes its tier-1 size; with
``COVEX_SCALE=ci`` it takes the larger size that CI runs.  No other value is
accepted, so a typo cannot silently run the tier-1 sizes, and no size past
the CI one can be asked for.
"""

import os


def sized(tier1, ci):
    """tier1, or ci when COVEX_SCALE is 'ci'; ValueError for any other value."""
    scale = os.environ.get("COVEX_SCALE", "")
    if scale == "":
        return tier1
    if scale == "ci":
        return ci
    raise ValueError(
        f"COVEX_SCALE={scale!r}: leave it unset or empty for the tier-1 sizes, "
        "or set it to 'ci' for the CI sizes"
    )
