"""The seven SAT algorithms of the paper plus the reference implementation.

``compute_sat`` is the one-call entry point; the algorithm classes are
exported for callers who want to configure and reuse them.
"""

from repro.sat.base import SATAlgorithm, SATResult
from repro.sat.dtypes import (EXACT, LEGACY_FLOAT64, POLICIES, WIDEN_FLOAT,
                              DTypePolicy, accumulator_dtype, fixed_policy,
                              resolve_policy)
from repro.sat.hybrid_1r1w import Hybrid1R1W, band_limits, band_tiles
from repro.sat.kasagi_1r1w import Kasagi1R1W
from repro.sat.naive_2r2w import Naive2R2W
from repro.sat.nehab_2r1w import Nehab2R1W
from repro.sat.integral import (exclusive_sat, integral_image, rect_sum_ii,
                                tilted_integral)
from repro.sat.outofcore import OutOfCoreSAT, out_of_core_sat
from repro.sat.parallel_host import parallel_sat
from repro.sat.optimal_2r2w import Optimal2R2W
from repro.sat.reference import (rect_sum, rect_sums, sat_reference,
                                 sat_sequential)
from repro.sat.registry import ALGORITHMS, compute_sat, get_algorithm
from repro.sat.skss import SKSS1R1W
from repro.sat.skss_lb import SKSSLB1R1W, serial_to_tile, tile_serial_number

__all__ = [
    "SATAlgorithm", "SATResult",
    "Naive2R2W", "Optimal2R2W", "Nehab2R1W", "Kasagi1R1W", "Hybrid1R1W",
    "SKSS1R1W", "SKSSLB1R1W",
    "band_limits", "band_tiles",
    "sat_reference", "sat_sequential", "rect_sum", "rect_sums",
    "ALGORITHMS", "compute_sat", "get_algorithm",
    "OutOfCoreSAT", "out_of_core_sat",
    "integral_image", "exclusive_sat", "rect_sum_ii", "tilted_integral",
    "parallel_sat",
    "tile_serial_number", "serial_to_tile",
    "DTypePolicy", "EXACT", "WIDEN_FLOAT", "LEGACY_FLOAT64", "POLICIES",
    "fixed_policy", "resolve_policy", "accumulator_dtype",
]
