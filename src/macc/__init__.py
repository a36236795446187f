"""Multiaccess coded caching toolkit.

Placement delivery arrays, the cyclic multiaccess lift, delivery
simulation with optional MDS-coded compression, and load/memory
trade-off analysis.
"""

__version__ = "0.1.0"

from types import ModuleType as _Module

from .errors import (
    C3ViolationInQ,
    C4Violation,
    ConditionViolation,
    DemandOutOfRange,
    DimensionMismatch,
    DuplicateRatio,
    EmptyInput,
    FieldTooSmall,
    MaccError,
    MalformedPda,
    NotApplicable,
    OutOfRange,
    ParseError,
    SingularSystem,
    UndecodablePacket,
)
from .pda import (
    STAR,
    Pda,
    StarProfile,
    ValidationReport,
    check_c4,
    parse_pda,
    parse_pda_with_map,
    serialize_pda,
    star_profile,
    validate_pda,
)
from .constructions import (
    MnParams,
    PartitionParams,
    mn_pda,
    partition_pda,
)
from .transform import (
    MultiaccessParams,
    RoundArray,
    Scheme,
    build_scheme,
    check_c5,
    scheme_from_json,
    scheme_to_json,
)
from .sim import (
    PacketLibrary,
    TransmissionLog,
    decode,
    decode_from_messages,
    deliver,
    demand_suite,
    library_for_scheme,
    populate_caches,
    user_view,
)
from .compress import (
    CodedBatch,
    LambdaProfile,
    compressed_decode,
    compressed_deliver,
    compressed_load,
    coverable_messages,
    full_view_rounds,
    lambda_profile,
    reconstructable_messages,
)
from .gf2 import GF, cauchy_matrix, field
from .rates import (
    LoadCurve,
    LoadPoint,
    comparison_table,
    converse_bound,
    converse_instance,
    count_sq,
    envelope,
    envelope_eval,
    gap_checks,
    r_cor1,
    r_cor2,
    r_hkd,
    r_mn,
    r_rk,
    r_sr,
    r_t1,
    f_t1,
    r_t3,
    scheme_curve,
    scheme_points,
)

# Every name imported above is public; the submodules they come from are not.
__all__ = ["__version__"] + [
    name for name, value in dict(globals()).items()
    if not name.startswith("_") and not isinstance(value, _Module)
]
