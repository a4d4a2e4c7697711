"""DNS substrate: records, zones, answer policies, recursive resolution.

This subpackage models everything the paper's DNS measurements touch:
CNAME chains with per-hop TTLs, operator-attributed authoritative
servers, and the location/time/policy-dependent answers that implement
the Meta-CDN's request mapping.
"""

from .policies import (
    AnswerPolicy,
    CnamePolicy,
    CountrySplitPolicy,
    GslbAddressPolicy,
    StaticPolicy,
    WeightSchedule,
    WeightedCnamePolicy,
    stable_fraction,
)
from .query import DnsResponse, Question, QueryContext, RCode
from .records import (
    ARecord,
    CnameRecord,
    PtrRecord,
    NameError_,
    RecordType,
    ResourceRecord,
    is_subdomain,
    normalize_name,
)
from .reverse import (
    address_from_reverse_name,
    build_ptr_zone,
    reverse_name,
    scan_ptr_records,
)
from .wire import (
    ClientSubnet,
    WireError,
    WireMessage,
    decode_message,
    decode_name,
    encode_message,
    encode_name,
)
from .resolver import (
    RecursiveResolver,
    Resolution,
    ResolutionError,
    ResolutionStep,
    ResolverCacheStats,
)
from .trace import DelegationTrace, DelegationTree, ReferralStep
from .zone import AuthoritativeServer, Zone

__all__ = [
    "RecordType",
    "ResourceRecord",
    "ARecord",
    "CnameRecord",
    "PtrRecord",
    "reverse_name",
    "address_from_reverse_name",
    "build_ptr_zone",
    "scan_ptr_records",
    "WireMessage",
    "WireError",
    "ClientSubnet",
    "encode_message",
    "decode_message",
    "encode_name",
    "decode_name",
    "normalize_name",
    "is_subdomain",
    "NameError_",
    "Question",
    "QueryContext",
    "DnsResponse",
    "RCode",
    "AnswerPolicy",
    "StaticPolicy",
    "CnamePolicy",
    "CountrySplitPolicy",
    "WeightSchedule",
    "WeightedCnamePolicy",
    "GslbAddressPolicy",
    "stable_fraction",
    "Zone",
    "AuthoritativeServer",
    "RecursiveResolver",
    "Resolution",
    "ResolutionStep",
    "ResolutionError",
    "ResolverCacheStats",
    "DelegationTree",
    "DelegationTrace",
    "ReferralStep",
]
