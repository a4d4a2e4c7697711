"""The eyeball-ISP substrate: border topology, BGP view, Netflow
collection, SNMP counters, and the Section 5.1 offload/overflow
classification."""

from .bgp import BgpRib, BgpRoute
from .billing import BillImpact, PercentileBilling, bill_impact
from .classify import THIRD_PARTY_OPERATORS, ClassifiedFlow, TrafficClassifier
from .netflow import FlowLog, FlowRecord, NetflowCollector
from .snmp import SnmpCounters
from .topology import EyeballIsp, PeeringLink

__all__ = [
    "EyeballIsp",
    "PercentileBilling",
    "BillImpact",
    "bill_impact",
    "PeeringLink",
    "BgpRoute",
    "BgpRib",
    "FlowRecord",
    "FlowLog",
    "NetflowCollector",
    "SnmpCounters",
    "ClassifiedFlow",
    "TrafficClassifier",
    "THIRD_PARTY_OPERATORS",
]
