"""RIPE Atlas substrate: probes, placement, campaigns, result records
and a simulated tracer — the measurement side of the methodology."""

from .awsvm import (
    AWS_REGION_METROS,
    AvailabilityCheck,
    AwsVantage,
    AwsVmCampaign,
    AwsVmResult,
    build_aws_vantages,
)
from .campaign import DnsCampaign, TracerouteCampaign
from .columnar import DnsColumns, DnsSegment, TracerouteColumns
from .placement import (
    ATLAS_CONTINENT_WEIGHTS,
    place_global_probes,
    place_isp_probes,
)
from .probe import AtlasProbe
from .results import (
    DnsMeasurement,
    MeasurementStore,
    TracerouteHop,
    TracerouteMeasurement,
)
from .traceroute import TRANSIT_HOP_PREFIX, SimulatedTracer

__all__ = [
    "AtlasProbe",
    "AwsVantage",
    "AwsVmCampaign",
    "AwsVmResult",
    "AvailabilityCheck",
    "build_aws_vantages",
    "AWS_REGION_METROS",
    "place_global_probes",
    "place_isp_probes",
    "ATLAS_CONTINENT_WEIGHTS",
    "DnsCampaign",
    "TracerouteCampaign",
    "DnsColumns",
    "DnsSegment",
    "TracerouteColumns",
    "DnsMeasurement",
    "TracerouteHop",
    "TracerouteMeasurement",
    "MeasurementStore",
    "SimulatedTracer",
    "TRANSIT_HOP_PREFIX",
]
