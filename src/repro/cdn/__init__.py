"""Generic CDN building blocks: caches, servers, edge sites, deployments
and builders for the third-party fleets of the Apple Meta-CDN."""

from .cache import CacheStats, ContentCache
from .deployment import CdnDeployment, ExposureController, PlacedServer
from .loadmodel import DownloadFluidModel, FluidStats
from .server import (
    CacheServer,
    SecondaryFunction,
    ServerFunction,
    ServerRole,
)
from .site import EdgeSite, Origin, ServedRequest
from .thirdparty import (
    AKAMAI_PLAN,
    LIMELIGHT_PLAN,
    ThirdPartyPlan,
    build_third_party,
)

__all__ = [
    "ContentCache",
    "CacheStats",
    "CacheServer",
    "ServerFunction",
    "SecondaryFunction",
    "ServerRole",
    "EdgeSite",
    "Origin",
    "ServedRequest",
    "CdnDeployment",
    "DownloadFluidModel",
    "FluidStats",
    "ExposureController",
    "PlacedServer",
    "ThirdPartyPlan",
    "build_third_party",
    "AKAMAI_PLAN",
    "LIMELIGHT_PLAN",
]
