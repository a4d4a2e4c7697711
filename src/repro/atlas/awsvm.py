"""AWS-VM vantage points: detailed resolution + availability checks.

Besides the RIPE Atlas probes, the paper ran nine AWS VMs "distributed
over all continents except Africa" that performed *full recursive DNS
resolution* (keeping every hop, TTL and answering operator — the raw
material of Figure 2) and *checked the availability of the relevant
files* on the resolved CDN servers (Section 3.2).

:class:`AwsVantage` models one VM; :class:`AwsVmCampaign` the periodic
sweep.  Unlike Atlas probes, results keep the structured
:class:`~repro.dns.resolver.Resolution` plus per-address HTTP
availability verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..dns.query import Question, QueryContext, RCode
from ..dns.records import normalize_name
from ..dns.resolver import RecursiveResolver, Resolution, ResolutionError
from ..dns.zone import AuthoritativeServer
from ..http.messages import Headers, HttpRequest, HttpResponse
from ..net.geo import Continent
from ..net.ipv4 import IPv4Address
from ..net.locode import Location, LocodeDatabase
from ..workload.timeline import MeasurementWindow
from .cadence import Cadence

__all__ = ["AwsVantage", "AvailabilityCheck", "AwsVmResult", "AwsVmCampaign",
           "AWS_REGION_METROS", "build_aws_vantages"]

# The nine 2017-era AWS regions: every continent except Africa.
AWS_REGION_METROS: tuple[tuple[str, str], ...] = (
    ("us-east-1", "usiad"),
    ("us-west-1", "ussjc"),
    ("ca-central-1", "camtr"),
    ("sa-east-1", "brsao"),
    ("eu-west-1", "iedub"),
    ("eu-central-1", "defra"),
    ("ap-northeast-1", "jptyo"),
    ("ap-southeast-1", "sgsin"),
    ("ap-southeast-2", "ausyd"),
)
# The image every availability check asks for, and the VMs' first address.
_IMAGE_PATH = "/ios11.0/iphone9_1_11.0_restore.ipsw"
_BASE_ADDRESS = IPv4Address.parse("198.19.255.1")


@dataclass(frozen=True)
class AvailabilityCheck:
    """One HTTP availability verdict for a resolved cache address."""

    address: IPv4Address
    status: Optional[int]  # None when the fetch failed outright
    cache_verdict: Optional[str]

    @property
    def available(self) -> bool:
        """Whether the file was obtainable from this cache."""
        return self.status is not None and 200 <= self.status < 300


@dataclass(frozen=True)
class AwsVmResult:
    """One tick of one VM: the full resolution plus availability."""

    region: str
    timestamp: float
    resolution: Resolution
    checks: tuple[AvailabilityCheck, ...]


@dataclass
class AwsVantage:
    """One AWS VM: a region, a metro, and its own resolver."""

    region: str
    address: IPv4Address
    location: Location
    servers: Sequence[AuthoritativeServer]

    @property
    def continent(self) -> Continent:
        """The VM's continent."""
        return self.location.continent

    def context(self, now: float) -> QueryContext:
        """The DNS query context this VM presents."""
        return QueryContext(
            client=self.address,
            coordinates=self.location.coordinates,
            continent=self.continent,
            country=self.location.country,
            now=now,
        )

    def measure(
        self,
        target: str,
        now: float,
        fetch: Callable[[IPv4Address, HttpRequest], Optional[HttpResponse]],
    ) -> AwsVmResult:
        """One detailed measurement: resolve, then probe every address.

        ``fetch`` maps (cache address, request) to a response, or
        ``None`` when the address serves nothing — the scenario provides
        a fetcher that routes to the owning CDN's delivery model.
        """
        try:
            resolution = self._resolver().resolve(target, self.context(now))
        except ResolutionError:
            resolution = Resolution(
                question=Question(normalize_name(target)),
                steps=(),
                rcode=RCode.SERVFAIL,
            )
        checks = []
        for address in resolution.addresses:
            request = HttpRequest(
                "GET", target, _IMAGE_PATH,
                headers=Headers({"X-Client": str(self.address)}),
            )
            response = fetch(address, request)
            if response is None:
                checks.append(AvailabilityCheck(address, None, None))
            else:
                checks.append(
                    AvailabilityCheck(
                        address,
                        response.status,
                        response.headers.get("X-Cache"),
                    )
                )
        return AwsVmResult(
            region=self.region,
            timestamp=now,
            resolution=resolution,
            checks=tuple(checks),
        )

    def _resolver(self) -> RecursiveResolver:
        # Fresh per measurement: the VMs performed *full* recursive
        # resolutions, deliberately bypassing caches.
        return RecursiveResolver(self.servers, cache=False)


def build_aws_vantages(
    servers: Sequence[AuthoritativeServer],
    locations: Optional[LocodeDatabase] = None,
) -> list[AwsVantage]:
    """The paper's nine VMs, one per 2017 AWS region."""
    db = locations if locations is not None else LocodeDatabase.builtin()
    vantages = []
    for index, (region, metro) in enumerate(AWS_REGION_METROS):
        vantages.append(
            AwsVantage(
                region=region,
                address=_BASE_ADDRESS.shifted(index),
                location=db.get(metro),
                servers=list(servers),
            )
        )
    return vantages


@dataclass
class AwsVmCampaign:
    """Periodic detailed measurements from all VMs."""

    vantages: Sequence[AwsVantage]
    target: str
    interval: float
    window: MeasurementWindow
    fetch: Callable[[IPv4Address, HttpRequest], Optional[HttpResponse]]
    results: list = field(default_factory=list)
    name: str = "aws-vms"
    cadence: Cadence = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.cadence = Cadence(self.interval)
        if not self.vantages:
            raise ValueError("campaign needs at least one vantage")

    def maybe_run(self, now: float) -> int:
        """Fire a sweep if due; returns the number of measurements."""
        if not (self.window.contains(now) and self.cadence.due(now)):
            return 0
        for vantage in self.vantages:
            self.results.append(vantage.measure(self.target, now, self.fetch))
        self.cadence.fire(now)
        return len(self.vantages)

    def resolutions(self) -> list[Resolution]:
        """All structured resolutions collected so far."""
        return [result.resolution for result in self.results]

    def availability_ratio(self) -> float:
        """Fraction of availability checks that succeeded."""
        checks = [check for result in self.results for check in result.checks]
        if not checks:
            return 0.0
        return sum(1 for check in checks if check.available) / len(checks)
