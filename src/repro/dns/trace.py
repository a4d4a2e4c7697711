"""``dig +trace``-style delegation walks over the estate.

The recursive resolver answers *what* a name resolves to; operators
dissecting a mapping chain also ask *who is authoritative at each
level* — the root delegates ``net`` , ``net`` delegates ``akadns.net``
to Akamai, and so on.  :class:`DelegationTree` derives that hierarchy
from the zones the estate's servers host, and its ``trace`` walks one
name, referral by referral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .records import normalize_name
from .zone import AuthoritativeServer

__all__ = ["ReferralStep", "DelegationTrace", "DelegationTree"]


@dataclass(frozen=True)
class ReferralStep:
    """One level of the walk: who is asked, and what they hand back."""

    level: str  # ".", "com", "apple.com", ...
    operator: str  # who runs this level ("IANA root", "net registry", ...)
    referral_to: Optional[str]  # next zone, None when authoritative


@dataclass(frozen=True)
class DelegationTrace:
    """A completed walk for one name."""

    name: str
    steps: tuple
    final_operator: Optional[str]

    @property
    def depth(self) -> int:
        """Number of levels walked, root included."""
        return len(self.steps)

    def render(self) -> str:
        """dig-+trace-flavoured text."""
        lines = [f"; delegation trace for {self.name}"]
        for step in self.steps:
            if step.referral_to is not None:
                lines.append(
                    f";; {step.level:<24} ({step.operator}) "
                    f"-> delegates {step.referral_to}"
                )
            else:
                lines.append(
                    f";; {step.level:<24} ({step.operator}) -> AUTHORITATIVE"
                )
        return "\n".join(lines)


class DelegationTree:
    """The zone hierarchy implied by a set of authoritative servers.

    TLD registries and the root are not modelled operators in the
    estate, so the tree labels them generically ("IANA root",
    "<tld> registry"); every hosted zone carries its real operator.
    """

    def __init__(self, servers: Iterable[AuthoritativeServer]) -> None:
        self._zone_operator: dict[str, str] = {}
        for server in servers:
            for origin in self._origins_of(server):
                self._zone_operator[origin] = server.operator

    @staticmethod
    def _origins_of(server: AuthoritativeServer) -> list[str]:
        origins = []
        probe_names = getattr(server, "_zones", [])
        for zone in probe_names:
            origins.append(zone.origin)
        return origins

    @property
    def zones(self) -> tuple[str, ...]:
        """Every hosted zone origin, sorted."""
        return tuple(sorted(self._zone_operator))

    def hosted_zone_for(self, name: str) -> Optional[str]:
        """The most specific hosted zone covering ``name``."""
        cleaned = normalize_name(name)
        labels = cleaned.split(".")
        for start in range(len(labels)):
            candidate = ".".join(labels[start:])
            if candidate in self._zone_operator:
                return candidate
        return None

    def trace(self, name: str) -> DelegationTrace:
        """Walk the delegation chain for ``name``."""
        cleaned = normalize_name(name)
        labels = cleaned.split(".")
        hosted = self.hosted_zone_for(cleaned)
        steps: list[ReferralStep] = []
        tld = labels[-1]
        steps.append(ReferralStep(".", "IANA root", referral_to=tld))
        if hosted is None:
            steps.append(
                ReferralStep(tld, f"{tld} registry", referral_to=None)
            )
            return DelegationTrace(cleaned, tuple(steps), final_operator=None)
        # Registry levels between the TLD and the hosted zone.
        hosted_labels = hosted.split(".")
        for depth in range(1, len(hosted_labels)):
            level = ".".join(hosted_labels[-depth:])
            steps.append(
                ReferralStep(
                    level,
                    f"{level} registry" if depth == 1 else f"{level} operator",
                    referral_to=".".join(hosted_labels[-(depth + 1):]),
                )
            )
        steps.append(
            ReferralStep(
                hosted, self._zone_operator[hosted], referral_to=None
            )
        )
        return DelegationTrace(
            cleaned, tuple(steps), final_operator=self._zone_operator[hosted]
        )
