"""iOS software-update manifests (Section 3.1).

iOS devices fetch two XML manifests from ``mesu.apple.com`` once per
hour.  The first ("the manifest") lists the current version and download
URL for every device/OS-version combination — about 1800 entries as of
July 2017.  The second ("UpdateBrain") holds only six entries and was
never observed in use; the authors take it for a last-resort upgrade
path for badly outdated devices.

The reproduction models both files and a generator that produces a
realistically sized manifest from the device/version matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "UpdateEntry",
    "UpdateManifest",
    "MANIFEST_PATH",
    "UPDATEBRAIN_PATH",
    "MANIFEST_HOST",
    "DOWNLOAD_HOST",
    "build_manifest",
    "build_updatebrain",
    "DEVICE_MODELS",
]

MANIFEST_HOST = "mesu.apple.com"
DOWNLOAD_HOST = "appldnld.apple.com"
MANIFEST_PATH = (
    "/assets/com_apple_MobileAsset_SoftwareUpdate/"
    "com_apple_MobileAsset_SoftwareUpdate.xml"
)
UPDATEBRAIN_PATH = (
    "/assets/com_apple_MobileAsset_MobileSoftwareUpdate_UpdateBrain/"
    "com_apple_MobileAsset_MobileSoftwareUpdate_UpdateBrain.xml"
)

# iOS device families around the iOS 11 release (iPhone, iPad, iPod —
# the populations the paper's "up to 1 billion devices" estimate covers).
DEVICE_MODELS: tuple[str, ...] = (
    "iPhone5,1", "iPhone5,2", "iPhone5,3", "iPhone5,4",
    "iPhone6,1", "iPhone6,2",
    "iPhone7,1", "iPhone7,2",
    "iPhone8,1", "iPhone8,2", "iPhone8,4",
    "iPhone9,1", "iPhone9,2", "iPhone9,3", "iPhone9,4",
    "iPhone10,1", "iPhone10,2", "iPhone10,3", "iPhone10,4", "iPhone10,5",
    "iPad4,1", "iPad4,2", "iPad4,4", "iPad4,5", "iPad4,7",
    "iPad5,1", "iPad5,2", "iPad5,3", "iPad5,4",
    "iPad6,3", "iPad6,4", "iPad6,7", "iPad6,8", "iPad6,11", "iPad6,12",
    "iPad7,1", "iPad7,2", "iPad7,3", "iPad7,4",
    "iPod7,1", "iPod9,1",
    "AppleTV5,3", "AppleTV6,2",
)


@dataclass(frozen=True)
class UpdateEntry:
    """One manifest row: what a given device on a given build gets."""

    device_model: str
    from_version: str
    target_version: str
    url: str
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("update size must be positive")
        if not self.url.startswith("http://"):
            raise ValueError("updates are delivered over plain http (Section 3.1)")

    @property
    def path(self) -> str:
        """The URL path on the download host."""
        prefix = f"http://{DOWNLOAD_HOST}"
        if not self.url.startswith(prefix):
            raise ValueError(f"unexpected download host in {self.url!r}")
        return self.url[len(prefix):]


class UpdateManifest:
    """A manifest: entries indexed by (device model, installed version)."""

    def __init__(self, entries: list[UpdateEntry]) -> None:
        self._entries = list(entries)
        self._index: dict[tuple[str, str], UpdateEntry] = {}
        for entry in entries:
            key = (entry.device_model, entry.from_version)
            if key in self._index:
                raise ValueError(f"duplicate manifest entry for {key}")
            self._index[key] = entry

    def lookup(self, device_model: str, installed_version: str) -> Optional[UpdateEntry]:
        """The update offered to a device, or ``None`` if up to date."""
        entry = self._index.get((device_model, installed_version))
        if entry is None:
            return None
        if entry.target_version == installed_version:
            return None
        return entry

    @property
    def entry_count(self) -> int:
        """Number of rows (the paper counted ~1800 in July 2017)."""
        return len(self._entries)

    def __iter__(self) -> Iterator[UpdateEntry]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def _image_size(device_model: str, target_version: str) -> int:
    """A deterministic, plausible image size (1.9-3.1 GB) per combination."""
    seed = sum(ord(ch) for ch in device_model + target_version)
    return (19 + seed % 13) * 100 * 1024 * 1024


def build_manifest(target_version: str = "11.0") -> UpdateManifest:
    """Build a full manifest offering ``target_version`` to every device.

    The 43 device models and 42 prior versions (8.0-10.13) yield 1806
    entries, matching the ~1800 the paper reports.
    """
    prior_versions = tuple(
        f"{major}.{minor}" for major in (8, 9, 10) for minor in range(14)
    )
    entries = []
    for model in DEVICE_MODELS:
        for version in prior_versions:
            if version == target_version:
                continue
            url = (
                f"http://{DOWNLOAD_HOST}/ios{target_version}/"
                f"{model.lower().replace(',', '_')}_{target_version}_restore.ipsw"
            )
            entries.append(
                UpdateEntry(
                    device_model=model,
                    from_version=version,
                    target_version=target_version,
                    url=url,
                    size_bytes=_image_size(model, target_version),
                )
            )
    return UpdateManifest(entries)


def build_updatebrain() -> UpdateManifest:
    """The six-entry iOS 11.0 last-resort manifest (never observed in use)."""
    target_version = "11.0"
    families = ("iPhone5", "iPhone6", "iPhone7", "iPad4", "iPad5", "iPod7")
    entries = [
        UpdateEntry(
            device_model=f"{family},1",
            from_version="legacy",
            target_version=target_version,
            url=(
                f"http://{DOWNLOAD_HOST}/updatebrain/"
                f"{family.lower()}_{target_version}_brain.ipsw"
            ),
            size_bytes=50 * 1024 * 1024,
        )
        for family in families
    ]
    return UpdateManifest(entries)
