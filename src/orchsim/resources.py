"""Integer resource vectors used for all demand/capacity arithmetic.

Components are whole cpus, megabytes of memory and gigabytes of disk so that
conservation checks can compare sums exactly, with no float tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import stext
from .errors import DomainError

RESOURCE_KEYS = ("cpus", "mem_mb", "disk_gb")


class ResourceError(DomainError):
    pass


@dataclass(frozen=True)
class ResourceVector:
    """A (cpus, mem_mb, disk_gb) triple; every component is a non-negative int."""

    cpus: int = 0
    mem_mb: int = 0
    disk_gb: int = 0

    def __post_init__(self):
        for name in RESOURCE_KEYS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ResourceError("%s must be an integer, got %r" % (name, value))
            if value < 0:
                raise ResourceError("%s must be >= 0, got %d" % (name, value))

    @classmethod
    def zero(cls) -> "ResourceVector":
        return cls(0, 0, 0)

    @staticmethod
    def total(vectors) -> "ResourceVector":
        cpus = mem_mb = disk_gb = 0
        for v in vectors:
            cpus += v.cpus
            mem_mb += v.mem_mb
            disk_gb += v.disk_gb
        return unchecked(cpus, mem_mb, disk_gb)

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return unchecked(
            self.cpus + other.cpus,
            self.mem_mb + other.mem_mb,
            self.disk_gb + other.disk_gb,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Componentwise subtraction; going negative is an accounting error."""
        if not other.fits(self):
            raise ResourceError("subtraction would go negative: %s - %s" % (self, other))
        return unchecked(
            self.cpus - other.cpus,
            self.mem_mb - other.mem_mb,
            self.disk_gb - other.disk_gb,
        )

    def monus(self, other: "ResourceVector") -> "ResourceVector":
        """Saturating subtraction: components clamp at zero instead of failing."""
        return unchecked(
            max(0, self.cpus - other.cpus),
            max(0, self.mem_mb - other.mem_mb),
            max(0, self.disk_gb - other.disk_gb),
        )

    def scale(self, factor: int) -> "ResourceVector":
        if factor < 0:
            raise ResourceError("scale factor must be >= 0, got %d" % factor)
        return ResourceVector(self.cpus * factor, self.mem_mb * factor, self.disk_gb * factor)

    def fits(self, capacity: "ResourceVector") -> bool:
        """True iff every component of self is <= the matching component of capacity."""
        return (
            self.cpus <= capacity.cpus
            and self.mem_mb <= capacity.mem_mb
            and self.disk_gb <= capacity.disk_gb
        )

    def is_zero(self) -> bool:
        return self.cpus == 0 and self.mem_mb == 0 and self.disk_gb == 0

    def __str__(self):
        return "(%d cpus, %d MB, %d GB)" % (self.cpus, self.mem_mb, self.disk_gb)


def read_resources(block: stext.Block, context: str, default=stext.REQUIRED) -> ResourceVector:
    """The block's cpus, mem_mb and disk_gb; a missing one is an error unless default is given."""
    return ResourceVector(*(block.field(key, context, stext.NON_NEGATIVE_INT, default)
                            for key in RESOURCE_KEYS))


_new = object.__new__


def unchecked(cpus: int, mem_mb: int, disk_gb: int) -> ResourceVector:
    """A ResourceVector built without validation.

    Only for arithmetic whose components are already non-negative ints (sums,
    clamped differences and counters of validated vectors); everything else
    goes through the validating constructor.
    """
    vector = _new(ResourceVector)
    vector.__dict__.update(cpus=cpus, mem_mb=mem_mb, disk_gb=disk_gb)
    return vector
