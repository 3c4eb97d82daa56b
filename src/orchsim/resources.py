"""Integer resource vectors used for all demand/capacity arithmetic.

Components are whole cpus, megabytes of memory and gigabytes of disk so that
conservation checks can compare sums exactly, with no float tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

_FIELDS = ("cpus", "mem_mb", "disk_gb")


class ResourceError(DomainError):
    pass


@dataclass(frozen=True)
class ResourceVector:
    """A (cpus, mem_mb, disk_gb) triple; every component is a non-negative int."""

    cpus: int = 0
    mem_mb: int = 0
    disk_gb: int = 0

    def __post_init__(self):
        for name in _FIELDS:
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
        out = ResourceVector.zero()
        for v in vectors:
            out = out + v
        return out

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpus + other.cpus,
            self.mem_mb + other.mem_mb,
            self.disk_gb + other.disk_gb,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Componentwise subtraction; going negative is an accounting error."""
        if not other.fits(self):
            raise ResourceError("subtraction would go negative: %s - %s" % (self, other))
        return ResourceVector(
            self.cpus - other.cpus,
            self.mem_mb - other.mem_mb,
            self.disk_gb - other.disk_gb,
        )

    def monus(self, other: "ResourceVector") -> "ResourceVector":
        """Saturating subtraction: components clamp at zero instead of failing."""
        return ResourceVector(
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
