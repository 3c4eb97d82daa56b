"""Minimal identity and access layer.

Opaque server-side bearer tokens carry subject, groups and expiry; provider
access is default-deny with explicit permit rules per (group, provider).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import DomainError

class IamError(DomainError):
    pass


class UnknownTokenError(IamError):
    pass


class ExpiredTokenError(IamError):
    pass


class RevokedTokenError(IamError):
    pass


@dataclass
class TokenRecord:
    token_id: str
    subject: str
    groups: frozenset[str]
    issued_at: int
    expires_at: int
    revoked: bool = False


class IamService:
    """Single-writer token store; reads are safe between mutation events."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._counter = 0
        self._tokens: dict[str, TokenRecord] = {}
        self._groups: dict[str, frozenset[str]] = {}  # subject -> groups_of(subject)
        self._permits: set[tuple[str, str]] = set()

    def issue_token(self, subject: str, groups, ttl_s: int, t: int) -> TokenRecord:
        if ttl_s <= 0:
            raise IamError("ttl_s must be > 0")
        self._counter += 1
        digest = hashlib.sha256(
            ("%d:%d:%s" % (self._seed, self._counter, subject)).encode()).hexdigest()
        token = TokenRecord(
            token_id="tok-%06d-%s" % (self._counter, digest[:10]),
            subject=subject,
            groups=frozenset(groups),
            issued_at=t,
            expires_at=t + ttl_s,
        )
        self._tokens[token.token_id] = token
        self._groups[subject] = self._groups.get(subject, frozenset()) | token.groups
        return token

    def validate(self, token_id: str, t: int) -> TokenRecord:
        """Return the record iff known, not revoked and not yet expired.

        Expiry is exclusive: a token is invalid from t == expires_at on.
        """
        token = self._tokens.get(token_id)
        if token is None:
            raise UnknownTokenError("unknown token %r" % token_id)
        if token.revoked:
            raise RevokedTokenError("token %s is revoked" % token_id)
        if t >= token.expires_at:
            raise ExpiredTokenError("token %s expired at t=%d" % (token_id, token.expires_at))
        return token

    def revoke(self, token_id: str):
        token = self._tokens.get(token_id)
        if token is None:
            raise UnknownTokenError("unknown token %r" % token_id)
        token.revoked = True

    def groups_of(self, subject: str) -> frozenset[str]:
        """Union of groups over all of a subject's issued tokens, revoked and
        expired ones included."""
        return self._groups.get(subject, frozenset())

    def add_permit(self, group: str, provider_id: str):
        self._permits.add((group, provider_id))

    def authorize(self, token: TokenRecord, provider_id: str) -> bool:
        """Default-deny: true only when some group of the token is permitted."""
        return any((group, provider_id) in self._permits for group in token.groups)
