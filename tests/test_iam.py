import pytest

from orchsim.iam import ExpiredTokenError, IamService, RevokedTokenError, UnknownTokenError


def test_issue_sets_expiry_from_ttl():
    iam = IamService(seed=1)
    token = iam.issue_token("ada", ["research"], ttl_s=100, t=0)
    assert token.expires_at == 100
    assert token.subject == "ada"
    assert token.groups == frozenset({"research"})


def test_issue_distinct_ids():
    iam = IamService(seed=1)
    a = iam.issue_token("ada", ["g"], 10, 0)
    b = iam.issue_token("ada", ["g"], 10, 0)
    assert a.token_id != b.token_id


def test_issue_deterministic_across_runs():
    first = [IamService(seed=42).issue_token(u, ["g"], 50, 0).token_id
             for u in ("ada", "ben")]
    second = [IamService(seed=42).issue_token(u, ["g"], 50, 0).token_id
              for u in ("ada", "ben")]
    assert first == second
    other_seed = IamService(seed=43).issue_token("ada", ["g"], 50, 0).token_id
    assert other_seed != first[0]


def test_validate_boundary_is_exclusive():
    iam = IamService()
    token = iam.issue_token("ada", ["g"], ttl_s=100, t=0)
    assert iam.validate(token.token_id, 99).token_id == token.token_id
    with pytest.raises(ExpiredTokenError):
        iam.validate(token.token_id, 100)


def test_validate_distinct_error_signals():
    iam = IamService()
    token = iam.issue_token("ada", ["g"], 100, 0)
    with pytest.raises(UnknownTokenError):
        iam.validate("tok-bogus", 0)
    iam.revoke(token.token_id)
    with pytest.raises(RevokedTokenError):
        iam.validate(token.token_id, 0)


def test_revocation_is_permanent():
    iam = IamService()
    token = iam.issue_token("ada", ["g"], 100, 0)
    iam.revoke(token.token_id)
    for t in (0, 1, 50):
        with pytest.raises(RevokedTokenError):
            iam.validate(token.token_id, t)


def test_authorize_default_deny():
    iam = IamService()
    token = iam.issue_token("ada", ["research"], 100, 0)
    assert iam.authorize(token, "site-a") is False
    iam.add_permit("research", "site-a")
    assert iam.authorize(token, "site-a") is True
    assert iam.authorize(token, "site-b") is False
